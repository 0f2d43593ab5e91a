/**
 * @file
 * Critical-path recorder: a last-arrival dependency tracker that turns
 * the stall decomposition of Fig. 2 into a causal explanation.
 *
 * The simulation layers already expose every side-effect boundary the
 * paper's argument turns on — bus request/grant/completion, upgrade
 * traffic, late demand attach to an in-flight prefetch, lock
 * release/acquire and barrier episodes. The recorder consumes those
 * boundaries from the run's event stream (obs/event.hh), exactly like
 * the tracer and the attribution profiler, and partitions each
 * processor's timeline into *pieces* tagged with a
 * closed set of resource classes:
 *
 *   compute          cycles not blocked on anything
 *   bus_arb          waiting for a data-bus grant (readyAt .. grant)
 *   data_transfer    occupying the data bus (grant .. completion)
 *   memory_latency   the DRAM access phase of a fill (issue .. readyAt)
 *   coherence_inval  upgrade traffic and refetch latency of
 *                    invalidation misses
 *   lock             spinning on a held lock
 *   barrier          waiting at a barrier for the last arriver
 *   prefetch_stall   stalled issuing a prefetch (buffer full)
 *
 * A backward walk from the last retirement yields the global critical
 * path: starting at the last-finishing processor, the walk consumes
 * that processor's pieces backwards; lock and barrier pieces carry a
 * cross-processor predecessor (the releaser / last arriver), and the
 * walk jumps to the predecessor's chain there, so the path snakes
 * through whichever processor bound the run at each instant. Gaps
 * between pieces are compute. By construction the per-class totals sum
 * exactly to done_at - warmup_end.
 *
 * Per-class *slack* is the machine-wide cost of the class that did NOT
 * land on the critical path (the aggregate second-arrival gap: cycles
 * other processors spent on the resource while the path ran
 * elsewhere). Slack is always >= 0.
 *
 * The what-if estimator predicts speedup bounds for three scenarios by
 * deleting the scenario's resource classes from the path and from a
 * per-barrier-episode bound (max over processors of active-minus-
 * removable cycles per episode, summed), taking whichever predicted
 * runtime is larger (i.e. the tighter lower bound). `--whatif-validate`
 * re-simulates with a widened bus and reports the drift of the
 * infinite-bus prediction against ground truth.
 *
 * Engine independence: every hook is an exact-cycle event — bus
 * grants and completions, and processor-side transitions (lock,
 * barrier, prefetch stall, miss issue) that the local-clock core never
 * replays quietly. Recorded values depend only on (cycle, ids) of
 * exact-cycle events, which the byte-identical engine contract already
 * fixes, so recorder output is byte-identical across the cycle and
 * local engines by construction.
 */

#ifndef PREFSIM_OBS_CRITPATH_HH
#define PREFSIM_OBS_CRITPATH_HH

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "obs/run_store.hh"

namespace prefsim
{
namespace obs
{

struct Event;

/** Closed resource-class enum; the JSON schema exposes exactly these. */
enum class ResClass : std::uint8_t {
    Compute = 0,
    BusArb,
    DataTransfer,
    MemoryLatency,
    CoherenceInval,
    Lock,
    Barrier,
    PrefetchStall,
};

inline constexpr std::size_t kNumResClasses = 8;

/** Stable JSON name for a resource class. */
const char *resClassName(ResClass c);

/** The class named @p name (resClassName's inverse); nullopt if none. */
std::optional<ResClass> resClassFromName(const std::string &name);

/** One merged segment of the critical path (output form). */
struct CritChainSeg
{
    Cycle start = 0;
    Cycle end = 0;
    ProcId proc = kNoProc;
    ResClass cls = ResClass::Compute;
    Addr line = kNoAddr; ///< kNoAddr when not line-attributable.
};

/** One what-if scenario prediction (plus optional validation). */
struct WhatIf
{
    std::string scenario;
    std::uint64_t predictedCycles = 0;
    double speedup = 1.0;
    std::uint64_t actualCycles = 0; ///< 0 = not validated.
    /** |predicted - actual| / actual, when validated. */
    double drift = 0.0;
};

/** The finished analysis of one simulation run. */
struct CritPathRun
{
    static constexpr const char *kSchema = "prefsim-critpath-v1";

    std::string label;
    unsigned procs = 0;
    Cycle warmupEnd = 0;
    Cycle endCycle = 0;
    std::uint64_t totalCycles = 0; ///< endCycle - warmupEnd.
    bool skipped = false;          ///< Result-cache hit; no analysis.

    /** Per-class cycles on the critical path; sums to totalCycles. */
    std::array<std::uint64_t, kNumResClasses> pathCycles{};
    /** Per-class machine-wide cycles off the critical path (>= 0). */
    std::array<std::uint64_t, kNumResClasses> slackCycles{};

    std::vector<WhatIf> whatif;         ///< The three scenarios.
    std::vector<CritChainSeg> chain;    ///< Top-K segs, ascending start.
    /** Per-line critical-path cycles (bus/memory classes), top lines. */
    std::vector<std::pair<Addr, std::uint64_t>> lines;
};

/**
 * Per-run recorder. Created by the Simulator when SimConfig::critpath
 * is set, fed the run's events, and consumed once via take() after the
 * run drains. Every event arrives on the main thread (see file
 * comment); no internal locking.
 */
class CritPathRecorder
{
  public:
    CritPathRecorder(unsigned procs, std::string label);

    /** Record @p e (the stream's consumer). */
    void on(const Event &e);

    /**
     * Run the backward walk and the what-if estimator over everything
     * recorded, clamped to [warmup_end, done_at), and return the
     * finished analysis. @p finished_at are the absolute per-processor
     * retirement cycles. Call once, after the writeback drain.
     */
    CritPathRun take(Cycle warmup_end, Cycle done_at,
                     const std::vector<Cycle> &finished_at);

  private:
    /** Transaction @p id completed with @p proc demand-blocked on it:
     *  decompose the wait into memory/arb/transfer pieces. */
    void demandWaitEnd(ProcId proc, std::uint64_t id, Cycle now);

    /** One attributed span of a processor's timeline. */
    struct Piece
    {
        Cycle start = 0;
        Cycle end = 0;
        Addr line = kNoAddr;
        ProcId pred = kNoProc; ///< Cross-chain jump (lock/barrier).
        ResClass cls = ResClass::Compute;
        bool prefetch = false; ///< Removable under "free prefetch".
    };

    /** In-flight bus transaction state. */
    struct Txn
    {
        ProcId waiter = kNoProc;
        Cycle waitStart = kNoCycle;
        Addr line = kNoAddr;
        Cycle readyAt = kNoCycle;
        Cycle grantAt = kNoCycle;
        bool prefetch = false;
        bool inval = false;
        bool upgrade = false; ///< Upgrade or WriteUpdate (the waiter's).
        bool data = false;    ///< ... a WriteUpdate, on the data bus.
    };

    /**
     * In-flight transactions by bus id. Every tracked data transaction
     * passes through it (three lookups each), so it is a flat linear-
     * probing table: bus ids count up from 1, and id & mask spreads a
     * window of consecutive ids over distinct slots. Deletion shifts
     * the probe run back, so the table never fills with tombstones.
     */
    class TxnTable
    {
      public:
        /** The transaction @p id, or null. */
        Txn *find(std::uint64_t id);
        /** Insert or overwrite transaction @p id. */
        void put(std::uint64_t id, const Txn &txn);
        /** Remove transaction @p id if present. */
        void erase(std::uint64_t id);

      private:
        struct Slot
        {
            std::uint64_t id = 0; ///< 0 = empty (bus ids start at 1).
            Txn txn;
        };
        /** At most half full. */
        std::vector<Slot> slots_ = std::vector<Slot>(64);
        std::size_t size_ = 0;
    };

    void emitPiece(ProcId proc, Cycle start, Cycle end, ResClass cls,
                   Addr line, ProcId pred, bool prefetch);
    /** End @p proc's wait opened in @p open (if any) as one piece. */
    void closeWait(std::vector<Cycle> &open, ProcId proc, Cycle now,
                   ResClass cls, ProcId pred, bool prefetch);

    unsigned procs_;
    std::string label_;
    std::vector<std::vector<Piece>> pieces_; ///< Per proc, time-sorted.
    TxnTable txns_;

    // Per-processor open-wait state.
    std::vector<Cycle> spinStartAt_;
    std::vector<Cycle> barrierArriveAt_;
    std::vector<Cycle> stallPrefStartAt_;

    // Cross-chain predecessors.
    std::unordered_map<SyncId, ProcId> lockReleaser_;
    ProcId lastArriver_ = kNoProc;
    std::vector<Cycle> episodeEnds_; ///< Barrier release cycles.
};

/** Emit one run as a JSON object into an open writer. */
void writeRunJson(JsonWriter &j, const CritPathRun &run);

/** Finished critical-path analyses, owned by the ObsContext. */
class CritPathStore : public RunStore<CritPathRun>
{
  public:
    /** Attach the validated infinite-bus re-simulation result to the
     *  run with @p label (no-op when the label is unknown). */
    void attachValidation(const std::string &label,
                          std::uint64_t actual_cycles);
};

/**
 * The strict inverse of writeRunJson over a whole `prefsim-critpath-v1`
 * document. Besides kinds it checks what the writer guarantees: exactly
 * the closed resource-class set, known chain classes and chain segment
 * lengths equal to end - start.
 * @throws JsonError / FormatError naming the key path.
 */
std::vector<CritPathRun> readCritPathJson(const JsonValue &doc);

/** readCritPathJson over the file @p path.
 *  @throws std::runtime_error naming the file and the key path. */
std::vector<CritPathRun> loadCritPathJson(const std::string &path);

} // namespace obs
} // namespace prefsim

#endif // PREFSIM_OBS_CRITPATH_HH
