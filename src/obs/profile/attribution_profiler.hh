/**
 * @file
 * Address-level contention attribution: per-cache-line heat maps,
 * sharing classification, and prefetch-usefulness accounting.
 *
 * The aggregate counters (SimStats) and interval series (IntervalSampler)
 * say *how much* the bus and the coherence protocol cost; this layer says
 * *which lines* cost it. An AttributionProfiler is created per simulation
 * run when SimConfig::profile is set (null-by-default, like the Tracer)
 * and consumes the run's event stream (obs/event.hh), attributing each
 * event to a cache-line record:
 *
 *  - demand misses, split by the Figure 3 taxonomy (non-sharing vs
 *    invalidation, prefetched-and-lost vs never-prefetched, plus the
 *    false-sharing subset classified from per-word touch masks);
 *  - invalidation / downgrade ping-pong chains (true vs false sharing);
 *  - data-bus occupancy cycles, split demand vs prefetch class;
 *  - per-prefetch outcomes (issued / useful / late / killed /
 *    displaced), keyed by line and issuing processor.
 *
 * Every event arrives on the simulating thread; a profiler belongs to
 * one run. All counters are additive, so the profile is identical however
 * the engines order the work (the local-clock core replays quiet hits,
 * and with them prefetch first uses, later than the oracle); the
 * finished run sorts its lines by address and serialisation sorts runs
 * by label, giving byte-identical `prefsim-profile-v1` output across
 * the cycle and local engines (asserted by tests/test_profile.cc).
 */

#ifndef PREFSIM_OBS_PROFILE_ATTRIBUTION_PROFILER_HH
#define PREFSIM_OBS_PROFILE_ATTRIBUTION_PROFILER_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/flat_table.hh"
#include "common/types.hh"
#include "obs/run_store.hh"

namespace prefsim
{
namespace obs
{

/** Outcome record of every prefetch one processor issued for one line. */
struct ProfilePrefetch
{
    unsigned proc = 0;           ///< The issuing processor.
    std::uint64_t issued = 0;    ///< Went to the bus.
    std::uint64_t useful = 0;    ///< Line used before being lost.
    std::uint64_t late = 0;      ///< Demand attached while in flight.
    std::uint64_t latenessCycles = 0; ///< Cycles demands waited on them.
    std::uint64_t killed = 0;    ///< Invalidated before first use.
    std::uint64_t displaced = 0; ///< Evicted/discarded before first use.
};

/** Everything attributed to one cache line. */
struct ProfileLine
{
    Addr addr = 0;

    /** @name Demand-miss taxonomy (MissBreakdown at line granularity).
     *  prefetchInflight counts demands that attached to an in-flight
     *  prefetch (the "late" path) rather than missing outright. @{ */
    std::uint64_t missNonSharing = 0;
    std::uint64_t missNonSharingPrefetched = 0;
    std::uint64_t missInvalidation = 0;
    std::uint64_t missInvalidationPrefetched = 0;
    std::uint64_t missPrefetchInflight = 0;
    /** Subset of the invalidation misses whose causing invalidation hit
     *  a word this processor never touched (per-word access masks). */
    std::uint64_t missFalseSharing = 0;
    /** @} */

    /** @name Coherence ping-pong on this line. @{ */
    std::uint64_t invalidations = 0;      ///< Resident copies killed.
    std::uint64_t invalidationsFalse = 0; ///< ... on an untouched word.
    std::uint64_t downgrades = 0;         ///< Private copies demoted.
    std::uint64_t inflightKills = 0;      ///< In-flight fills poisoned.
    /** @} */

    /** @name Data-bus occupancy attributed to this line. @{ */
    std::uint64_t busCycles = 0;         ///< All data-bus occupancy.
    std::uint64_t busCyclesPrefetch = 0; ///< ... by prefetch-class ops.
    std::uint64_t busOps = 0;            ///< Data-bus grants.
    /** @} */

    /** One record per issuing processor, ascending by proc in a taken
     *  or loaded run (serialisation emits them in order). A line sees
     *  few prefetching processors, so lookup is a linear scan. */
    std::vector<ProfilePrefetch> prefetch;

    /** The record of @p proc, appended when absent. */
    ProfilePrefetch &prefetchFor(unsigned proc);
    /** The record of @p proc, or null. */
    const ProfilePrefetch *findPrefetch(unsigned proc) const;
};

/** One finished run's profile, committed to the ProfileStore. */
struct ProfileRun
{
    static constexpr const char *kSchema = "prefsim-profile-v1";

    std::string label;
    unsigned procs = 0;
    /** Cycle the warmup statistics reset happened (0 = none). */
    Cycle warmupEnd = 0;
    /** Cache-hit sweep results skip simulation; the run is recorded
     *  with this marker instead of silently missing (check.sh /
     *  validate_telemetry treat absence as an error). */
    bool skipped = false;
    /** Strictly ascending by addr: serialisation iterates directly. */
    std::vector<ProfileLine> lines;

    /** The line at @p addr (binary search), or null. */
    const ProfileLine *findLine(Addr addr) const;
};

/** Sums over a run's lines (recomputed at write time so the totals
 *  block always equals the per-line rows — the Table 3 consistency
 *  contract prefsim_report re-checks). */
struct ProfileTotals
{
    std::uint64_t misses = 0;
    std::uint64_t missInvalidation = 0;
    std::uint64_t missFalseSharing = 0;
    std::uint64_t invalidations = 0;
    std::uint64_t downgrades = 0;
    std::uint64_t busCycles = 0;
    std::uint64_t busCyclesPrefetch = 0;
    std::uint64_t pfIssued = 0;
    std::uint64_t pfUseful = 0;
    std::uint64_t pfLate = 0;
    std::uint64_t pfKilled = 0;
    std::uint64_t pfDisplaced = 0;

    static ProfileTotals of(const ProfileRun &run);
};

struct Event;

/**
 * Accumulates one run's attribution. The owner (Simulator) creates it
 * when profiling is requested and moves the finished run into the
 * ProfileStore; the Warmup event discards everything attributed before
 * the measured window.
 *
 * Nearly every event looks a line up, so nothing is ordered during the
 * run: lines and (line, processor) prefetch records each live in a
 * FlatTable, a dense vector in first-use order. take() hands each line
 * its prefetch records and sorts the line vector once, in place, into
 * ProfileRun::lines.
 */
class AttributionProfiler
{
  public:
    AttributionProfiler(unsigned procs, std::string label);

    /** Attribute @p e (the stream's consumer). */
    void on(const Event &e);

    /** Move the finished run out (the profiler is spent afterwards). */
    ProfileRun take(Cycle warmup_end);

    /** Fibonacci hash of a line address. With 2^b slots a line's probe
     *  sequence starts at the top b bits (public so that tests can
     *  build colliding addresses). */
    static std::uint64_t
    lineHash(Addr addr)
    {
        return AddrHash{}(addr);
    }

  private:
    /** A (line, issuing processor) pair. */
    using PrefetchKey = std::pair<Addr, unsigned>;
    struct PrefetchHash
    {
        std::uint64_t
        operator()(const PrefetchKey &k) const
        {
            // Addresses stay below 2^48, so the processor lands in bits
            // the address leaves clear.
            return lineHash(k.first ^ (std::uint64_t{k.second} << 48));
        }
    };

    ProfileLine &
    line(Addr addr)
    {
        return lines_.get(addr, [addr](ProfileLine &l) { l.addr = addr; });
    }
    ProfilePrefetch &
    prefetch(Addr addr, ProcId proc)
    {
        return prefetches_.get({addr, proc}, [proc](ProfilePrefetch &pf) {
            pf.proc = proc;
        });
    }

    ProfileRun run_;
    FlatTable<Addr, ProfileLine, AddrHash> lines_;
    FlatTable<PrefetchKey, ProfilePrefetch, PrefetchHash> prefetches_;
};

/** Emit one run as a JSON object into an open writer. */
void writeRunJson(JsonWriter &j, const ProfileRun &run);

/** Finished profile runs, owned by the ObsContext. */
class ProfileStore : public RunStore<ProfileRun>
{
  public:
    /** Attributed lines summed over the runs (telemetry summary). A
     *  line profiled in several runs counts once per run. */
    std::uint64_t totalLines() const;
};

/**
 * The strict inverse of writeRunJson over a whole `prefsim-profile-v1`
 * document. Besides kinds it checks what the writer guarantees: lines
 * in strictly ascending address order, prefetch processors below
 * `procs`, and a totals block equal to the sum of the rows (the
 * Table 3 consistency contract).
 * @throws JsonError / FormatError naming the key path.
 */
std::vector<ProfileRun> readProfileJson(const JsonValue &doc);

/** readProfileJson over the file @p path.
 *  @throws std::runtime_error naming the file and the key path. */
std::vector<ProfileRun> loadProfileJson(const std::string &path);

} // namespace obs
} // namespace prefsim

#endif // PREFSIM_OBS_PROFILE_ATTRIBUTION_PROFILER_HH
