/**
 * @file
 * The instrumentation event stream: one typed record per simulator side
 * effect, emitted once into one per-run Sink that fans it out to the
 * run's views, each a consumer with an `on(const Event &)`:
 *
 *   MetricsTap           counters and histograms (any ObsContext)
 *   TraceBuffer          Chrome trace events (--trace-out)
 *   AttributionProfiler  per-line attribution (SimConfig::profile)
 *   CritPathRecorder     critical-path pieces (SimConfig::critpath)
 *
 * The bus, the caches, the memory system and the processors each hold
 * one `obs::Sink *`, null by default, and every hook site is a single
 * `if (sink_) sink_->emit({...})`: an uninstrumented run pays one
 * predictable branch per site. Every event fires on the simulating
 * thread, in the same order in both engines, except PrefetchUseful:
 * the local-clock core replays quiet hits late, and that kind only
 * feeds additive profile counters.
 */

#ifndef PREFSIM_OBS_EVENT_HH
#define PREFSIM_OBS_EVENT_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>

#include "common/types.hh"
#include "obs/critpath/critpath.hh"
#include "obs/metrics.hh"
#include "obs/profile/attribution_profiler.hh"
#include "obs/trace.hh"

namespace prefsim
{
namespace obs
{

/** What happened. Field use per kind is listed beside it; unlisted
 *  fields keep their defaults. */
enum class EventKind : std::uint8_t
{
    // ---- bus (SplitBus) -------------------------------------------------
    BusRequest,  ///< Data-class op queued; arg = ops already waiting.
    BusGrant,    ///< Data bus granted to busId; aux = readyAt, arg =
                 ///< occupancy; demand = demand class; parallel = more
                 ///< than one data channel.
    BusComplete, ///< busId done (before its completion takes effect);
                 ///< aux = request cycle, op = BusOpKind.
    // ---- memory system (MemorySystem) -----------------------------------
    Miss,          ///< Classified CPU miss sent to the bus as busId;
                   ///< invalidation / prefetchLost / falseSharing.
    LateAttach,    ///< Demand access attached to in-flight prefetch busId.
    PrefetchIssue, ///< Prefetch sent to the bus as busId; exclusive.
    PrefetchUseful, ///< First use of a prefetched line.
    UpgradeIssue,  ///< Write to a Shared line sent as busId (blocks
                   ///< until its BusComplete); data = a write-update
                   ///< broadcast rather than an upgrade.
    Fill,          ///< busId's fill completed; aux = demand attach
                   ///< cycle; prefetch / demand (a CPU waits) / dead.
    Downgrade,     ///< proc's private copy demoted by requester peer.
    Invalidate,    ///< proc's copy killed by peer; falseSharing,
                   ///< killedPrefetch (prefetched, never used).
    InflightKill,  ///< proc's in-flight fill poisoned by peer;
                   ///< killedPrefetch (the fill was a prefetch).
    ParkedKill,    ///< proc's parked prefetched line invalidated.
    // ---- caches (DataCache) ---------------------------------------------
    Evict,          ///< Valid line displaced (no cycle: caches have no
                    ///< clock); dirty / prefetch (never used).
    ParkedDisplace, ///< Parked prefetched line pushed out unused.
    // ---- processors (Processor) -----------------------------------------
    StallBegin,       ///< stall = why.
    Wake,             ///< Memory stall (miss/upgrade/in-flight) over.
    PrefetchStallEnd, ///< The stalled prefetch instruction issued.
    LockAcquire,      ///< arg = lock (ends a Lock stall if one is open).
    LockRelease,      ///< arg = lock.
    BarrierArrive,    ///< arg = barrier; last = releases the others
                      ///< (otherwise the arriver starts waiting).
    BarrierRelease,   ///< A waiter left the barrier.
    // ---- simulator ------------------------------------------------------
    Warmup, ///< Statistics reset: the measured window begins at cycle.
};

/** Why a processor stalls (a StallBegin's stall). Barrier waits begin
 *  with a non-last BarrierArrive instead. */
enum class Stall : std::uint8_t
{
    Miss,             ///< Blocked on its own demand fill.
    Upgrade,          ///< Blocked on a write upgrade / update.
    InflightPrefetch, ///< Blocked on a prefetch already in flight.
    PrefetchBuffer,   ///< Prefetch buffer full.
    Lock,             ///< Spinning on a held lock.
};

/** One instrumentation event (see EventKind for per-kind fields). */
struct Event
{
    EventKind kind = EventKind::Warmup;
    Cycle cycle = 0;
    ProcId proc = kNoProc;
    /** The requester whose bus operation caused a remote event. */
    ProcId peer = kNoProc;
    Addr line = kNoAddr;
    std::uint64_t busId = 0;
    /** One auxiliary cycle (readyAt, request cycle, attach cycle). */
    Cycle aux = 0;
    /** Small scalar: queue depth, occupancy or sync id. */
    std::uint32_t arg = 0;
    /** BusOpKind of a BusComplete. */
    std::uint8_t op = 0;
    Stall stall = Stall::Miss;

    /** @name Flags (meaning per kind above). @{ */
    bool demand : 1 = false;
    bool prefetch : 1 = false;
    bool dead : 1 = false;
    bool invalidation : 1 = false;
    bool prefetchLost : 1 = false;
    bool falseSharing : 1 = false;
    bool killedPrefetch : 1 = false;
    bool exclusive : 1 = false;
    bool dirty : 1 = false;
    bool data : 1 = false;
    bool parallel : 1 = false;
    bool last : 1 = false;
    /** @} */
};

/**
 * One run's fan-out point. Non-virtual: emit() calls each present
 * consumer directly. The Simulator creates it, with the run's views,
 * when SimConfig::obs is set and takes the finished views back out.
 */
class Sink
{
  public:
    Sink(MetricsRegistry &metrics, std::unique_ptr<TraceBuffer> trace,
         std::unique_ptr<AttributionProfiler> profile,
         std::unique_ptr<CritPathRecorder> critpath)
        : metrics_(metrics), trace_(std::move(trace)),
          profile_(std::move(profile)), critpath_(std::move(critpath))
    {}

    /** Hand @p e to every present consumer. Out of line on purpose:
     *  inlined at every hook site it bloats the simulator's hot
     *  functions, which measurably slows the null-sink run. */
    void emit(const Event &e);

    /** Hang one more consumer on the stream (tests and embedders that
     *  want the raw events); called after the built-in views. */
    void
    setExtraConsumer(std::function<void(const Event &)> fn)
    {
        extra_ = std::move(fn);
    }

    /** @name The run's views (null when absent). @{ */
    AttributionProfiler *profile() { return profile_.get(); }
    CritPathRecorder *critpath() { return critpath_.get(); }
    /** @} */

    /** Fold the run's metrics into the registry (once, at the end). */
    void commitMetrics() { metrics_.commit(); }

    /** Hand the finished trace session back (to Tracer::commit). */
    std::unique_ptr<TraceBuffer> takeTrace() { return std::move(trace_); }

  private:
    MetricsTap metrics_;
    std::unique_ptr<TraceBuffer> trace_;
    std::unique_ptr<AttributionProfiler> profile_;
    std::unique_ptr<CritPathRecorder> critpath_;
    std::function<void(const Event &)> extra_;
};

} // namespace obs
} // namespace prefsim

#endif // PREFSIM_OBS_EVENT_HH
