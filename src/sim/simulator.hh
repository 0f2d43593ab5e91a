/**
 * @file
 * The multiprocessor simulator: prefsim's Charlie equivalent.
 *
 * Wires processors, coherent caches, the split-transaction bus and the
 * synchronization managers together, and runs the selected simulation
 * core (SimEngine) to completion. Construction takes a ParallelTrace,
 * or a TraceView of one with prefetches placed into it; run() returns
 * the full SimStats.
 */

#ifndef PREFSIM_SIM_SIMULATOR_HH
#define PREFSIM_SIM_SIMULATOR_HH

#include <memory>
#include <string>
#include <vector>

#include "common/cache_geometry.hh"
#include "common/types.hh"
#include "mem/split_bus.hh"
#include "obs/event.hh"
#include "obs/obs.hh"
#include "sim/memory_system.hh"
#include "sim/processor.hh"
#include "sim/sim_stats.hh"
#include "sim/sync.hh"
#include "trace/trace.hh"
#include "trace/trace_view.hh"

namespace prefsim
{

/**
 * Simulation core selection. Both engines produce bit-identical
 * SimStats on every input (asserted by tests/test_simcore.cc and a
 * scripts/check.sh stage); see docs/simcore.md for the safety
 * argument.
 */
enum class SimEngine : std::uint8_t
{
    /** Tick the bus and every processor each cycle, a blocked one
     *  counting its stall cycle: the reference implementation, kept as
     *  the differential-test oracle. */
    CycleLoop,
    /** Each processor advances on its own local clock through provably
     *  inert work, a blocked one bulk-adding its wait at catch-up; the
     *  frontier executes exactly only the cycles at which the bus acts
     *  (a completion or a grant) or some processor's side effect is due
     *  (default). */
    LocalClock,
};

/** Hardware configuration of one simulation (paper §3.3 defaults). */
struct SimConfig
{
    /** Per-processor data cache geometry. */
    CacheGeometry geometry = CacheGeometry::paperDefault();
    /** Memory subsystem timing (vary dataTransfer for the paper sweep). */
    BusTiming timing{};
    /** Depth of the prefetch instruction buffer. */
    unsigned prefetchBufferDepth = 16;
    /** Victim-cache entries beside each data cache (0 = none, the
     *  paper's configuration; 4.3 suggests a small victim cache to
     *  absorb prefetch-induced conflict misses). */
    unsigned victimEntries = 0;
    /**
     * Prefetch *into* a non-snooping data buffer of this many entries
     * instead of the cache (0 = cache prefetching, the paper's choice).
     * Models the 3.1 alternative; combine with the annotation pass's
     * privateLinesOnly, or watch bufferProtectionEvents count the
     * coherence violations the compiler failed to prevent.
     */
    unsigned prefetchDataBufferEntries = 0;
    /** Coherence protocol (the paper assumes write-invalidate; the
     *  write-update variant is an ablation — see the
     *  ablation_protocol experiment). */
    CoherenceProtocol protocol = CoherenceProtocol::WriteInvalidate;
    /**
     * Barrier episodes treated as cache warmup: when the Nth barrier
     * completes, all statistics reset and the measured execution window
     * begins. The paper's traces were ~2M references per processor, long
     * enough to amortise cold-start misses; our scaled-down traces
     * exclude them explicitly instead. 0 measures from cycle 0.
     */
    unsigned warmupEpisodes = 1;
    /**
     * Simulation core. Results are identical by contract, so this is
     * deliberately excluded from the experiment cache key; CycleLoop
     * exists as the oracle for differential tests and debugging.
     */
    SimEngine engine = SimEngine::LocalClock;
    /**
     * Instrumentation backplane (not owned; must outlive the run). Null
     * — the default — leaves every component uninstrumented: no
     * registry lookups, no event recording, identical simulation.
     */
    ObsContext *obs = nullptr;
    /**
     * Interval time-series sampling period in cycles (0 = off, the
     * default; requires obs). Every sampleInterval cycles the run
     * snapshots bus occupancy, miss components, prefetch outcomes and
     * the per-processor stall breakdown into a
     * `prefsim-timeseries-v1` series committed to obs->timeseries.
     * Sampling never perturbs results: simulation statistics are
     * byte-identical with it on or off, in both engines (the
     * local-clock core bounds its frontier jumps at sample boundaries
     * and catches every processor up there, so frames are captured at
     * exact cycles).
     */
    Cycle sampleInterval = 0;
    /**
     * Per-line contention attribution (off by default; requires obs).
     * The run attributes misses, coherence events, bus occupancy and
     * prefetch outcomes to cache-line addresses and commits a
     * `prefsim-profile-v1` run to obs->profile. Profiling never
     * perturbs results: simulation statistics are byte-identical with
     * it on or off, and the profile itself is byte-identical across
     * both engines (asserted by tests/test_profile.cc).
     */
    bool profile = false;
    /**
     * Critical-path dependency recording (off by default; requires
     * obs). The run partitions every processor's timeline into
     * resource-classed pieces at the existing side-effect boundaries,
     * walks the last-arrival chain backwards from the final retirement
     * and commits a `prefsim-critpath-v1` run (path breakdown, slack,
     * what-if speedup bounds) to obs->critpath. Recording never
     * perturbs results: simulation statistics are byte-identical with
     * it on or off, and the analysis itself is byte-identical across
     * both engines (asserted by tests/test_critpath.cc).
     */
    bool critpath = false;
    /** Label of this run's trace session (sweep spec label; shown as
     *  the Chrome trace process name). */
    std::string traceLabel;
    /** Key of this run in its sweep (its experiment cache key), which
     *  orders its committed telemetry among runs sharing its label. */
    std::string runKey;
};

/**
 * One simulation run over a ParallelTrace or a TraceView.
 */
class Simulator
{
  public:
    /**
     * Simulate @p view: its base with its placements merged in, as
     * view.materialize() would simulate.
     * @param config Hardware parameters.
     * The view must outlive the simulator (its base and lists are read
     * in place, not copied).
     */
    Simulator(const TraceView &view, const SimConfig &config);

    /** Simulate @p trace as a view with no placements; its prefetch
     *  records are honoured as-is. The trace must outlive the
     *  simulator. */
    Simulator(const ParallelTrace &trace, const SimConfig &config)
        : Simulator(TraceView::borrow(trace), config)
    {
    }

    /** Run to completion and return the statistics. */
    SimStats run();

    /** Single-step one cycle of the CycleLoop oracle (testing).
     *  @return true while active. */
    bool stepCycle();

    /**
     * Single-step the local-clock core: advance the frontier to the
     * next bus completion or local-clock side-effect boundary without
     * touching lagging processors, then execute that cycle exactly
     * (catching up exactly the processors it involves). Statistics are
     * bit-identical to the equivalent stepCycle() sequence.
     * @return true while active.
     */
    bool stepLocal();

    Cycle currentCycle() const { return cycle_; }
    const MemorySystem &memory() const { return *mem_; }
    MemorySystem &memory() { return *mem_; }
    const std::vector<ProcStats> &procStats() const { return proc_stats_; }
    /** The run's event sink (null without SimConfig::obs). */
    obs::Sink *sink() { return sink_.get(); }
    unsigned numProcs() const
    {
        return static_cast<unsigned>(procs_.size());
    }

  private:
    /** True when every processor has retired its trace (O(1): the
     *  processors bump done_count_ as they finish). */
    bool
    allDone() const
    {
        return done_count_ == procs_.size();
    }

    /** Execute cycle_ exactly for the CycleLoop oracle: bus tick, then
     *  every live processor in rotation order (blocked ones count their
     *  stall cycle), then closeExactCycle(). */
    void runExactCycle();

    /** Zero all statistics at the end of warmup. */
    void resetStatsForWarmup();

    /** Snapshot simulation state as of the start of cycle @p at. The
     *  local-clock core catches every processor up to @p at first, so
     *  each one's statistics are exact there. */
    obs::SampleFrame captureSampleFrame(Cycle at) const;

    /** Take the boundary sample when cycle_ sits on one. Cheap when
     *  sampling is off: next_sample_ stays kNoCycle, which cycle_
     *  never reaches. */
    void
    maybeSample()
    {
        if (cycle_ == next_sample_) {
            sampler_->sample(captureSampleFrame(cycle_));
            next_sample_ = sampler_->nextSampleCycle();
        }
    }

    /** Advance cycle_ past the exact cycle just executed and run the
     *  progress watchdog (shared tail of every exact-cycle path). */
    void closeExactCycle();

    /** Execute cycle_ exactly for the local-clock core: bus tick
     *  (a no-op when no completion or grant is due), then a rotation
     *  from slot cycle_ % numProcs that services only the processors
     *  with business this cycle — woken or hook-touched processors and
     *  local clocks whose side-effect boundary is due — catching each
     *  up to the frontier first. Lagging quiet processors are skipped
     *  entirely (the engine's speedup). */
    void runExactCycleLocal();

    /** Service one rotation slot of the current exact cycle: refresh a
     *  dirty boundary, run the due test, and when due catch the
     *  processor up and tick it. Returns true when a tick executed
     *  (only a tick can invalidate boundaries ahead of it in the
     *  rotation). */
    bool serviceSlot(unsigned idx);

    /** Retire processor @p p's provably quiet work or wait over
     *  [local_[p], to) in one step, move its local clock to @p to and,
     *  when the clock actually advanced, mark its cached boundary
     *  dirty. Legal whenever to <= eff_[p] (the promised side-effect
     *  boundary); no-op when the clock is already there. */
    void catchUp(ProcId p, Cycle to);

    /** catchUp() every processor to @p to. */
    void catchUpAll(Cycle to);

    /** MemorySystem is about to mutate processor @p p's cache from
     *  outside (remote invalidation/downgrade or a fill completing), or
     *  another processor's tick is about to release p from a lock spin
     *  or a barrier: replay all of p's quiet work or wait that precedes
     *  the mutation in cycle-loop order — everything before cycle_,
     *  plus cycle_ itself when p's rotation slot precedes the currently
     *  ticking processor's — and expire its cached side-effect
     *  boundary. */
    void hookTouch(ProcId p);

    /** Recompute eff_[p] from processor @p p's live state and clear
     *  its dirty flag. */
    void refreshEff(ProcId p);

    /** Sum of processor progress counters + bus grants. */
    std::uint64_t progressSum() const;

    [[noreturn]] void reportDeadlock(const std::string &headline) const;

    SimConfig config_;
    std::vector<ProcStats> proc_stats_;
    std::unique_ptr<MemorySystem> mem_;
    LockTable locks_;
    BarrierManager barriers_;
    std::vector<std::unique_ptr<Processor>> procs_;
    Cycle cycle_ = 0;
    /** Processors that have retired their whole trace (bumped by the
     *  processors themselves via Processor::setDoneCounter). */
    std::size_t done_count_ = 0;
    /** The processor currently being ticked in the service rotation
     *  (hookTouch's slot-order rule compares against it, for snoops,
     *  lock releases and barrier releases alike). */
    ProcId ticking_ = kNoProc;
    /** This run's event sink (null without SimConfig::obs). It owns
     *  the run's views — trace session, profiler, critical-path
     *  recorder — which run() commits to obs after the writeback
     *  drain, so per-line bus cycles sum to the final
     *  BusStats::busyCycles. */
    std::unique_ptr<obs::Sink> sink_;

    /** Interval time-series sampler (null when sampling is off); the
     *  finished series is committed to obs->timeseries by run(). */
    std::unique_ptr<obs::IntervalSampler> sampler_;
    /** Next sample boundary (kNoCycle when sampling is off). */
    Cycle next_sample_ = kNoCycle;

    Cycle last_progress_check_ = 0;
    std::uint64_t last_progress_value_ = 0;
    bool warmup_done_ = false;
    Cycle warmup_end_ = 0;

    /** @name Local-clock state (allocated only by the constructor
     * when the engine is LocalClock).
     * local_[p] is the cycle up to which p's work has actually been
     * executed (always <= cycle_, the frontier). eff_[p] caches the
     * absolute cycle of p's next possible side effect: kNoCycle for
     * every processor that cannot constrain the window or need an
     * exact tick (blocked, done, spinning on a held lock, stalled on a
     * full prefetch buffer — each is re-armed by the event that ends
     * its wait). The frontier bound is E = min eff_, and the exact-cycle
     * rotation's due test is the single compare eff_[p] <= cycle_.
     * Recomputed lazily when p's bit in dirty_mask_ is set (ticks,
     * wakes, hook touches and catch-ups mark it). @{ */
    std::vector<Cycle> local_;
    std::vector<Cycle> eff_;
    std::uint32_t dirty_mask_ = 0;
    /** @} */
};

/** Convenience one-shot: build a Simulator and run it. */
SimStats simulate(const ParallelTrace &trace, const SimConfig &config);
SimStats simulate(const TraceView &view, const SimConfig &config);

} // namespace prefsim

#endif // PREFSIM_SIM_SIMULATOR_HH
