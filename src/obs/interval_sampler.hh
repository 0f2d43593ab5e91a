/**
 * @file
 * Interval time-series sampling: the observability layer between
 * end-of-run aggregates and multi-megabyte per-event traces.
 *
 * Every N simulated cycles (SimConfig::sampleInterval) the simulator
 * captures a SampleFrame — cumulative counters plus a few instantaneous
 * values — and hands it to an IntervalSampler, which differences it
 * against the previous frame and appends one row to a columnar
 * TimeSeries. Finished series are committed to the shared
 * TimeSeriesStore, which serialises them as one compact
 * `prefsim-timeseries-v1` JSON document (docs/observability.md).
 *
 * Layering: this file knows nothing about the simulator. The sim layer
 * fills SampleFrames from its own components (bus queue occupancy,
 * outstanding MSHRs, per-processor statistics) precisely at
 * sample boundaries; both engines produce bit-identical frames at
 * identical cycles, so the emitted series are byte-identical too
 * (asserted by tests/test_timeseries.cc).
 *
 * Sampling semantics:
 *  - a sample at cycle X captures state *at the start of* cycle X,
 *    before that cycle's bus tick and processor rotation;
 *  - the first sample lands at cycle N (a cycle-0 row would be all
 *    zeros), subsequent ones every N cycles;
 *  - finish() emits one final partial row covering the tail of the run,
 *    so an interval longer than the run still yields exactly one row;
 *  - a warmup statistics reset rebaselines the differencing mid-window:
 *    the next row's `window` column shrinks to the measured span, and
 *    the series records `warmup_end` in its header.
 */

#ifndef PREFSIM_OBS_INTERVAL_SAMPLER_HH
#define PREFSIM_OBS_INTERVAL_SAMPLER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "obs/run_store.hh"

namespace prefsim
{
namespace obs
{

/**
 * One snapshot of simulation state, captured by the sim layer at a
 * sample boundary. Counter fields are *cumulative* (the sampler
 * differences consecutive frames); the bus-occupancy and MSHR fields
 * are instantaneous.
 */
struct SampleFrame
{
    Cycle cycle = 0;

    /** Cumulative data-bus busy cycles (BusStats::busyCycles). */
    Cycle busBusy = 0;
    /** Operations queued for the data bus right now. */
    std::uint64_t busQueueDepth = 0;
    /** Transfers occupying data channels right now. */
    std::uint64_t busActive = 0;
    /** Outstanding MSHRs across all caches right now. */
    std::uint64_t mshrs = 0;

    /** @name Cumulative miss components, summed over processors
     *  (Figure 3 taxonomy: non-sharing = cold + replacement,
     *  invalidation = coherence). @{ */
    std::uint64_t missNonSharing = 0;
    std::uint64_t missInvalidation = 0;
    std::uint64_t missFalseSharing = 0;
    /** @} */

    /** @name Cumulative prefetch outcomes, summed over processors. @{ */
    std::uint64_t pfIssued = 0;    ///< Prefetches that went to the bus.
    std::uint64_t pfDropped = 0;   ///< Dropped (resident or duplicate).
    std::uint64_t pfUseful = 0;    ///< Prefetched lines used before loss.
    std::uint64_t pfLate = 0;      ///< Demand attached to in-flight pf.
    std::uint64_t pfUseless = 0;   ///< Prefetched, replaced before use.
    std::uint64_t pfCancelled = 0; ///< Prefetched, invalidated before use.
    /** @} */

    /** Cumulative per-processor stall breakdown (ProcStats order). */
    struct Proc
    {
        Cycle busy = 0;
        Cycle stallDemand = 0;
        Cycle stallUpgrade = 0;
        Cycle stallPrefetchQueue = 0;
        Cycle spinLock = 0;
        Cycle waitBarrier = 0;
    };
    std::vector<Proc> procs;
};

/** Per-processor column set of one series (one value per sample). */
struct ProcSeries
{
    std::vector<Cycle> busy;
    std::vector<Cycle> stallDemand;
    std::vector<Cycle> stallUpgrade;
    std::vector<Cycle> stallPrefetchQueue;
    std::vector<Cycle> spinLock;
    std::vector<Cycle> waitBarrier;
};

/** One finished run's columnar time series. */
struct TimeSeries
{
    static constexpr const char *kSchema = "prefsim-timeseries-v1";

    std::string label;
    Cycle interval = 0;
    unsigned procs = 0;
    /** Cycle the warmup statistics reset happened (0 = none). */
    Cycle warmupEnd = 0;
    /** True for a cache-hit placeholder: the sweep loaded this point
     *  from the on-disk result cache and never simulated it, so there
     *  are no samples. Serialised as `"skipped": "cache-hit"`. */
    bool skipped = false;

    /** @name Columns (all the same length). Integer columns are exact
     *  per-window deltas or instantaneous values; busUtil is the only
     *  derived float (busBusy / window). @{ */
    std::vector<Cycle> cycle;    ///< Sample cycle (window end).
    std::vector<Cycle> window;   ///< Measured span ending at `cycle`.
    std::vector<Cycle> busBusy;  ///< Data-bus busy cycles in the window.
    std::vector<double> busUtil; ///< busBusy / window.
    std::vector<std::uint64_t> busQueueDepth; ///< Instantaneous.
    std::vector<std::uint64_t> busActive;     ///< Instantaneous.
    std::vector<std::uint64_t> mshrs;         ///< Instantaneous.
    std::vector<std::uint64_t> missNonSharing;
    std::vector<std::uint64_t> missInvalidation;
    std::vector<std::uint64_t> missFalseSharing;
    std::vector<std::uint64_t> pfIssued;
    std::vector<std::uint64_t> pfDropped;
    std::vector<std::uint64_t> pfUseful;
    std::vector<std::uint64_t> pfLate;
    std::vector<std::uint64_t> pfUseless;
    std::vector<std::uint64_t> pfCancelled;
    /** @} */

    /** perProc[p] holds processor p's stall columns. */
    std::vector<ProcSeries> perProc;

    std::size_t samples() const { return cycle.size(); }
};

/**
 * Differencing sampler for one simulation run. The owner (Simulator)
 * drives it: sample() exactly at each boundary, rebase() at a warmup
 * statistics reset, finish() once at the end of the run, then take()
 * to move the finished series into the TimeSeriesStore.
 */
class IntervalSampler
{
  public:
    IntervalSampler(Cycle interval, unsigned procs, std::string label);

    /** The next cycle sample() expects (the local-clock core clamps
     *  its frontier jumps to this bound). */
    Cycle nextSampleCycle() const { return next_; }

    /** Record the boundary sample @p f (f.cycle must equal
     *  nextSampleCycle()); advances the boundary by one interval. */
    void sample(const SampleFrame &f);

    /**
     * Reset the differencing baseline to @p f after a warmup statistics
     * reset (counters in later frames restart from f's values — for
     * externally owned counters the reset does not zero, f carries the
     * current cumulative value). Sample boundaries stay on the absolute
     * grid; the next row's window covers [f.cycle, boundary) only.
     */
    void rebase(const SampleFrame &f, Cycle warmup_end);

    /** Emit the final partial row ending at f.cycle (none if the last
     *  boundary row already covers it). Call once, at end of run. */
    void finish(const SampleFrame &f);

    /** Move the finished series out (the sampler is spent afterwards). */
    TimeSeries take() { return std::move(series_); }

  private:
    void emitRow(const SampleFrame &f);

    Cycle interval_;
    Cycle next_;
    SampleFrame prev_;   ///< Baseline frame of the open window.
    TimeSeries series_;
};

/** Emit one series as a JSON object into an open writer. */
void writeRunJson(JsonWriter &j, const TimeSeries &s);

/** Finished series, owned by the ObsContext. Simulations running
 *  concurrently under one sweep commit here. */
class TimeSeriesStore : public RunStore<TimeSeries>
{
  public:
    /** Total samples across all committed series (telemetry summary). */
    std::uint64_t totalSamples() const;
};

} // namespace obs
} // namespace prefsim

#endif // PREFSIM_OBS_INTERVAL_SAMPLER_HH
