/**
 * @file
 * The parallel, resumable sweep engine.
 *
 * An experiment is a three-stage pipeline — trace generation → prefetch
 * annotation → simulation — and a sweep (Figure 2 alone is 25
 * simulations per workload) is a DAG over those stages: many annotated
 * traces share one base trace, and many simulations share one annotated
 * trace. SweepEngine makes that DAG explicit. Declared experiment
 * points (enqueue) are scheduled onto a worker pool (runPending) as
 * soon as their dependencies resolve; stage products are immutable and
 * shared, so results are bit-identical to the uncached runExperiment()
 * path regardless of the worker count or completion order.
 *
 * With a cache directory configured, finished points are persisted to a
 * content-addressed on-disk cache (see core/result_io.hh) and future
 * runs — a re-invoked bench binary, or a sweep interrupted halfway —
 * pay only for the points that are missing. Corrupt or truncated cache
 * entries are detected (strict parse + embedded-key comparison) and
 * silently recomputed.
 */

#ifndef PREFSIM_CORE_SWEEP_HH
#define PREFSIM_CORE_SWEEP_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "obs/obs.hh"

namespace prefsim
{

/** Execution options of one SweepEngine. */
struct SweepOptions
{
    /** Worker threads; 1 = serial (the default), 0 = all cores. */
    unsigned jobs = 1;
    /** On-disk result cache directory; empty disables persistence
     *  (--no-cache clears it). */
    std::string cacheDir;
    /** Collect simulator metrics into an engine-owned ObsContext
     *  (--metrics-out). Off = the uninstrumented fast path. */
    bool metrics = false;
    /** Additionally record event traces (--trace-out); implies
     *  metrics. */
    bool tracing = false;
    /** Simulation core (--engine). Results are identical by contract
     *  (docs/simcore.md), so this is not part of the experiment cache
     *  key: an engine-differential run must use --no-cache or separate
     *  cache directories. */
    SimEngine engine = SimEngine::LocalClock;
    /**
     * Interval time-series sampling period (--sample-interval; 0 = off).
     * Implies an ObsContext; each freshly simulated point commits one
     * `prefsim-timeseries-v1` series. Cache hits skip simulation and
     * commit an explicit `"skipped": "cache-hit"` marker run instead —
     * leave cacheDir empty for full coverage.
     */
    Cycle sampleInterval = 0;
    /**
     * Per-line contention attribution (--profile-out). Implies an
     * ObsContext; each freshly simulated point commits one
     * `prefsim-profile-v1` run (cache hits commit a
     * `"skipped": "cache-hit"` marker, as above).
     */
    bool profile = false;
    /**
     * Critical-path analysis (--critpath-out). Implies an ObsContext;
     * each freshly simulated point commits one `prefsim-critpath-v1`
     * run (cache hits commit a `"skipped": "cache-hit"` marker, as
     * above).
     */
    bool critpath = false;
    /**
     * Validate the "infinite bus bandwidth" what-if prediction
     * (--whatif-validate; requires critpath). Every freshly simulated
     * point is re-simulated with BusTiming::dataChannels widened to the
     * processor count and the measured cycles are attached to the
     * critpath run, from which the report derives prediction drift.
     * Roughly doubles simulation cost.
     */
    bool whatifValidate = false;
};

/** Work accounting: what actually executed vs. came from the cache. */
struct SweepCounters
{
    std::uint64_t tracesGenerated = 0;
    std::uint64_t annotationsRun = 0;
    std::uint64_t simulationsRun = 0;
    std::uint64_t cacheHits = 0;     ///< Results loaded from disk.
    std::uint64_t cacheStores = 0;   ///< Results persisted to disk.
    std::uint64_t cacheRejected = 0; ///< Corrupt/stale entries recomputed.

    /** @name Simulation volume (freshly run points only — cache hits
     *  add nothing). Divide by simulateNanos for engine throughput;
     *  scripts/bench_perf.sh does exactly that. @{ */
    std::uint64_t simulatedCycles = 0;
    std::uint64_t simulatedRefs = 0;
    /** @} */

    /** Wall-clock nanoseconds summed per stage across all workers
     *  (overlapping work counts once per worker, so with --jobs > 1 the
     *  sum exceeds elapsed time; it measures cost, not latency). */
    std::uint64_t traceNanos = 0;
    std::uint64_t annotateNanos = 0;
    std::uint64_t simulateNanos = 0;
};

/**
 * Parallel experiment runner with in-memory stage sharing and an
 * optional on-disk result cache.
 *
 * Usage: declare the sweep grid with enqueue()/enqueueGrid(), execute
 * it with runPending(), then read results with run() and the derived
 * metrics. run() on an undeclared point computes it on demand, so
 * formatting code never needs to know what was predeclared. Not itself
 * thread-safe: drive each engine from one thread.
 */
class SweepEngine
{
  public:
    explicit SweepEngine(
        WorkloadParams params = defaultWorkloadParams(),
        CacheGeometry geometry = CacheGeometry::paperDefault(),
        SweepOptions options = SweepOptions{});
    ~SweepEngine();

    SweepEngine(const SweepEngine &) = delete;
    SweepEngine &operator=(const SweepEngine &) = delete;

    /** A spec over this engine's shared params/geometry. */
    ExperimentSpec makeSpec(WorkloadKind kind, bool restructured,
                            Strategy strategy, Cycle data_transfer) const;

    /** Declare one experiment point (deduplicated). */
    void enqueue(const ExperimentSpec &spec);
    void enqueue(WorkloadKind kind, bool restructured, Strategy strategy,
                 Cycle data_transfer);

    /** Declare a full cross-product. */
    void enqueueGrid(const std::vector<WorkloadKind> &workloads,
                     const std::vector<bool> &restructured,
                     const std::vector<Strategy> &strategies,
                     const std::vector<Cycle> &data_transfers);

    /** The points declared since the last runPending(), in declaration
     *  order and duplicates included. */
    const std::vector<ExperimentSpec> &pending() const { return pending_; }

    /** Execute every declared-but-unfinished point; returns when all
     *  results are available. */
    void runPending();

    /** The result of one point; computed on demand if not yet run. */
    const ExperimentResult &run(const ExperimentSpec &spec);
    const ExperimentResult &run(WorkloadKind kind, bool restructured,
                                Strategy strategy, Cycle data_transfer);

    /** Execution time relative to NP (paper Figure 2 / Table 5). */
    double relativeExecTime(WorkloadKind kind, bool restructured,
                            Strategy strategy, Cycle data_transfer);

    /** Speedup of @p strategy over NP (1 / relativeExecTime). */
    double speedup(WorkloadKind kind, bool restructured,
                   Strategy strategy, Cycle data_transfer);

    /** The generated (unannotated) trace; cached and shared. */
    const ParallelTrace &baseTrace(WorkloadKind kind,
                                   bool restructured = false);

    /** The strategy-annotated trace; cached and shared. */
    const AnnotatedTrace &annotated(WorkloadKind kind, bool restructured,
                                    Strategy strategy);

    const WorkloadParams &params() const { return params_; }
    const CacheGeometry &geometry() const { return geometry_; }
    const SweepOptions &options() const { return options_; }
    const SweepCounters &counters() const { return counters_; }

    /** The instrumentation backplane, or null when SweepOptions did not
     *  ask for metrics/tracing. */
    ObsContext *obs() { return obs_.get(); }
    const ObsContext *obs() const { return obs_.get(); }

    /**
     * Serialise the sweep telemetry — per-stage wall-clock cost, cache
     * accounting, and (when enabled) every registered metric and the
     * tracing session totals — as one JSON document. Call after
     * runPending() returns (workers joined).
     */
    void writeTelemetryJson(std::ostream &os) const;

    /**
     * Serialise every committed interval time series as one
     * `prefsim-timeseries-v1` document (an empty runs array when
     * sampling was off or every point came from the cache). Call after
     * runPending() returns.
     */
    void writeTimeseriesJson(std::ostream &os) const;

    /**
     * Serialise every committed attribution-profile run as one
     * `prefsim-profile-v1` document (an empty runs array when profiling
     * was off). Cache-hit points appear as `"skipped": "cache-hit"`
     * marker runs. Call after runPending() returns.
     */
    void writeProfileJson(std::ostream &os) const;

    /**
     * Serialise every committed critical-path analysis as one
     * `prefsim-critpath-v1` document (an empty runs array when
     * recording was off). Cache-hit points appear as
     * `"skipped": "cache-hit"` marker runs. Call after runPending()
     * returns.
     */
    void writeCritPathJson(std::ostream &os) const;

  private:
    /** Execute @p specs (none of which have results yet) as a DAG. */
    void executeBatch(const std::vector<ExperimentSpec> &specs);

    /** @name Stage producers, used by the DAG's workers and by the
     *  on-demand accessors alike: run one stage for @p spec, install
     *  the product under @p key and count it. Thread-safe. @{ */
    const ParallelTrace &produceTrace(const ExperimentSpec &spec,
                                      const std::string &key);
    const AnnotatedTrace &produceAnnotation(const ExperimentSpec &spec,
                                            const std::string &key,
                                            const ParallelTrace &base);
    /** @} */

    /** Try the disk cache; on success the result is installed. */
    bool tryLoadFromDisk(const ExperimentSpec &spec,
                         const std::string &key);

    /** Persist @p result under @p key (atomic rename). */
    void storeToDisk(const ExperimentResult &result,
                     const std::string &key);

    bool cachingEnabled() const
    {
        return !options_.cacheDir.empty();
    }

    WorkloadParams params_;
    CacheGeometry geometry_;
    SweepOptions options_;
    SweepCounters counters_;
    std::unique_ptr<ObsContext> obs_;

    /** Declared, not yet executed points. */
    std::vector<ExperimentSpec> pending_;

    /** Guards the stage maps and counters while workers run. */
    std::mutex mu_;
    std::map<std::string, std::shared_ptr<const ParallelTrace>> traces_;
    std::map<std::string, std::shared_ptr<const AnnotatedTrace>>
        annotated_;
    std::map<std::string, std::unique_ptr<ExperimentResult>> runs_;
};

} // namespace prefsim

#endif // PREFSIM_CORE_SWEEP_HH
