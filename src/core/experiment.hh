/**
 * @file
 * The public experiment API: one call from (workload, strategy, memory
 * architecture) to the paper's metrics.
 *
 * runExperiment() is the uncached reference path. Sweeps, which share
 * traces and annotations across many points (Figure 2 runs 25
 * simulations per workload), go through SweepEngine (core/sweep.hh).
 */

#ifndef PREFSIM_CORE_EXPERIMENT_HH
#define PREFSIM_CORE_EXPERIMENT_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/cache_geometry.hh"
#include "prefetch/inserter.hh"
#include "prefetch/strategy.hh"
#include "sim/simulator.hh"
#include "trace/workload.hh"

namespace prefsim
{

/** The paper's data-bus transfer latencies (Table 2 / Figure 2 sweep). */
const std::vector<Cycle> &paperTransferLatencies();

/** Workload generation defaults used throughout the reproduction. */
WorkloadParams defaultWorkloadParams();

/** One experiment configuration. */
struct ExperimentSpec
{
    WorkloadKind workload = WorkloadKind::Water;
    bool restructured = false;
    Strategy strategy = Strategy::NP;
    /** Contended data-transfer latency (cycles of the 100-cycle total).*/
    Cycle dataTransfer = 8;
    WorkloadParams params = defaultWorkloadParams();
    CacheGeometry geometry = CacheGeometry::paperDefault();

    /**
     * Custom annotation parameters for ablations (distance sweeps, the
     * read-then-write detector, ...); nullopt uses the paper's
     * strategyParams(strategy).
     */
    std::optional<StrategyParams> strategyOverride;

    /**
     * Simulator knobs beyond the fields above (buffer depths, victim
     * entries, coherence protocol, channel counts, ...). Its geometry
     * and timing.dataTransfer members are shadowed: simConfig()
     * overrides them from the spec's own geometry/dataTransfer fields.
     */
    SimConfig sim;

    /** The effective annotation parameters (override or paper preset).*/
    StrategyParams annotationParams() const;

    /** The full simulator configuration this spec runs under. */
    SimConfig simConfig() const;

    /** Display label, e.g. "topopt-r/PWS@8". */
    std::string label() const;
};

/** Everything a single run produces. */
struct ExperimentResult
{
    ExperimentSpec spec;
    SimStats sim;
    AnnotateStats annotate;
};

/** Run one experiment from scratch (no caching). */
ExperimentResult runExperiment(const ExperimentSpec &spec);

} // namespace prefsim

#endif // PREFSIM_CORE_EXPERIMENT_HH
