#include "core/experiment.hh"

#include <memory>
#include <sstream>

namespace prefsim
{

const std::vector<Cycle> &
paperTransferLatencies()
{
    static const std::vector<Cycle> lats = {4, 8, 16, 32};
    return lats;
}

WorkloadParams
defaultWorkloadParams()
{
    WorkloadParams p;
    // Table 1's per-program process counts are illegible in the scanned
    // paper; 16 processes reproduce the paper's Table 2 bus-utilisation
    // band on this memory model (see DESIGN.md, substitution 3).
    p.numProcs = 16;
    p.refsPerProc = 100000;
    p.seed = 12345;
    return p;
}

std::string
ExperimentSpec::label() const
{
    std::ostringstream os;
    os << workloadName(workload) << (restructured ? "-r" : "") << "/"
       << strategyName(strategy) << "@" << dataTransfer;
    return os.str();
}

StrategyParams
ExperimentSpec::annotationParams() const
{
    return strategyOverride ? *strategyOverride
                            : strategyParams(strategy);
}

SimConfig
ExperimentSpec::simConfig() const
{
    SimConfig cfg = sim;
    cfg.geometry = geometry;
    cfg.timing.dataTransfer = dataTransfer;
    return cfg;
}

ExperimentResult
runExperiment(const ExperimentSpec &spec)
{
    WorkloadParams wp = spec.params;
    wp.restructured = spec.restructured;
    const AnnotatedView annotated = annotateView(
        std::make_shared<const ParallelTrace>(
            generateWorkload(spec.workload, wp)),
        spec.annotationParams(), spec.geometry);

    ExperimentResult result;
    result.spec = spec;
    result.annotate = annotated.stats;
    result.sim = simulate(annotated.trace, spec.simConfig());
    return result;
}

} // namespace prefsim
