/**
 * @file
 * Example: dissect where a workload's CPU misses come from.
 *
 * Usage: miss_anatomy [workload] [strategy] [data-transfer] [--restructured]
 *
 * Hangs a consumer on the run's instrumentation event stream
 * (obs/event.hh) to attribute every classified CPU miss to an address
 * region (the workload's shared structures, per-processor
 * private data, or the synthetic cold streams), split into invalidation
 * vs. non-sharing misses. This is the region-level view behind the
 * paper's Figure 3 discussion.
 */

#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <string>

#include "core/experiment.hh"
#include "obs/event.hh"
#include "prefetch/inserter.hh"
#include "stats/table.hh"
#include "trace/layout.hh"
#include "trace/workload.hh"

using namespace prefsim;

namespace
{

std::string
regionOf(Addr a)
{
    if (a >= 0x4000'0000) {
        const Addr off = (a - 0x4000'0000) % 0x0100'0000;
        return off >= 0x10'0000 ? "cold-stream" : "private-hot";
    }
    if (a >= kSharedBaseC)
        return "shared-C (queue/aux)";
    if (a >= kSharedBaseB)
        return "shared-B (results/cells)";
    return "shared-A (primary)";
}

} // namespace

int
main(int argc, char **argv)
{
    WorkloadKind kind = WorkloadKind::Pverify;
    Strategy strategy = Strategy::NP;
    Cycle transfer = 8;
    bool restructured = false;
    if (argc > 1)
        kind = workloadFromName(argv[1]);
    if (argc > 2)
        strategy = strategyFromName(argv[2]);
    if (argc > 3)
        transfer = std::strtoul(argv[3], nullptr, 10);
    for (int i = 4; i < argc; ++i) {
        if (std::string(argv[i]) == "--restructured")
            restructured = true;
    }

    WorkloadParams params = defaultWorkloadParams();
    params.restructured = restructured;
    const auto base = std::make_shared<const ParallelTrace>(
        generateWorkload(kind, params));
    const AnnotatedView ann = annotateView(base, strategyParams(strategy),
                                           CacheGeometry::paperDefault());

    ObsContext obs;
    SimConfig cfg;
    cfg.timing.dataTransfer = transfer;
    cfg.obs = &obs;
    Simulator sim(ann.trace, cfg);

    struct Counts
    {
        std::uint64_t inval = 0;
        std::uint64_t nonSharing = 0;
    };
    std::map<std::string, Counts> by_region;
    sim.sink()->setExtraConsumer([&](const obs::Event &e) {
        if (e.kind != obs::EventKind::Miss)
            return;
        Counts &c = by_region[regionOf(e.line)];
        if (e.invalidation)
            ++c.inval;
        else
            ++c.nonSharing;
    });

    const SimStats stats = sim.run();
    const std::uint64_t refs = stats.totalDemandRefs();

    std::cout << "CPU-miss anatomy: " << base->name << " / "
              << strategyName(strategy) << " @ T=" << transfer << "\n"
              << "  demand refs " << refs << ", CPU miss rate "
              << TextTable::percent(stats.cpuMissRate()) << ", cycles "
              << stats.cycles << "\n\n";

    TextTable t({"region", "inval misses", "non-sharing", "% of refs"});
    for (const auto &[region, c] : by_region) {
        t.addRow({region, TextTable::count(c.inval),
                  TextTable::count(c.nonSharing),
                  TextTable::percent(
                      static_cast<double>(c.inval + c.nonSharing) /
                      static_cast<double>(refs))});
    }
    t.print(std::cout);

    // Where did the cycles go?
    ProcStats agg;
    for (const auto &p : stats.procs) {
        agg.busy += p.busy;
        agg.stallDemand += p.stallDemand;
        agg.stallUpgrade += p.stallUpgrade;
        agg.stallPrefetchQueue += p.stallPrefetchQueue;
        agg.spinLock += p.spinLock;
        agg.waitBarrier += p.waitBarrier;
        agg.finishedAt += p.finishedAt;
    }
    const auto pct = [&](Cycle c) {
        return TextTable::percent(static_cast<double>(c) /
                                  static_cast<double>(agg.finishedAt));
    };
    std::cout << "\ncycle breakdown (all processors):\n"
              << "  busy            " << pct(agg.busy) << "\n"
              << "  demand stall    " << pct(agg.stallDemand) << "\n"
              << "  upgrade stall   " << pct(agg.stallUpgrade) << "\n"
              << "  prefetch queue  " << pct(agg.stallPrefetchQueue) << "\n"
              << "  lock spin       " << pct(agg.spinLock) << "\n"
              << "  barrier wait    " << pct(agg.waitBarrier) << "\n"
              << "  bus utilization "
              << TextTable::num(stats.busUtilization()) << "\n";
    std::cout << "bus ops: ReadShared "
              << stats.bus.opCount[0] << ", ReadExclusive "
              << stats.bus.opCount[1] << ", Upgrade "
              << stats.bus.opCount[2] << ", WriteBack "
              << stats.bus.opCount[3] << "\n";

    bool per_proc = false;
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--per-proc")
            per_proc = true;
    }
    if (per_proc) {
        TextTable pp({"proc", "busy", "demand", "barrier", "spin",
                      "finishedAt", "cpu misses"});
        for (std::size_t p = 0; p < stats.procs.size(); ++p) {
            const ProcStats &ps = stats.procs[p];
            pp.addRow({std::to_string(p), TextTable::count(ps.busy),
                       TextTable::count(ps.stallDemand),
                       TextTable::count(ps.waitBarrier),
                       TextTable::count(ps.spinLock),
                       TextTable::count(ps.finishedAt),
                       TextTable::count(ps.misses.cpu())});
        }
        pp.print(std::cout);
    }
    return 0;
}
