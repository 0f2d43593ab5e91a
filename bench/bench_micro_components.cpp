/**
 * @file
 * google-benchmark microbenchmarks of the simulator's components:
 * trace generation, the prefetch pass, and the cycle loop itself.
 *
 * These measure prefsim (the tool), not the paper's system — they keep
 * the reproduction's own performance honest so full sweeps stay fast.
 */

#include <benchmark/benchmark.h>

#include "common/log.hh"
#include "common/rng.hh"
#include "core/experiment.hh"
#include "core/sweep.hh"
#include "prefetch/filter_cache.hh"
#include "prefetch/inserter.hh"
#include "sim/simulator.hh"
#include "trace/workload.hh"

using namespace prefsim;

namespace
{

WorkloadParams
benchParams(std::uint64_t refs)
{
    WorkloadParams p;
    p.numProcs = 8;
    p.refsPerProc = refs;
    p.seed = 1;
    return p;
}

void
BM_GenerateWorkload(benchmark::State &state)
{
    const auto kind = static_cast<WorkloadKind>(state.range(0));
    const WorkloadParams p = benchParams(30000);
    std::uint64_t refs = 0;
    for (auto _ : state) {
        const ParallelTrace t = generateWorkload(kind, p);
        refs += t.totalDemandRefs();
        benchmark::DoNotOptimize(t.numProcs());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(refs));
    state.SetLabel(workloadName(kind));
}

void
BM_FilterCache(benchmark::State &state)
{
    FilterCache f(CacheGeometry::paperDefault());
    Rng rng(42);
    std::uint64_t accesses = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(f.access(rng.below(1 << 20)));
        ++accesses;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(accesses));
}

void
BM_AnnotatePref(benchmark::State &state)
{
    const ParallelTrace t =
        generateWorkload(WorkloadKind::Mp3d, benchParams(30000));
    std::uint64_t refs = 0;
    for (auto _ : state) {
        const AnnotatedTrace a =
            annotateTrace(t, Strategy::PREF, CacheGeometry::paperDefault());
        refs += a.stats.demandRefs;
        benchmark::DoNotOptimize(a.stats.inserted);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(refs));
}

void
BM_AnnotatePws(benchmark::State &state)
{
    const ParallelTrace t =
        generateWorkload(WorkloadKind::Pverify, benchParams(30000));
    std::uint64_t refs = 0;
    for (auto _ : state) {
        const AnnotatedTrace a =
            annotateTrace(t, Strategy::PWS, CacheGeometry::paperDefault());
        refs += a.stats.demandRefs;
        benchmark::DoNotOptimize(a.stats.inserted);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(refs));
}

void
BM_SimulateCycleLoop(benchmark::State &state)
{
    const auto kind = static_cast<WorkloadKind>(state.range(0));
    const ParallelTrace t = generateWorkload(kind, benchParams(20000));
    SimConfig cfg;
    cfg.timing.dataTransfer = 8;
    std::uint64_t cycles = 0;
    for (auto _ : state) {
        const SimStats s = simulate(t, cfg);
        cycles += s.cycles;
        benchmark::DoNotOptimize(s.cycles);
    }
    // items = simulated cycles per wall second: the simulator's speed.
    state.SetItemsProcessed(static_cast<std::int64_t>(cycles));
    state.SetLabel(workloadName(kind));
}

void
BM_SimulateEngine(benchmark::State &state)
{
    const ParallelTrace t =
        generateWorkload(WorkloadKind::Mp3d, benchParams(20000));
    SimConfig cfg;
    cfg.timing.dataTransfer = 8;
    cfg.engine = static_cast<SimEngine>(state.range(0));
    std::uint64_t cycles = 0;
    for (auto _ : state) {
        const SimStats s = simulate(t, cfg);
        cycles += s.cycles;
        benchmark::DoNotOptimize(s.cycles);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(cycles));
    state.SetLabel(cfg.engine == SimEngine::CycleLoop ? "cycle" : "local");
}

void
BM_SimulateSaturatedBus(benchmark::State &state)
{
    const ParallelTrace t =
        generateWorkload(WorkloadKind::Mp3d, benchParams(20000));
    SimConfig cfg;
    cfg.timing.dataTransfer = 32;
    std::uint64_t cycles = 0;
    for (auto _ : state) {
        const SimStats s = simulate(t, cfg);
        cycles += s.cycles;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(cycles));
}

void
BM_SweepEngineGrid(benchmark::State &state)
{
    const WorkloadParams p = benchParams(20000);
    SweepOptions so;
    so.jobs = static_cast<unsigned>(state.range(0));
    std::uint64_t sims = 0;
    for (auto _ : state) {
        SweepEngine engine(p, CacheGeometry::paperDefault(), so);
        engine.enqueueGrid({WorkloadKind::Mp3d, WorkloadKind::Topopt},
                           {false}, {Strategy::NP, Strategy::PREF},
                           {4, 32});
        engine.runPending();
        sims += engine.counters().simulationsRun;
    }
    // items = experiment points per wall second at this worker count.
    state.SetItemsProcessed(static_cast<std::int64_t>(sims));
}

} // namespace

BENCHMARK(BM_GenerateWorkload)
    ->DenseRange(0, 4, 1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FilterCache);
BENCHMARK(BM_AnnotatePref)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AnnotatePws)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SimulateCycleLoop)
    ->DenseRange(0, 4, 1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SimulateSaturatedBus)->Unit(benchmark::kMillisecond);
// Engine cross-section. Same simulated cycles per iteration by the
// bit-identity contract, so items/s compare directly.
BENCHMARK(BM_SimulateEngine)
    ->Arg(static_cast<int>(SimEngine::CycleLoop))
    ->Arg(static_cast<int>(SimEngine::LocalClock))
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SweepEngineGrid)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

int
main(int argc, char **argv)
{
    prefsim::setQuiet(true);
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
