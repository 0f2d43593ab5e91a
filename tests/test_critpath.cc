/**
 * @file
 * Tests for the critical-path recorder and what-if estimator
 * (src/obs/critpath/).
 *
 * Four angles:
 *
 *  - hand-built traces whose binding resource is known by construction
 *    (bus-bound, lock-bound, barrier-bound): the walk must attribute
 *    the bulk of the path to the matching resource class, and the
 *    per-class totals must sum exactly to the measured window on every
 *    run (the coverage invariant);
 *  - cross-engine identity: the serialised prefsim-critpath-v1
 *    document must be byte-identical across the cycle loop and the
 *    local-clock core — every recorder hook is an exact-cycle event,
 *    so this holds by construction and regresses loudly if a hook ever
 *    moves into quiet replay;
 *  - neutrality: enabling the recorder must not perturb simulation
 *    statistics (byte-identical SimStats fingerprints on vs off);
 *  - the what-if contract on the paper's acceptance point (16-proc
 *    PREF): bus arbitration + data transfer own the strict majority of
 *    the critical path, and the infinite-bus prediction lands within
 *    15% of an actual re-simulation with a widened bus.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "mem/split_bus.hh"
#include "prefetch/inserter.hh"
#include "sim/simulator.hh"
#include "sim_fingerprint.hh"
#include "trace/workload.hh"

namespace prefsim
{
namespace
{

using obs::CritPathRun;
using obs::ResClass;

std::uint64_t
classCycles(const CritPathRun &run, ResClass c)
{
    return run.pathCycles[static_cast<std::size_t>(c)];
}

/** Sum of the full per-class breakdown; must equal totalCycles. */
std::uint64_t
pathSum(const CritPathRun &run)
{
    std::uint64_t sum = 0;
    for (const std::uint64_t c : run.pathCycles)
        sum += c;
    return sum;
}

/** The structural invariants every finished analysis must satisfy. */
void
expectWellFormed(const CritPathRun &run, const std::string &what)
{
    EXPECT_FALSE(run.skipped) << what;
    EXPECT_EQ(run.endCycle - run.warmupEnd, run.totalCycles) << what;
    EXPECT_EQ(pathSum(run), run.totalCycles)
        << what << ": per-class path cycles must tile the window";
    ASSERT_EQ(run.whatif.size(), 3u) << what;
    for (const obs::WhatIf &w : run.whatif) {
        EXPECT_GE(w.speedup, 1.0) << what << " " << w.scenario;
        EXPECT_LE(w.predictedCycles, run.totalCycles)
            << what << " " << w.scenario;
        if (run.totalCycles > 0) {
            EXPECT_GE(w.predictedCycles, 1u)
                << what << " " << w.scenario;
        }
    }
    Cycle prev_end = run.warmupEnd;
    for (const obs::CritChainSeg &seg : run.chain) {
        EXPECT_LT(seg.start, seg.end) << what;
        EXPECT_GE(seg.start, prev_end)
            << what << ": chain segments must ascend without overlap";
        EXPECT_LE(seg.end, run.endCycle) << what;
        prev_end = seg.end;
    }
    std::uint64_t prev_addr = 0;
    bool first = true;
    for (const auto &[line, cycles] : run.lines) {
        if (!first) {
            EXPECT_GT(line, prev_addr)
                << what << ": lines must ascend strictly";
        }
        first = false;
        prev_addr = line;
        EXPECT_GT(cycles, 0u) << what;
    }
}

/** Run @p trace with the recorder on and return the finished run. */
CritPathRun
analyze(const ParallelTrace &trace, SimConfig cfg)
{
    ObsContext obs;
    cfg.obs = &obs;
    cfg.critpath = true;
    simulate(trace, cfg);
    const std::vector<CritPathRun> runs = obs.critpath.snapshot();
    EXPECT_EQ(runs.size(), 1u);
    return runs.empty() ? CritPathRun{} : runs.front();
}

SimConfig
plainConfig()
{
    SimConfig cfg;
    cfg.timing.dataTransfer = 8;
    cfg.warmupEpisodes = 0;
    return cfg;
}

ParallelTrace
handTrace(std::vector<Trace> procs, unsigned locks = 0,
          unsigned barriers = 0)
{
    ParallelTrace pt;
    pt.name = "hand";
    pt.numLocks = locks;
    pt.numBarriers = barriers;
    pt.procs = std::move(procs);
    return pt;
}

/* ------------------------------------------------------------------ */
/* Known-bottleneck hand traces                                        */
/* ------------------------------------------------------------------ */

/** Four processors stream cold misses at one data channel: the machine
 *  is bound by the bus, not by sync (there is none) or compute. */
TEST(CritPathKnownBottleneck, BusBound)
{
    std::vector<Trace> procs(4);
    for (unsigned p = 0; p < 4; ++p) {
        for (unsigned i = 0; i < 32; ++i) {
            // Distinct lines per processor: pure capacity traffic.
            procs[p].append(
                TraceRecord::read(0x10000 * (p + 1) + i * 64));
            procs[p].appendInstrs(2);
        }
    }
    const CritPathRun run =
        analyze(handTrace(std::move(procs)), plainConfig());
    expectWellFormed(run, "bus-bound");
    EXPECT_EQ(classCycles(run, ResClass::Lock), 0u);
    EXPECT_EQ(classCycles(run, ResClass::Barrier), 0u);
    EXPECT_EQ(classCycles(run, ResClass::PrefetchStall), 0u);
    const std::uint64_t bus = classCycles(run, ResClass::BusArb) +
                              classCycles(run, ResClass::DataTransfer) +
                              classCycles(run, ResClass::MemoryLatency);
    // With 4 procs contending for 1 channel and 2 instrs per miss, the
    // window is overwhelmingly bus time.
    EXPECT_GT(bus, run.totalCycles / 2) << "bus classes must dominate";
    EXPECT_GT(bus, classCycles(run, ResClass::Compute));
    // Deleting the bus must predict a real speedup here.
    const auto inf = std::find_if(
        run.whatif.begin(), run.whatif.end(),
        [](const obs::WhatIf &w) { return w.scenario == "infinite_bus"; });
    ASSERT_NE(inf, run.whatif.end());
    EXPECT_GT(inf->speedup, 1.0);
}

/** One lock serialises the machine: proc 0 computes 600 cycles inside
 *  the critical section while proc 1 spins for it. */
TEST(CritPathKnownBottleneck, LockBound)
{
    std::vector<Trace> procs(2);
    procs[0].append(TraceRecord::lockAcquire(0));
    procs[0].appendInstrs(600);
    procs[0].append(TraceRecord::lockRelease(0));
    procs[0].appendInstrs(5);
    procs[1].appendInstrs(5); // Arrives second; spins ~600 cycles.
    procs[1].append(TraceRecord::lockAcquire(0));
    procs[1].appendInstrs(5);
    procs[1].append(TraceRecord::lockRelease(0));
    const CritPathRun run =
        analyze(handTrace(std::move(procs), 1), plainConfig());
    expectWellFormed(run, "lock-bound");
    const std::uint64_t lock = classCycles(run, ResClass::Lock);
    EXPECT_EQ(classCycles(run, ResClass::Barrier), 0u);
    EXPECT_GT(lock, 400u) << "the spin window must land on the path";
    // The lock is the single largest non-compute class.
    for (const ResClass other :
         {ResClass::BusArb, ResClass::DataTransfer,
          ResClass::MemoryLatency, ResClass::CoherenceInval,
          ResClass::Barrier, ResClass::PrefetchStall}) {
        EXPECT_GE(lock, classCycles(run, other));
    }
}

/** One slow arriver holds a barrier closed: the waiter's window is
 *  barrier time, charged to the path through the last arriver. */
TEST(CritPathKnownBottleneck, BarrierBound)
{
    std::vector<Trace> procs(2);
    procs[0].appendInstrs(800); // The straggler.
    procs[0].append(TraceRecord::barrier(0));
    procs[0].appendInstrs(5);
    procs[1].appendInstrs(10); // Waits ~790 cycles.
    procs[1].append(TraceRecord::barrier(0));
    procs[1].appendInstrs(5);
    const CritPathRun run =
        analyze(handTrace(std::move(procs), 0, 1), plainConfig());
    expectWellFormed(run, "barrier-bound");
    EXPECT_EQ(classCycles(run, ResClass::Lock), 0u);
    // The path follows whichever processor retires last. If the waiter
    // retires last its barrier window lands on the path; either way
    // compute dominates only through the straggler's 800-instr burst,
    // so barrier + compute together must tile nearly everything.
    const std::uint64_t barrier = classCycles(run, ResClass::Barrier);
    const std::uint64_t compute = classCycles(run, ResClass::Compute);
    EXPECT_GT(barrier + compute, run.totalCycles * 9 / 10);
    EXPECT_GT(compute, 700u)
        << "the straggler's burst binds the episode";
}

/** A single processor with no misses is pure compute: the degenerate
 *  baseline for the coverage invariant. */
TEST(CritPathKnownBottleneck, SoloComputeOnly)
{
    std::vector<Trace> procs(1);
    procs[0].appendInstrs(123);
    const CritPathRun run =
        analyze(handTrace(std::move(procs)), plainConfig());
    expectWellFormed(run, "solo");
    EXPECT_EQ(classCycles(run, ResClass::Compute), run.totalCycles);
    for (const obs::WhatIf &w : run.whatif)
        EXPECT_DOUBLE_EQ(w.speedup, 1.0) << w.scenario;
}

/* ------------------------------------------------------------------ */
/* Cross-engine byte identity                                          */
/* ------------------------------------------------------------------ */

std::string
critpathJson(const ParallelTrace &trace, SimConfig cfg)
{
    ObsContext obs;
    cfg.obs = &obs;
    cfg.critpath = true;
    cfg.traceLabel = "identity";
    simulate(trace, cfg);
    std::ostringstream os;
    obs.critpath.writeJson(os);
    return os.str();
}

void
expectIdenticalAcrossEngines(const ParallelTrace &trace, SimConfig cfg,
                             const std::string &what)
{
    cfg.engine = SimEngine::CycleLoop;
    const std::string want = critpathJson(trace, cfg);
    cfg.engine = SimEngine::LocalClock;
    EXPECT_EQ(want, critpathJson(trace, cfg)) << what << " [local]";
}

TEST(CritPathEngineIdentity, GeneratedWorkloads)
{
    WorkloadParams p;
    p.numProcs = 4;
    p.refsPerProc = 3000;
    p.seed = 2026;
    for (const WorkloadKind kind :
         {WorkloadKind::Mp3d, WorkloadKind::Water}) {
        const ParallelTrace trace = generateWorkload(kind, p);
        const AnnotatedTrace ann = annotateTrace(
            trace, Strategy::PREF, CacheGeometry::paperDefault());
        SimConfig cfg;
        cfg.timing.dataTransfer = 8;
        expectIdenticalAcrossEngines(ann.trace, cfg,
                                     workloadName(kind));
    }
}

TEST(CritPathEngineIdentity, SyncHeavyHandTrace)
{
    // Locks, barriers and sharing misses in one trace: every hook
    // class fires, including the cross-processor jumps.
    std::vector<Trace> procs(3);
    for (unsigned p = 0; p < 3; ++p) {
        procs[p].append(TraceRecord::lockAcquire(0));
        procs[p].append(TraceRecord::read(0x4000));
        procs[p].append(TraceRecord::write(0x4000));
        procs[p].append(TraceRecord::lockRelease(0));
        procs[p].appendInstrs(40 * (p + 1));
        procs[p].append(TraceRecord::barrier(0));
        procs[p].append(TraceRecord::read(0x8000 + p * 64));
        procs[p].appendInstrs(7);
    }
    const ParallelTrace pt = handTrace(std::move(procs), 1, 1);
    expectIdenticalAcrossEngines(pt, plainConfig(), "sync-heavy");
}

/* ------------------------------------------------------------------ */
/* Fingerprint neutrality                                              */
/* ------------------------------------------------------------------ */

TEST(CritPathNeutrality, RecorderDoesNotPerturbStats)
{
    WorkloadParams p;
    p.numProcs = 4;
    p.refsPerProc = 3000;
    p.seed = 7;
    const ParallelTrace trace = generateWorkload(WorkloadKind::Mp3d, p);
    const AnnotatedTrace ann = annotateTrace(
        trace, Strategy::PWS, CacheGeometry::paperDefault());
    for (const SimEngine engine :
         {SimEngine::CycleLoop, SimEngine::LocalClock}) {
        SimConfig cfg;
        cfg.timing.dataTransfer = 8;
        cfg.engine = engine;
        const SimStats off = simulate(ann.trace, cfg);
        ObsContext obs;
        cfg.obs = &obs;
        cfg.critpath = true;
        const SimStats on = simulate(ann.trace, cfg);
        EXPECT_EQ(fingerprint(off), fingerprint(on))
            << "engine " << static_cast<int>(engine);
        EXPECT_EQ(obs.critpath.numRuns(), 1u);
    }
}

/* ------------------------------------------------------------------ */
/* The acceptance point: 16-proc PREF                                  */
/* ------------------------------------------------------------------ */

TEST(CritPathWhatIf, InfiniteBusPredictionWithinDriftBound)
{
    // The paper's Figure 2 headline at 16 processors: prefetching
    // saturates the bus. At the 16-cycle transfer latency the bus is
    // the bottleneck, and the analyzer must (a) attribute the strict
    // majority of the critical path to bus arbitration + transfer and
    // (b) predict the infinite-bus runtime within 15% of an actual
    // re-simulation with one channel per processor (the same gate
    // scripts/check.sh enforces on the full bench configuration).
    WorkloadParams p;
    p.numProcs = 16;
    p.refsPerProc = 4000;
    p.seed = 12345;
    const ParallelTrace trace = generateWorkload(WorkloadKind::Mp3d, p);
    const AnnotatedTrace ann = annotateTrace(
        trace, Strategy::PREF, CacheGeometry::paperDefault());
    SimConfig cfg;
    cfg.timing.dataTransfer = 16;
    const CritPathRun run = analyze(ann.trace, cfg);
    expectWellFormed(run, "fig2-16proc-pref");

    const std::uint64_t bus = classCycles(run, ResClass::BusArb) +
                              classCycles(run, ResClass::DataTransfer);
    EXPECT_GT(bus * 2, run.totalCycles)
        << "bus arbitration + transfer must own the strict majority";

    const auto inf = std::find_if(
        run.whatif.begin(), run.whatif.end(),
        [](const obs::WhatIf &w) { return w.scenario == "infinite_bus"; });
    ASSERT_NE(inf, run.whatif.end());

    SimConfig wide = cfg;
    wide.timing.dataChannels = 16;
    const SimStats actual = simulate(ann.trace, wide);
    ASSERT_GT(actual.cycles, 0u);
    const double drift =
        std::abs(static_cast<double>(inf->predictedCycles) -
                 static_cast<double>(actual.cycles)) /
        static_cast<double>(actual.cycles);
    EXPECT_LE(drift, 0.15)
        << "predicted " << inf->predictedCycles << " vs actual "
        << actual.cycles;
}

} // namespace
} // namespace prefsim
