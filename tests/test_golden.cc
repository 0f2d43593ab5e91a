/**
 * @file
 * Golden regression tests: exact end-to-end numbers for fixed inputs.
 *
 * These pin the simulator's semantics. If a change makes any of them
 * fail, either the change altered timing/coherence behaviour by
 * accident, or it was intentional — in which case update the constants
 * *and* re-run the calibration experiments (`prefsim_repro proc_util
 * table2_bus_util`) to confirm the paper's anchors still hold.
 */

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "prefetch/inserter.hh"
#include "sim/simulator.hh"

namespace prefsim
{
namespace
{

/** A small deterministic two-processor program with every record kind. */
ParallelTrace
goldenTrace()
{
    ParallelTrace pt;
    pt.name = "golden";
    pt.numLocks = 1;
    pt.numBarriers = 2;

    Trace a;
    a.appendInstrs(20);
    for (unsigned i = 0; i < 8; ++i) {
        a.append(TraceRecord::read(0x1000 + Addr{i} * 32));
        a.appendInstrs(5);
    }
    a.append(TraceRecord::lockAcquire(0));
    a.append(TraceRecord::write(0x5000));
    a.append(TraceRecord::lockRelease(0));
    a.append(TraceRecord::barrier(0));
    for (unsigned i = 0; i < 8; ++i) {
        a.append(TraceRecord::write(0x1000 + Addr{i} * 32));
        a.appendInstrs(3);
    }
    a.append(TraceRecord::barrier(1));

    Trace b;
    b.appendInstrs(10);
    for (unsigned i = 0; i < 4; ++i) {
        b.append(TraceRecord::read(0x5000 + Addr{i} * 4));
        b.appendInstrs(7);
    }
    b.append(TraceRecord::lockAcquire(0));
    b.append(TraceRecord::write(0x5010));
    b.append(TraceRecord::lockRelease(0));
    b.append(TraceRecord::barrier(0));
    b.append(TraceRecord::read(0x1004));
    b.appendInstrs(40);
    b.append(TraceRecord::barrier(1));

    pt.procs.push_back(std::move(a));
    pt.procs.push_back(std::move(b));
    return pt;
}

SimConfig
goldenConfig()
{
    SimConfig cfg;
    cfg.timing.dataTransfer = 8;
    cfg.warmupEpisodes = 0;
    return cfg;
}

TEST(Golden, HandTraceNoPrefetch)
{
    const SimStats s = simulate(goldenTrace(), goldenConfig());
    // Pinned by inspection of a trusted run. Execution time, misses and
    // bus activity must not drift.
    EXPECT_EQ(s.cycles, 1122u);
    EXPECT_EQ(s.totalDemandRefs(), 23u);
    EXPECT_EQ(s.totalMisses().cpu(), 11u);
    EXPECT_EQ(s.totalMisses().invalidation(), 0u);
    EXPECT_EQ(s.totalMisses().falseSharing, 0u);
    EXPECT_EQ(s.bus.totalOps(), 12u);
    EXPECT_EQ(s.totalUpgrades(), 1u);
}

TEST(Golden, HandTracePrefetched)
{
    const AnnotatedTrace ann = annotateTrace(
        goldenTrace(), Strategy::PREF, CacheGeometry::paperDefault());
    const SimStats s = simulate(ann.trace, goldenConfig());
    EXPECT_EQ(ann.stats.inserted, 11u);
    EXPECT_EQ(s.cycles, 327u);
    // One miss survives: proc 1's read races proc 0's write burst.
    EXPECT_EQ(s.totalMisses().adjustedCpu(), 1u);
}

TEST(Golden, WorkloadFingerprints)
{
    // End-to-end fingerprints of the full pipeline on the calibrated
    // workloads at reduced size.
    WorkloadParams p;
    p.numProcs = 4;
    p.refsPerProc = 20000;
    p.seed = 2026;

    ExperimentSpec spec;
    spec.workload = WorkloadKind::Water;
    spec.strategy = Strategy::PWS;
    spec.dataTransfer = 8;
    spec.params = p;
    const ExperimentResult r = runExperiment(spec);

    EXPECT_EQ(r.sim.totalDemandRefs(), 72290u);
    EXPECT_EQ(r.sim.cycles, 60751u);
    EXPECT_EQ(r.sim.totalMisses().cpu(), 64u);
    EXPECT_EQ(r.annotate.inserted, 560u);
}


TEST(Golden, AllWorkloadNpFingerprints)
{
    // NP execution-time fingerprints for every workload at a fixed
    // small configuration: the calibration's change detector. If a
    // generator or simulator change moves these, re-run the
    // calibration experiments before accepting the new values.
    WorkloadParams p;
    p.numProcs = 4;
    p.refsPerProc = 20000;
    p.seed = 2026;

    const std::pair<WorkloadKind, Cycle> expected[] = {
        {WorkloadKind::Topopt, 105066},
        {WorkloadKind::Pverify, 2675582},
        {WorkloadKind::LocusRoute, 182696},
        {WorkloadKind::Mp3d, 733433},
        {WorkloadKind::Water, 64104},
    };
    for (const auto &[kind, cycles] : expected) {
        ExperimentSpec spec;
        spec.workload = kind;
        spec.strategy = Strategy::NP;
        spec.dataTransfer = 8;
        spec.params = p;
        const ExperimentResult r = runExperiment(spec);
        EXPECT_EQ(r.sim.cycles, cycles) << workloadName(kind);
    }
}

} // namespace
} // namespace prefsim

