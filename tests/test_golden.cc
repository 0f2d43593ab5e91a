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

#include <sstream>
#include <tuple>

#include "core/experiment.hh"
#include "core/result_io.hh"
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

TEST(Golden, OrganisationFingerprints)
{
    // Byte fingerprints of one small 16-processor run under each
    // organisation whose snoop path differs from the paper's: a victim
    // buffer, a 2-way cache, a prefetch data buffer and write-update
    // coherence. Both engines share MemorySystem, so the engine
    // differential cannot see a snoop bug on these paths; these can.
    // The constants predate the holder directory, which must not move
    // them.
    WorkloadParams p;
    p.numProcs = 16;
    p.refsPerProc = 2000;
    p.seed = 2026;

    ExperimentSpec base;
    base.workload = WorkloadKind::Mp3d;
    base.strategy = Strategy::PREF;
    base.dataTransfer = 8;
    base.params = p;

    ExperimentSpec victim = base;
    victim.sim.victimEntries = 4;
    ExperimentSpec two_way = base;
    two_way.geometry = CacheGeometry(32 * 1024, 32, 2);
    ExperimentSpec pdb = base;
    pdb.sim.prefetchDataBufferEntries = 16;
    ExperimentSpec update = base;
    update.sim.protocol = CoherenceProtocol::WriteUpdate;

    const std::tuple<const char *, ExperimentSpec, std::uint64_t>
        expected[] = {
            {"victim4", victim, 0x5e46ad6552f1e031ULL},
            {"2way", two_way, 0x18a1a7357a7198ecULL},
            {"pdb16", pdb, 0xfbe60434b8ee920dULL},
            {"write-update", update, 0xcb658bedc36e3f52ULL},
        };
    for (const auto &[name, spec, fingerprint] : expected) {
        std::ostringstream os;
        writeResultJson(os, runExperiment(spec), experimentCacheKey(spec));
        EXPECT_EQ(fnv1a64(os.str()), fingerprint)
            << name << std::hex << " got 0x" << fnv1a64(os.str());
    }
}

} // namespace
} // namespace prefsim

