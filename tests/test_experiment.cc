/**
 * @file
 * Tests for the public experiment API and the paper reference data.
 * The Workbench suite covers SweepEngine's serial, on-demand face
 * (run, baseTrace, annotated, relativeExecTime and speedup without a
 * prior enqueue).
 */

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "core/paper_reference.hh"
#include "core/sweep.hh"

namespace prefsim
{
namespace
{

WorkloadParams
tinyParams()
{
    WorkloadParams p;
    p.numProcs = 4;
    p.refsPerProc = 25000;
    p.seed = 5;
    return p;
}

TEST(ExperimentSpec, Label)
{
    ExperimentSpec s;
    s.workload = WorkloadKind::Topopt;
    s.strategy = Strategy::PWS;
    s.dataTransfer = 16;
    EXPECT_EQ(s.label(), "topopt/PWS@16");
    s.restructured = true;
    EXPECT_EQ(s.label(), "topopt-r/PWS@16");
}

TEST(ExperimentDefaults, PaperSweep)
{
    const auto &lats = paperTransferLatencies();
    ASSERT_EQ(lats.size(), 4u);
    EXPECT_EQ(lats[0], 4u);
    EXPECT_EQ(lats[3], 32u);
    const WorkloadParams p = defaultWorkloadParams();
    EXPECT_EQ(p.numProcs, 16u);
    EXPECT_GT(p.refsPerProc, 0u);
}

TEST(Workbench, CachesTracesAndRuns)
{
    SweepEngine bench(tinyParams());
    const ParallelTrace *t1 =
        &bench.baseTrace(WorkloadKind::Water, false);
    const ParallelTrace *t2 =
        &bench.baseTrace(WorkloadKind::Water, false);
    EXPECT_EQ(t1, t2); // Same cached object.

    const ExperimentResult *r1 =
        &bench.run(WorkloadKind::Water, false, Strategy::NP, 8);
    const ExperimentResult *r2 =
        &bench.run(WorkloadKind::Water, false, Strategy::NP, 8);
    EXPECT_EQ(r1, r2);
}

TEST(Workbench, DistinctKeysDistinctRuns)
{
    SweepEngine bench(tinyParams());
    const auto &a = bench.run(WorkloadKind::Water, false, Strategy::NP, 8);
    const auto &b =
        bench.run(WorkloadKind::Water, false, Strategy::NP, 32);
    EXPECT_NE(&a, &b);
    EXPECT_NE(a.sim.cycles, b.sim.cycles);
}

TEST(Workbench, NpRelativeTimeIsOne)
{
    SweepEngine bench(tinyParams());
    EXPECT_DOUBLE_EQ(
        bench.relativeExecTime(WorkloadKind::Water, false, Strategy::NP, 8),
        1.0);
    EXPECT_DOUBLE_EQ(
        bench.speedup(WorkloadKind::Water, false, Strategy::NP, 8), 1.0);
}

TEST(Workbench, SpeedupIsInverseRelativeTime)
{
    SweepEngine bench(tinyParams());
    const double rel = bench.relativeExecTime(WorkloadKind::Mp3d, false,
                                              Strategy::PREF, 8);
    const double sp =
        bench.speedup(WorkloadKind::Mp3d, false, Strategy::PREF, 8);
    EXPECT_NEAR(rel * sp, 1.0, 1e-12);
}

TEST(Workbench, AnnotatedNpHasNoPrefetches)
{
    SweepEngine bench(tinyParams());
    const auto &ann =
        bench.annotated(WorkloadKind::Topopt, false, Strategy::NP);
    EXPECT_EQ(ann.trace.totalPrefetches(), 0u);
    EXPECT_EQ(ann.stats.inserted, 0u);
}

TEST(PaperReference, Table2Values)
{
    using paper::busUtilization;
    // Spot checks against the transcription.
    EXPECT_DOUBLE_EQ(
        *busUtilization(WorkloadKind::Topopt, Strategy::NP, 4), 0.18);
    EXPECT_DOUBLE_EQ(
        *busUtilization(WorkloadKind::Mp3d, Strategy::PWS, 8), 0.90);
    EXPECT_DOUBLE_EQ(
        *busUtilization(WorkloadKind::Water, Strategy::LPD, 32), 0.45);
    EXPECT_DOUBLE_EQ(
        *busUtilization(WorkloadKind::Pverify, Strategy::NP, 32), 1.00);
    EXPECT_FALSE(
        busUtilization(WorkloadKind::Water, Strategy::NP, 12).has_value());
}

TEST(PaperReference, Table2MonotoneInLatency)
{
    // The paper's table rises monotonically with transfer latency for
    // every workload and strategy.
    for (auto w : allWorkloads()) {
        for (auto s : allStrategies()) {
            double prev = 0.0;
            for (Cycle t : {4, 8, 16, 32}) {
                const auto v = paper::busUtilization(w, s, t);
                ASSERT_TRUE(v.has_value());
                EXPECT_GE(*v + 1e-12, prev);
                prev = *v;
            }
        }
    }
}

TEST(PaperReference, Table2PrefetchingNeverLowersDemand)
{
    // NP is the minimum row for every workload/latency.
    for (auto w : allWorkloads()) {
        for (Cycle t : {4, 8, 16, 32}) {
            const double np = *paper::busUtilization(w, Strategy::NP, t);
            for (auto s :
                 {Strategy::PREF, Strategy::EXCL, Strategy::LPD,
                  Strategy::PWS}) {
                EXPECT_GE(*paper::busUtilization(w, s, t) + 1e-12, np);
            }
        }
    }
}

TEST(PaperReference, ProcUtilizations)
{
    EXPECT_DOUBLE_EQ(paper::procUtilization(WorkloadKind::Water).fastBus,
                     0.82);
    EXPECT_DOUBLE_EQ(paper::procUtilization(WorkloadKind::Mp3d).slowBus,
                     0.22);
    EXPECT_DOUBLE_EQ(paper::procUtilizationRestructuredTopopt().fastBus,
                     0.80);
    // Faster bus never hurts utilisation.
    for (auto w : allWorkloads()) {
        const auto u = paper::procUtilization(w);
        EXPECT_GE(u.fastBus, u.slowBus);
    }
}

TEST(PaperReference, HeadlineBands)
{
    EXPECT_LT(paper::kMinSpeedupNonPws, 1.0);
    EXPECT_GT(paper::kMaxSpeedupPws, paper::kMaxSpeedupNonPws);
    EXPECT_GT(paper::kPwsCpuMissReductionLo,
              paper::kPrefCpuMissReductionLo);
}

} // namespace
} // namespace prefsim
