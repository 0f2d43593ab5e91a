/**
 * @file
 * Tests for the interval time-series subsystem and the prefsim_report
 * compare gate.
 *
 * The load-bearing contracts:
 *  - sampling must not perturb simulation results at all — statistics
 *    with sampling on (any interval) are bit-identical to sampling off;
 *  - both engines emit *byte-identical* `prefsim-timeseries-v1` JSON:
 *    the local-clock core clamps its frontier jumps to sample
 *    boundaries, catches every lagging local clock up to each boundary
 *    before the frame is taken, and settles lazy stall counters into
 *    exactly the frames the eager cycle loop captures. Interval 1 is
 *    the harshest
 *    case (every cycle is a boundary, including the warmup rebase);
 *    a prime interval lands boundaries mid-burst; an interval longer
 *    than the run leaves only finish()'s partial row;
 *  - IntervalSampler's windowing arithmetic (partial final rows,
 *    warmup rebasing, zero-width boundary skips);
 *  - report::compareBenchReports, including the golden
 *    threshold cases check.sh's perf gate relies on (an engine-speedup
 *    loss >= failFrac is an error => exit 1; a smaller dip, or any loss
 *    of absolute throughput, only warns => exit 0).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/report.hh"
#include "obs/interval_sampler.hh"
#include "obs/obs.hh"
#include "prefetch/inserter.hh"
#include "sim/simulator.hh"
#include "sim_fingerprint.hh"
#include "trace/workload.hh"
#include "verify/finding.hh"

namespace prefsim
{
namespace
{

using obs::IntervalSampler;
using obs::SampleFrame;
using obs::TimeSeries;
using obs::TimeSeriesStore;

/* ------------------------------------------------------------------ */
/* Engine identity and non-perturbation                                */
/* ------------------------------------------------------------------ */

/** Simulate with sampling on and return (stats, timeseries JSON). */
std::pair<SimStats, std::string>
runSampled(const ParallelTrace &trace, SimConfig cfg, SimEngine engine,
           Cycle interval)
{
    ObsContext obs;
    cfg.obs = &obs;
    cfg.engine = engine;
    cfg.sampleInterval = interval;
    cfg.traceLabel = "test";
    const SimStats stats = simulate(trace, cfg);
    std::ostringstream os;
    obs.timeseries.writeJson(os);
    return {stats, os.str()};
}

ParallelTrace
smallWorkload(Strategy strategy)
{
    WorkloadParams p;
    p.numProcs = 3;
    p.refsPerProc = 1200;
    p.seed = 7;
    const ParallelTrace trace =
        generateWorkload(WorkloadKind::Mp3d, p);
    return annotateTrace(trace, strategy, CacheGeometry::paperDefault())
        .trace;
}

class TimeseriesEngineIdentity : public ::testing::TestWithParam<Cycle>
{
};

TEST_P(TimeseriesEngineIdentity, SeriesAndStatsBitIdentical)
{
    const Cycle interval = GetParam();
    const ParallelTrace trace = smallWorkload(Strategy::PREF);
    SimConfig cfg;
    cfg.timing.dataTransfer = 8; // Warmup reset stays on (default 1
                                 // episode): the rebase path runs.

    const auto [cycle_stats, cycle_json] =
        runSampled(trace, cfg, SimEngine::CycleLoop, interval);
    // Local clocks must clamp their catch-up spans to sample boundaries.
    const auto [local_stats, local_json] =
        runSampled(trace, cfg, SimEngine::LocalClock, interval);

    EXPECT_EQ(fingerprint(cycle_stats), fingerprint(local_stats));
    EXPECT_EQ(cycle_json, local_json)
        << "engines emitted different series at interval " << interval;
    EXPECT_NE(cycle_json.find("\"samples\""), std::string::npos);
}

// 1: every cycle is a boundary (warmup rebase coincides with one).
// 97: prime, so boundaries land mid-burst and mid-bus-transfer.
// 1<<30: longer than the run; only finish()'s partial row remains.
INSTANTIATE_TEST_SUITE_P(Intervals, TimeseriesEngineIdentity,
                         ::testing::Values(Cycle{1}, Cycle{97},
                                           Cycle{1} << 30));

TEST(TimeseriesSampling, DoesNotPerturbSimulation)
{
    const ParallelTrace trace = smallWorkload(Strategy::PWS);
    SimConfig cfg;
    cfg.timing.dataTransfer = 8;

    for (const SimEngine engine :
         {SimEngine::CycleLoop, SimEngine::LocalClock}) {
        SimConfig plain = cfg;
        plain.engine = engine;
        const std::string off = fingerprint(simulate(trace, plain));
        for (const Cycle interval : {Cycle{1}, Cycle{113}}) {
            const auto [stats, json] =
                runSampled(trace, cfg, engine, interval);
            EXPECT_EQ(off, fingerprint(stats))
                << "sampling at interval " << interval
                << " changed the simulation";
        }
    }
}

/* ------------------------------------------------------------------ */
/* IntervalSampler unit tests                                          */
/* ------------------------------------------------------------------ */

SampleFrame
frameAt(Cycle cycle, Cycle busBusy, unsigned procs = 1)
{
    SampleFrame f;
    f.cycle = cycle;
    f.busBusy = busBusy;
    f.procs.resize(procs);
    return f;
}

TEST(IntervalSamplerUnit, FinishEmitsThePartialTail)
{
    IntervalSampler s(100, 1, "t");
    s.sample(frameAt(100, 40));
    s.finish(frameAt(130, 52)); // 30-cycle tail.
    const TimeSeries ts = s.take();
    ASSERT_EQ(ts.samples(), 2u);
    EXPECT_EQ(ts.cycle.back(), 130u);
    EXPECT_EQ(ts.window.back(), 30u);
    EXPECT_EQ(ts.busBusy.back(), 12u);
    EXPECT_DOUBLE_EQ(ts.busUtil.back(), 12.0 / 30.0);
}

TEST(IntervalSamplerUnit, IntervalLongerThanRunYieldsOneRow)
{
    IntervalSampler s(1000000, 2, "t");
    EXPECT_EQ(s.nextSampleCycle(), 1000000u);
    s.finish(frameAt(777, 300, 2));
    const TimeSeries ts = s.take();
    ASSERT_EQ(ts.samples(), 1u);
    EXPECT_EQ(ts.cycle[0], 777u);
    EXPECT_EQ(ts.window[0], 777u);
    ASSERT_EQ(ts.perProc.size(), 2u);
    EXPECT_EQ(ts.perProc[0].busy.size(), 1u);
}

TEST(IntervalSamplerUnit, WindowsTileTheRun)
{
    IntervalSampler s(50, 1, "t");
    for (Cycle c = 50; c <= 200; c += 50)
        s.sample(frameAt(c, c / 2));
    s.finish(frameAt(233, 120));
    const TimeSeries ts = s.take();
    ASSERT_EQ(ts.samples(), 5u);
    Cycle covered = 0;
    for (const Cycle w : ts.window)
        covered += w;
    EXPECT_EQ(covered, 233u); // No warmup: windows cover the full run.
}

TEST(IntervalSamplerUnit, RebaseShrinksTheNextWindow)
{
    IntervalSampler s(100, 1, "t");
    s.sample(frameAt(100, 10));
    // Warmup reset at cycle 160: the 200-boundary row measures
    // [160, 200) only, and busy cycles restart from the rebase frame.
    s.rebase(frameAt(160, 90), 160);
    s.sample(frameAt(200, 102));
    const TimeSeries ts = s.take();
    ASSERT_EQ(ts.samples(), 2u);
    EXPECT_EQ(ts.warmupEnd, 160u);
    EXPECT_EQ(ts.window.back(), 40u);
    EXPECT_EQ(ts.busBusy.back(), 12u);
}

TEST(IntervalSamplerUnit, BoundaryOnRebasePointSkipsTheRow)
{
    IntervalSampler s(100, 1, "t");
    s.sample(frameAt(100, 10));
    s.rebase(frameAt(200, 80), 200);
    s.sample(frameAt(200, 80)); // Zero-width window: no row...
    EXPECT_EQ(s.nextSampleCycle(), 300u); // ...but the grid advances.
    s.sample(frameAt(300, 110));
    const TimeSeries ts = s.take();
    ASSERT_EQ(ts.samples(), 2u);
    EXPECT_EQ(ts.cycle.back(), 300u);
    EXPECT_EQ(ts.window.back(), 100u);
    EXPECT_EQ(ts.busBusy.back(), 30u);
}

/* ------------------------------------------------------------------ */
/* Perf-compare golden cases                                           */
/* ------------------------------------------------------------------ */

std::string
benchDoc(double fig2_sim_s, double micro_sim_s, double fig2_speedup = 2.0,
         double micro_speedup = 2.0)
{
    // The speedups precede "runs" so truncating the runs object keeps
    // them (MissingRunAndBadSchemaAreErrors).
    std::ostringstream os;
    os << "{\"schema\":\"prefsim-bench-simcore-v1\","
          "\"bench\":\"bench_fig2_exec_time\",\"refs_per_proc\":1000,"
          "\"speedup_fig2_sim\":"
       << fig2_speedup << ",\"speedup_micro3_sim\":" << micro_speedup
       << ",\"runs\":{"
          "\"fig2_local\":{\"engine\":\"local\",\"procs\":16,"
          "\"wall_s\":1.0,\"sim_only_s\":"
       << fig2_sim_s
       << ",\"sim_cycles\":1000000,\"sim_refs\":500000,"
          "\"cycles_per_s\":1,\"refs_per_s\":1},"
          "\"micro3_local\":{\"engine\":\"local\",\"procs\":3,"
          "\"wall_s\":1.0,\"sim_only_s\":"
       << micro_sim_s
       << ",\"sim_cycles\":1000000,\"sim_refs\":500000,"
          "\"cycles_per_s\":1,\"refs_per_s\":1}}}";
    return os.str();
}

TEST(PerfCompare, IdenticalReportsPassClean)
{
    const std::string doc = benchDoc(1.0, 1.0);
    const report::CompareReport cmp =
        report::compareBenchReports(doc, doc, {});
    EXPECT_TRUE(cmp.findings.empty());
    ASSERT_EQ(cmp.rows.size(), 2u);
    ASSERT_EQ(cmp.speedups.size(), 2u);
    EXPECT_EQ(cmp.speedups[0].key, "speedup_fig2_sim");
    EXPECT_EQ(verify::findingsExitCode(cmp.findings), verify::kExitOk);
}

TEST(PerfCompare, TenPercentRegressionFailsTheGate)
{
    // The fig2 engine speedup falls 2.0 -> 1.7 = -15 %: past failFrac.
    const report::CompareReport cmp = report::compareBenchReports(
        benchDoc(1.0, 1.0), benchDoc(1.0, 1.0, 1.7), {});
    ASSERT_EQ(cmp.findings.size(), 1u);
    EXPECT_EQ(cmp.findings[0].rule, "perf.regression");
    EXPECT_EQ(cmp.findings[0].location, "speedup_fig2_sim");
    EXPECT_EQ(cmp.findings[0].severity, verify::Severity::Error);
    EXPECT_EQ(verify::findingsExitCode(cmp.findings),
              verify::kExitViolations);
}

TEST(PerfCompare, SmallDipOnlyWarns)
{
    // Throughput 1.0 -> 1/1.06 ≈ -5.7 %: absolute throughput only warns.
    const report::CompareReport cmp = report::compareBenchReports(
        benchDoc(1.0, 1.0), benchDoc(1.06, 1.0), {});
    ASSERT_EQ(cmp.findings.size(), 1u);
    EXPECT_EQ(cmp.findings[0].rule, "perf.throughput");
    EXPECT_EQ(cmp.findings[0].severity, verify::Severity::Warning);
    EXPECT_EQ(verify::findingsExitCode(cmp.findings), verify::kExitOk);

    // A speedup dip between warnFrac and failFrac (-5 %) warns as well.
    const report::CompareReport ratio = report::compareBenchReports(
        benchDoc(1.0, 1.0), benchDoc(1.0, 1.0, 2.0, 1.9), {});
    ASSERT_EQ(ratio.findings.size(), 1u);
    EXPECT_EQ(ratio.findings[0].rule, "perf.regression");
    EXPECT_EQ(ratio.findings[0].severity, verify::Severity::Warning);
}

TEST(PerfCompare, HostDriftOnlyWarns)
{
    // Every run 1.5x slower (a slower host) with unchanged engine
    // speedups: one warning per run, and the gate passes.
    const report::CompareReport cmp = report::compareBenchReports(
        benchDoc(1.0, 1.0), benchDoc(1.5, 1.5), {});
    ASSERT_EQ(cmp.findings.size(), 2u);
    for (const verify::Finding &f : cmp.findings) {
        EXPECT_EQ(f.rule, "perf.throughput");
        EXPECT_EQ(f.severity, verify::Severity::Warning);
    }
    EXPECT_EQ(verify::findingsExitCode(cmp.findings), verify::kExitOk);
}

TEST(PerfCompare, SpeedupIsNotARegression)
{
    const report::CompareReport cmp = report::compareBenchReports(
        benchDoc(1.2, 1.0), benchDoc(1.0, 1.0, 2.4, 2.2), {});
    EXPECT_TRUE(cmp.findings.empty());
    ASSERT_EQ(cmp.speedups.size(), 2u);
    EXPECT_NEAR(cmp.speedups[0].delta, 0.2, 1e-9);
}

TEST(PerfCompare, MissingRunAndBadSchemaAreErrors)
{
    const std::string base = benchDoc(1.0, 1.0);
    std::string fresh = base;
    const std::size_t micro = fresh.find(",\"micro3_local\"");
    ASSERT_NE(micro, std::string::npos);
    fresh.resize(micro);
    fresh += "}}";
    const report::CompareReport cmp =
        report::compareBenchReports(base, fresh, {});
    ASSERT_EQ(cmp.findings.size(), 1u);
    EXPECT_EQ(cmp.findings[0].rule, "perf.missing_run");
    EXPECT_TRUE(verify::anyError(cmp.findings));

    const report::CompareReport bad =
        report::compareBenchReports("{\"schema\":\"wrong\"}", base, {});
    ASSERT_FALSE(bad.findings.empty());
    EXPECT_EQ(bad.findings[0].rule, "perf.schema");
    EXPECT_EQ(verify::findingsExitCode(bad.findings),
              verify::kExitViolations);
}

TEST(PerfCompare, MissingSpeedupIsAnError)
{
    const std::string base = benchDoc(1.0, 1.0);
    std::string fresh = base;
    const std::string key = "\"speedup_micro3_sim\":2,";
    const std::size_t at = fresh.find(key);
    ASSERT_NE(at, std::string::npos) << fresh;
    fresh.erase(at, key.size());
    const report::CompareReport cmp =
        report::compareBenchReports(base, fresh, {});
    ASSERT_EQ(cmp.findings.size(), 1u);
    EXPECT_EQ(cmp.findings[0].rule, "perf.missing_run");
    EXPECT_EQ(verify::findingsExitCode(cmp.findings),
              verify::kExitViolations);

    // A baseline without speedups has nothing to gate on: a warning.
    std::string bare = base;
    const std::size_t first = bare.find("\"speedup_fig2_sim\"");
    bare.erase(first, bare.find("\"runs\"") - first);
    const report::CompareReport ungated =
        report::compareBenchReports(bare, base, {});
    ASSERT_EQ(ungated.findings.size(), 1u);
    EXPECT_EQ(ungated.findings[0].rule, "perf.config");
    EXPECT_EQ(verify::findingsExitCode(ungated.findings), verify::kExitOk);
}

TEST(PerfCompare, ThresholdsAreConfigurable)
{
    report::CompareOptions opts;
    opts.warnFrac = 0.001;
    opts.failFrac = 0.03;
    // A -6 % engine-speedup dip only warns by default ...
    const report::CompareReport lax = report::compareBenchReports(
        benchDoc(1.0, 1.0), benchDoc(1.0, 1.0, 1.88), {});
    ASSERT_EQ(lax.findings.size(), 1u);
    EXPECT_EQ(lax.findings[0].severity, verify::Severity::Warning);
    // ... and fails a 3 % gate.
    const report::CompareReport cmp = report::compareBenchReports(
        benchDoc(1.0, 1.0), benchDoc(1.0, 1.0, 1.88), opts);
    ASSERT_EQ(cmp.findings.size(), 1u);
    EXPECT_EQ(cmp.findings[0].severity, verify::Severity::Error);
}

} // namespace
} // namespace prefsim
