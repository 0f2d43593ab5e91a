/**
 * @file
 * Tests for the address-level contention attribution profiler.
 *
 * Three contracts are enforced here:
 *
 *  - neutrality: turning profiling on must not change simulation
 *    results by a single bit (the profiler only observes);
 *  - engine identity: the serialised `prefsim-profile-v1` document
 *    must be byte-identical across the cycle and local engines for
 *    every generator × strategy — this is what forces the local-clock
 *    core's deferred quiet replay (and the prefetch first uses it
 *    reaches) to attribute correctly;
 *  - aggregate consistency: the profile totals (the sum of the
 *    per-line rows) must reproduce the run's Table 3 aggregates —
 *    miss taxonomy, false sharing, prefetch issues and data-bus
 *    occupancy.
 *
 * Plus the sweep-layer satellite: cache-hit points must appear as
 * explicit `"skipped": "cache-hit"` marker runs, not silently vanish.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "core/sweep.hh"
#include "obs/obs.hh"
#include "prefetch/inserter.hh"
#include "sim/simulator.hh"
#include "trace/workload.hh"

namespace prefsim
{
namespace
{

/** Serialize the statistics fields the engines guarantee bit-identical
 *  (the test_simcore.cc fingerprint, abbreviated). */
std::string
statsFingerprint(const SimStats &s)
{
    std::ostringstream os;
    os << "cycles=" << s.cycles << " bus=" << s.bus.busyCycles
       << " qw=" << s.bus.queueWaitDemand << ','
       << s.bus.queueWaitPrefetch << '\n';
    for (std::size_t p = 0; p < s.procs.size(); ++p) {
        const ProcStats &ps = s.procs[p];
        const MissBreakdown &m = ps.misses;
        os << p << ":" << ps.busy << ',' << ps.stallDemand << ','
           << ps.stallUpgrade << ',' << ps.stallPrefetchQueue << ','
           << ps.spinLock << ',' << ps.waitBarrier << ','
           << ps.demandRefs << ',' << ps.prefetchMisses << '|'
           << m.nonSharingNotPrefetched << ',' << m.nonSharingPrefetched
           << ',' << m.invalNotPrefetched << ',' << m.invalPrefetched
           << ',' << m.prefetchInProgress << ',' << m.falseSharing
           << '\n';
    }
    return os.str();
}

/** One profiled run: returns the serialised profile document and, when
 *  asked, the stats fingerprint and the committed ProfileRun. */
std::string
profiledRun(const ParallelTrace &trace, SimConfig cfg, SimEngine engine,
            std::string *stats_fp = nullptr,
            obs::ProfileRun *run_out = nullptr)
{
    ObsContext obs;
    cfg.engine = engine;
    cfg.obs = &obs;
    cfg.profile = true;
    cfg.traceLabel = "profiled";
    const SimStats stats = simulate(trace, cfg);
    if (stats_fp)
        *stats_fp = statsFingerprint(stats);
    if (run_out) {
        const std::vector<obs::ProfileRun> runs =
            obs.profile.snapshot();
        EXPECT_EQ(runs.size(), 1u);
        if (!runs.empty())
            *run_out = runs.front();
    }
    std::ostringstream os;
    obs.profile.writeJson(os);
    return os.str();
}

/* ------------------------------------------------------------------ */
/* Cross-engine identity and on/off neutrality                         */
/* ------------------------------------------------------------------ */

class ProfileDifferential
    : public ::testing::TestWithParam<std::tuple<WorkloadKind, Strategy>>
{
};

TEST_P(ProfileDifferential, ByteIdenticalAcrossEngines)
{
    const auto [kind, strategy] = GetParam();
    WorkloadParams p;
    p.numProcs = 4;
    p.refsPerProc = 4000;
    p.seed = 2026;
    const ParallelTrace trace = generateWorkload(kind, p);
    const AnnotatedTrace ann =
        annotateTrace(trace, strategy, CacheGeometry::paperDefault());
    SimConfig cfg;
    cfg.timing.dataTransfer = 8;

    const std::string what =
        workloadName(kind) + "/" +
        std::to_string(static_cast<int>(strategy));

    // Neutrality: profiling on must not perturb the simulation.
    SimConfig plain = cfg;
    plain.engine = SimEngine::CycleLoop;
    const std::string off = statsFingerprint(simulate(ann.trace, plain));

    std::string on;
    const std::string oracle = profiledRun(
        ann.trace, cfg, SimEngine::CycleLoop, &on);
    EXPECT_EQ(off, on) << what << " [profiling changed the simulation]";

    // Identity: same profile bytes from both engines.
    EXPECT_EQ(oracle, profiledRun(ann.trace, cfg, SimEngine::LocalClock))
        << what << " [local]";
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, ProfileDifferential,
    ::testing::Combine(::testing::Values(WorkloadKind::Topopt,
                                         WorkloadKind::Pverify,
                                         WorkloadKind::LocusRoute,
                                         WorkloadKind::Mp3d,
                                         WorkloadKind::Water),
                       ::testing::Values(Strategy::NP, Strategy::PREF,
                                         Strategy::PWS)));

/* ------------------------------------------------------------------ */
/* Aggregate consistency: Σ per-line rows == Table 3 aggregates        */
/* ------------------------------------------------------------------ */

TEST(ProfileAggregates, LinesSumToRunAggregates)
{
    WorkloadParams p;
    p.numProcs = 4;
    p.refsPerProc = 4000;
    p.seed = 2026;
    for (const Strategy strategy : {Strategy::NP, Strategy::PREF,
                                    Strategy::PWS}) {
        const ParallelTrace trace =
            generateWorkload(WorkloadKind::Mp3d, p);
        const AnnotatedTrace ann = annotateTrace(
            trace, strategy, CacheGeometry::paperDefault());

        ObsContext obs;
        SimConfig cfg;
        cfg.timing.dataTransfer = 8;
        cfg.engine = SimEngine::CycleLoop;
        cfg.obs = &obs;
        cfg.profile = true;
        const SimStats stats = simulate(ann.trace, cfg);

        const std::vector<obs::ProfileRun> runs =
            obs.profile.snapshot();
        ASSERT_EQ(runs.size(), 1u);
        const obs::ProfileTotals t = obs::ProfileTotals::of(runs[0]);

        std::uint64_t misses = 0, inval = 0, fals = 0, pf_issued = 0;
        for (const ProcStats &ps : stats.procs) {
            const MissBreakdown &m = ps.misses;
            misses += m.nonSharingNotPrefetched +
                      m.nonSharingPrefetched + m.invalNotPrefetched +
                      m.invalPrefetched + m.prefetchInProgress;
            inval += m.invalNotPrefetched + m.invalPrefetched;
            fals += m.falseSharing;
            pf_issued += ps.prefetchMisses;
        }
        const std::string what =
            "strategy " + std::to_string(static_cast<int>(strategy));
        EXPECT_EQ(t.misses, misses) << what;
        EXPECT_EQ(t.missInvalidation, inval) << what;
        EXPECT_EQ(t.missFalseSharing, fals) << what;
        EXPECT_EQ(t.pfIssued, pf_issued) << what;
        // Every data-bus busy cycle is attributed to exactly one line.
        EXPECT_EQ(t.busCycles, stats.bus.busyCycles) << what;
        if (strategy == Strategy::NP) {
            EXPECT_EQ(t.pfIssued, 0u) << what;
            EXPECT_EQ(t.busCyclesPrefetch, 0u) << what;
        } else {
            // No issued-vs-outcomes inequality here: a prefetch issued
            // before the warmup statistics reset can be used or killed
            // after it, so outcomes may slightly exceed issues (the
            // same boundary semantics SimStats uses).
            EXPECT_GT(t.pfIssued, 0u) << what;
            EXPECT_GT(t.pfUseful, 0u) << what;
        }
    }
}

/* ------------------------------------------------------------------ */
/* Sweep layer: cache hits leave explicit skip markers                 */
/* ------------------------------------------------------------------ */

TEST(ProfileSweep, CacheHitLeavesSkipMarker)
{
    namespace fs = std::filesystem;
    const fs::path cache_dir =
        fs::path(::testing::TempDir()) / "prefsim_profile_cache";
    fs::remove_all(cache_dir);

    WorkloadParams p = defaultWorkloadParams();
    p.numProcs = 4;
    p.refsPerProc = 2000;
    SweepOptions options;
    options.cacheDir = cache_dir.string();
    options.profile = true;
    options.sampleInterval = 5000;

    std::string fresh_doc;
    {
        SweepEngine engine(p, CacheGeometry::paperDefault(), options);
        engine.enqueue(WorkloadKind::Mp3d, false, Strategy::PWS, 8);
        engine.runPending();
        EXPECT_EQ(engine.counters().cacheHits, 0u);
        std::ostringstream os;
        engine.writeProfileJson(os);
        fresh_doc = os.str();
    }
    EXPECT_NE(fresh_doc.find("\"lines\""), std::string::npos);
    EXPECT_EQ(fresh_doc.find("cache-hit"), std::string::npos);

    // Second engine over the same cache: the point is a hit, and both
    // per-run documents must record that explicitly.
    SweepEngine engine(p, CacheGeometry::paperDefault(), options);
    engine.enqueue(WorkloadKind::Mp3d, false, Strategy::PWS, 8);
    engine.runPending();
    EXPECT_EQ(engine.counters().cacheHits, 1u);
    std::ostringstream profile_os, series_os;
    engine.writeProfileJson(profile_os);
    engine.writeTimeseriesJson(series_os);
    EXPECT_NE(profile_os.str().find("\"skipped\":\"cache-hit\""),
              std::string::npos);
    EXPECT_NE(series_os.str().find("\"skipped\":\"cache-hit\""),
              std::string::npos);

    fs::remove_all(cache_dir);
}

} // namespace
} // namespace prefsim
