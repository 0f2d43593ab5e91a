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
 * explicit `"skipped": "cache-hit"` marker runs, not silently vanish;
 * and a differential of the profiler's flat line table against a
 * reference accumulator built on std::map, over random event streams.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/sweep.hh"
#include "obs/event.hh"
#include "obs/obs.hh"
#include "prefetch/inserter.hh"
#include "sim/simulator.hh"
#include "sim_fingerprint.hh"
#include "trace/workload.hh"

namespace prefsim
{
namespace
{

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
        *stats_fp = fingerprint(stats);
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
    const std::string off = fingerprint(simulate(ann.trace, plain));

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

/* ------------------------------------------------------------------ */
/* Flat line table vs a std::map reference, on random event streams    */
/* ------------------------------------------------------------------ */

/**
 * The attribution rules of AttributionProfiler::on, accumulated into
 * ordered maps the straightforward way: the reference the flat table
 * must reproduce byte for byte.
 */
class MapProfile
{
  public:
    void
    on(const obs::Event &e)
    {
        using obs::EventKind;
        switch (e.kind) {
          case EventKind::Miss: {
            obs::ProfileLine &l = line(e.line);
            if (e.invalidation)
                ++(e.prefetchLost ? l.missInvalidationPrefetched
                                  : l.missInvalidation);
            else
                ++(e.prefetchLost ? l.missNonSharingPrefetched
                                  : l.missNonSharing);
            if (e.falseSharing)
                ++l.missFalseSharing;
            return;
          }
          case EventKind::LateAttach:
            ++line(e.line).missPrefetchInflight;
            ++pf(e).late;
            return;
          case EventKind::Invalidate:
            ++line(e.line).invalidations;
            if (e.falseSharing)
                ++line(e.line).invalidationsFalse;
            if (e.killedPrefetch)
                ++pf(e).killed;
            return;
          case EventKind::InflightKill:
            ++line(e.line).inflightKills;
            if (e.killedPrefetch)
                ++pf(e).killed;
            return;
          case EventKind::ParkedKill:
            ++pf(e).killed;
            return;
          case EventKind::Downgrade:
            ++line(e.line).downgrades;
            return;
          case EventKind::PrefetchIssue:
            ++pf(e).issued;
            return;
          case EventKind::PrefetchUseful:
            ++pf(e).useful;
            return;
          case EventKind::Fill:
            if (e.prefetch && e.demand)
                pf(e).latenessCycles += e.cycle - e.aux;
            return;
          case EventKind::Evict:
            if (e.prefetch)
                ++pf(e).displaced;
            return;
          case EventKind::ParkedDisplace:
            ++pf(e).displaced;
            return;
          case EventKind::BusGrant: {
            obs::ProfileLine &l = line(e.line);
            l.busCycles += e.arg;
            if (!e.demand)
                l.busCyclesPrefetch += e.arg;
            ++l.busOps;
            return;
          }
          case EventKind::Warmup:
            lines_.clear();
            pfs_.clear();
            return;
          default:
            return;
        }
    }

    obs::ProfileRun
    run(unsigned procs, const std::string &label, Cycle warmup_end) const
    {
        obs::ProfileRun run;
        run.label = label;
        run.procs = procs;
        run.warmupEnd = warmup_end;
        for (const auto &[addr, l] : lines_) {
            obs::ProfileLine &out = run.lines.emplace_back(l);
            out.addr = addr;
            for (auto it = pfs_.lower_bound({addr, 0});
                 it != pfs_.end() && it->first.first == addr; ++it) {
                out.prefetch.push_back(it->second);
                out.prefetch.back().proc = it->first.second;
            }
        }
        return run;
    }

  private:
    obs::ProfileLine &line(Addr addr) { return lines_[addr]; }
    obs::ProfilePrefetch &
    pf(const obs::Event &e)
    {
        line(e.line);
        return pfs_[{e.line, e.proc}];
    }

    std::map<Addr, obs::ProfileLine> lines_;
    std::map<std::pair<Addr, unsigned>, obs::ProfilePrefetch> pfs_;
};

/** Line addresses (64-byte aligned) whose home slots coincide in every
 *  table of up to 2^@p bits slots: the largest group among many random
 *  candidates sharing the top bits of AttributionProfiler::lineHash. */
std::vector<Addr>
collidingLines(std::mt19937_64 &rng, unsigned bits, std::size_t want)
{
    std::map<std::uint64_t, std::vector<Addr>> groups;
    for (int i = 0; i < (1 << 18); ++i) {
        const Addr a = (rng() % (Addr{1} << 34)) * 64;
        groups[obs::AttributionProfiler::lineHash(a) >> (64 - bits)]
            .push_back(a);
    }
    std::vector<Addr> best;
    for (auto &[home, addrs] : groups) {
        std::sort(addrs.begin(), addrs.end());
        addrs.erase(std::unique(addrs.begin(), addrs.end()), addrs.end());
        if (addrs.size() > best.size())
            best = addrs;
    }
    best.resize(std::min(best.size(), want));
    return best;
}

/** One random event on one of the first @p lines lines of @p pool. */
obs::Event
randomEvent(std::mt19937_64 &rng, const std::vector<Addr> &pool,
            std::size_t lines, unsigned procs, Cycle now)
{
    using obs::EventKind;
    static const EventKind kinds[] = {
        EventKind::Miss,          EventKind::LateAttach,
        EventKind::Invalidate,    EventKind::InflightKill,
        EventKind::ParkedKill,    EventKind::Downgrade,
        EventKind::PrefetchIssue, EventKind::PrefetchUseful,
        EventKind::Fill,          EventKind::Evict,
        EventKind::ParkedDisplace, EventKind::BusGrant,
        // Kinds the profiler ignores.
        EventKind::BusRequest,    EventKind::StallBegin,
    };
    const auto bit = [&rng] { return (rng() & 1) != 0; };
    obs::Event e;
    e.kind = kinds[rng() % std::size(kinds)];
    e.cycle = now;
    e.aux = now - rng() % 200;
    e.arg = static_cast<std::uint32_t>(rng() % 64);
    e.proc = static_cast<ProcId>(rng() % procs);
    e.line = pool[rng() % lines];
    e.demand = bit();
    e.prefetch = bit();
    e.invalidation = bit();
    e.prefetchLost = bit();
    e.falseSharing = bit();
    e.killedPrefetch = bit();
    return e;
}

TEST(ProfileTable, MatchesMapReferenceOnRandomStreams)
{
    constexpr unsigned kProcs = 6;
    // The warmup window touches 700 lines and grows the line table
    // from 2^10 slots (at most half full) to 2^11; the Warmup clears
    // it, and the measured window's 2500 lines grow it on to 2^13.
    constexpr std::size_t kWarmupLines = 700;
    constexpr std::size_t kLines = 2500;
    constexpr unsigned kGrownBits =
        kFlatTableInitialLog2Slots + 3;
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
        std::mt19937_64 rng(seed);
        // A group that collides in every table size comes first, so
        // both windows draw from it.
        std::vector<Addr> pool = collidingLines(rng, kGrownBits, 48);
        ASSERT_GE(pool.size(), 16u);
        while (pool.size() < kLines)
            pool.push_back((rng() % (Addr{1} << 34)) * 64);

        obs::AttributionProfiler table(kProcs, "random");
        MapProfile reference;
        const auto feed = [&](const obs::Event &e) {
            table.on(e);
            reference.on(e);
        };
        Cycle now = 1000;
        for (int i = 0; i < 10000; ++i) {
            feed(randomEvent(rng, pool, kWarmupLines, kProcs,
                             now += rng() % 4));
        }
        const Cycle warmup_end = now;
        feed(obs::Event{.kind = obs::EventKind::Warmup, .cycle = now});
        for (int i = 0; i < 40000; ++i)
            feed(randomEvent(rng, pool, kLines, kProcs, now += rng() % 4));

        const obs::ProfileRun got = table.take(warmup_end);
        // The measured window must outgrow the warmup's table.
        ASSERT_GT(got.lines.size(), 2048u);
        const auto json = [](const obs::ProfileRun &run) {
            std::ostringstream os;
            JsonWriter j(os);
            obs::writeRunJson(j, run);
            return os.str();
        };
        EXPECT_EQ(json(got),
                  json(reference.run(kProcs, "random", warmup_end)))
            << "seed " << seed;
    }
}

} // namespace
} // namespace prefsim
