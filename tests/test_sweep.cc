/**
 * @file
 * Tests for the parallel sweep engine: bit-identical parallel
 * execution vs. the uncached runExperiment(), the on-disk result cache
 * (hit/resume/corruption), the ExperimentResult JSON round-trip, and
 * the thread pool underneath.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>

#include "core/result_io.hh"
#include "core/sweep.hh"
#include "common/thread_pool.hh"
#include "stats/json.hh"

namespace prefsim
{
namespace
{

namespace fs = std::filesystem;

WorkloadParams
tinyParams()
{
    WorkloadParams p;
    p.numProcs = 4;
    p.refsPerProc = 8000;
    p.seed = 5;
    return p;
}

const std::vector<WorkloadKind> kGridWorkloads = {
    WorkloadKind::Topopt, WorkloadKind::Mp3d, WorkloadKind::Water};
const std::vector<Strategy> kGridStrategies = {
    Strategy::NP, Strategy::PREF, Strategy::PWS};
const std::vector<Cycle> kGridTransfers = {4, 32};

/** Serialise a result exactly as the disk cache would. */
std::string
serialize(const ExperimentResult &r, const std::string &key)
{
    std::ostringstream os;
    writeResultJson(os, r, key);
    return os.str();
}

/** A fresh, empty per-test scratch directory under the gtest tmpdir. */
fs::path
scratchDir(const std::string &name)
{
    const fs::path dir = fs::path(testing::TempDir()) / name;
    fs::remove_all(dir);
    return dir;
}

TEST(ThreadPool, RunsEverySubmittedTask)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&count] { ++count; });
    pool.waitAll();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, TasksCanSubmitTasks)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 10; ++i) {
        pool.submit([&] {
            ++count;
            pool.submit([&count] { ++count; });
        });
    }
    pool.waitAll();
    EXPECT_EQ(count.load(), 20);
}

TEST(ThreadPool, ResolveThreads)
{
    EXPECT_EQ(ThreadPool::resolveThreads(3), 3u);
    EXPECT_GE(ThreadPool::resolveThreads(0), 1u);
}

/** 3 workloads x 3 strategies x 2 latencies on 8 workers must
 *  serialise byte-identically to the uncached reference path. (The
 *  name predates runExperiment() as the reference.) */
TEST(SweepEngine, ParallelMatchesSerialWorkbenchByteForByte)
{
    SweepOptions opts;
    opts.jobs = 8;
    SweepEngine engine(tinyParams(), CacheGeometry::paperDefault(), opts);
    engine.enqueueGrid(kGridWorkloads, {false}, kGridStrategies,
                       kGridTransfers);
    engine.runPending();

    for (WorkloadKind w : kGridWorkloads) {
        for (Strategy s : kGridStrategies) {
            for (Cycle t : kGridTransfers) {
                const ExperimentSpec spec = engine.makeSpec(w, false, s, t);
                const std::string key = experimentCacheKey(spec);
                const ExperimentResult &par = engine.run(spec);
                const ExperimentResult ser = runExperiment(spec);
                EXPECT_EQ(serialize(par, key), serialize(ser, key))
                    << par.spec.label();
            }
        }
    }
    // 18 grid points share 3 traces and 9 annotated traces.
    EXPECT_EQ(engine.counters().tracesGenerated, 3u);
    EXPECT_EQ(engine.counters().annotationsRun, 9u);
    EXPECT_EQ(engine.counters().simulationsRun, 18u);
}

TEST(SweepEngine, RelativeExecTimeMatchesWorkbench)
{
    SweepOptions opts;
    opts.jobs = 4;
    SweepEngine engine(tinyParams(), CacheGeometry::paperDefault(), opts);
    const ExperimentResult np = runExperiment(
        engine.makeSpec(WorkloadKind::Mp3d, false, Strategy::NP, 8));
    const ExperimentResult pref = runExperiment(
        engine.makeSpec(WorkloadKind::Mp3d, false, Strategy::PREF, 8));
    EXPECT_DOUBLE_EQ(
        engine.relativeExecTime(WorkloadKind::Mp3d, false, Strategy::PREF,
                                8),
        static_cast<double>(pref.sim.cycles) /
            static_cast<double>(np.sim.cycles));
}

/** An engine with profile, critical path and interval sampling on,
 *  every annotation of the test grid already in memory, and the grid
 *  run at @p jobs workers. */
std::unique_ptr<SweepEngine>
preAnnotatedGrid(unsigned jobs)
{
    SweepOptions opts;
    opts.jobs = jobs;
    opts.profile = true;
    opts.critpath = true;
    opts.sampleInterval = 5000;
    auto engine = std::make_unique<SweepEngine>(
        tinyParams(), CacheGeometry::paperDefault(), opts);
    for (WorkloadKind w : kGridWorkloads) {
        for (Strategy s : kGridStrategies)
            engine->annotated(w, false, s);
    }
    engine->enqueueGrid(kGridWorkloads, {false}, kGridStrategies,
                        kGridTransfers);
    engine->runPending();
    return engine;
}

/** The most records one processor of @p trace holds. */
std::size_t
longestStream(const ParallelTrace &trace)
{
    std::size_t most = 0;
    for (const Trace &t : trace.procs)
        most = std::max(most, t.size());
    return most;
}

TEST(SweepOrder, ReadySimulationsStartLongestFirst)
{
    // One worker runs the tasks in submission order, so the profile
    // store's commit order is the start order. The key is the longest
    // stream of each materialized annotation, the copy the engine held
    // before annotations became views, so the order is the one it had.
    const std::unique_ptr<SweepEngine> engine = preAnnotatedGrid(1);
    std::vector<std::pair<std::size_t, std::string>> grid;
    for (WorkloadKind w : kGridWorkloads) {
        for (Strategy s : kGridStrategies) {
            const std::size_t len = longestStream(
                annotateTrace(engine->baseTrace(w, false), s,
                              engine->geometry())
                    .trace);
            for (Cycle t : kGridTransfers)
                grid.push_back({len, engine->makeSpec(w, false, s, t).label()});
        }
    }
    std::stable_sort(grid.begin(), grid.end(),
                     [](const auto &a, const auto &b) {
                         return a.first > b.first;
                     });
    std::vector<std::string> want;
    for (const auto &g : grid)
        want.push_back(g.second);
    // The grid's own order is not already longest-first.
    std::vector<std::string> grid_order;
    for (WorkloadKind w : kGridWorkloads) {
        for (Strategy s : kGridStrategies) {
            for (Cycle t : kGridTransfers)
                grid_order.push_back(engine->makeSpec(w, false, s, t).label());
        }
    }
    ASSERT_NE(want, grid_order);

    std::vector<std::string> committed;
    for (const obs::ProfileRun &run : engine->obs()->profile.snapshot())
        committed.push_back(run.label);
    EXPECT_EQ(committed, want);
}

TEST(SweepOrder, ViewCountsAreMaterializedSizes)
{
    // The start-order key counts a view's records from its placements;
    // on every generated trace it must be the materialized size.
    WorkloadParams params = tinyParams();
    for (const unsigned procs : {4u, 16u}) {
        params.numProcs = procs;
        SweepEngine engine(params);
        for (WorkloadKind w : allWorkloads()) {
            for (const bool restructured : {false, true}) {
                if (restructured && !hasRestructuredVariant(w))
                    continue;
                for (Strategy s : allStrategies()) {
                    const TraceView &view =
                        engine.annotated(w, restructured, s).trace;
                    const ParallelTrace copy = view.materialize();
                    for (std::size_t p = 0; p < procs; ++p) {
                        EXPECT_EQ(view.streamSize(p), copy.procs[p].size())
                            << workloadName(w) << (restructured ? "-r/" : "/")
                            << strategyName(s) << " proc " << p;
                    }
                }
            }
        }
    }
}

TEST(SweepOrder, WorkerCountChangesNoOutput)
{
    const std::unique_ptr<SweepEngine> serial = preAnnotatedGrid(1);
    const std::unique_ptr<SweepEngine> parallel = preAnnotatedGrid(4);
    for (WorkloadKind w : kGridWorkloads) {
        for (Strategy s : kGridStrategies) {
            for (Cycle t : kGridTransfers) {
                const ExperimentSpec spec = serial->makeSpec(w, false, s, t);
                const std::string key = experimentCacheKey(spec);
                EXPECT_EQ(serialize(serial->run(spec), key),
                          serialize(parallel->run(spec), key))
                    << spec.label();
            }
        }
    }
    const auto doc = [](const SweepEngine &e,
                        void (SweepEngine::*write)(std::ostream &) const) {
        std::ostringstream os;
        (e.*write)(os);
        return os.str();
    };
    for (const auto write :
         {&SweepEngine::writeProfileJson, &SweepEngine::writeCritPathJson,
          &SweepEngine::writeTimeseriesJson}) {
        const std::string want = doc(*serial, write);
        EXPECT_GT(want.size(), 1000u);
        EXPECT_EQ(doc(*parallel, write), want);
    }
}

TEST(SweepEngine, SecondRunIsServedEntirelyFromDisk)
{
    const fs::path dir = scratchDir("sweep_cache_hit");
    SweepOptions opts;
    opts.jobs = 4;
    opts.cacheDir = dir.string();

    SweepEngine first(tinyParams(), CacheGeometry::paperDefault(), opts);
    first.enqueueGrid({WorkloadKind::Water}, {false}, kGridStrategies,
                      kGridTransfers);
    first.runPending();
    EXPECT_EQ(first.counters().simulationsRun, 6u);
    EXPECT_EQ(first.counters().cacheStores, 6u);

    SweepEngine second(tinyParams(), CacheGeometry::paperDefault(), opts);
    second.enqueueGrid({WorkloadKind::Water}, {false}, kGridStrategies,
                       kGridTransfers);
    second.runPending();
    EXPECT_EQ(second.counters().simulationsRun, 0u);
    EXPECT_EQ(second.counters().tracesGenerated, 0u);
    EXPECT_EQ(second.counters().annotationsRun, 0u);
    EXPECT_EQ(second.counters().cacheHits, 6u);

    // And the cached results equal the computed ones byte-for-byte.
    for (Strategy s : kGridStrategies) {
        for (Cycle t : kGridTransfers) {
            const std::string key = experimentCacheKey(
                first.makeSpec(WorkloadKind::Water, false, s, t));
            EXPECT_EQ(
                serialize(second.run(WorkloadKind::Water, false, s, t),
                          key),
                serialize(first.run(WorkloadKind::Water, false, s, t),
                          key));
        }
    }
    fs::remove_all(dir);
}

TEST(SweepEngine, TruncatedCacheFileIsDetectedAndRecomputed)
{
    const fs::path dir = scratchDir("sweep_cache_corrupt");
    SweepOptions opts;
    opts.cacheDir = dir.string();

    SweepEngine first(tinyParams(), CacheGeometry::paperDefault(), opts);
    const ExperimentResult &good =
        first.run(WorkloadKind::Mp3d, false, Strategy::PREF, 8);
    const std::string key = experimentCacheKey(
        first.makeSpec(WorkloadKind::Mp3d, false, Strategy::PREF, 8));
    const std::string full = serialize(good, key);

    // Truncate the cache file mid-document.
    const fs::path file = dir / cacheFileName(key);
    ASSERT_TRUE(fs::exists(file));
    {
        std::ofstream out(file, std::ios::binary | std::ios::trunc);
        out << full.substr(0, full.size() / 2);
    }

    SweepEngine second(tinyParams(), CacheGeometry::paperDefault(), opts);
    const ExperimentResult &redone =
        second.run(WorkloadKind::Mp3d, false, Strategy::PREF, 8);
    EXPECT_EQ(second.counters().cacheRejected, 1u);
    EXPECT_EQ(second.counters().cacheHits, 0u);
    EXPECT_EQ(second.counters().simulationsRun, 1u);
    EXPECT_EQ(serialize(redone, key), full);

    // The recompute repaired the file on disk.
    SweepEngine third(tinyParams(), CacheGeometry::paperDefault(), opts);
    third.run(WorkloadKind::Mp3d, false, Strategy::PREF, 8);
    EXPECT_EQ(third.counters().cacheHits, 1u);
    EXPECT_EQ(third.counters().simulationsRun, 0u);
    fs::remove_all(dir);
}

TEST(SweepEngine, CacheEntryWithWrappedCounterIsRecomputed)
{
    // "-1" used to wrap to 2^64 - 1 and load as a cache hit.
    const fs::path dir = scratchDir("sweep_cache_negative");
    SweepOptions opts;
    opts.cacheDir = dir.string();

    SweepEngine first(tinyParams(), CacheGeometry::paperDefault(), opts);
    const ExperimentResult &good =
        first.run(WorkloadKind::Mp3d, false, Strategy::PREF, 8);
    const std::string key = experimentCacheKey(
        first.makeSpec(WorkloadKind::Mp3d, false, Strategy::PREF, 8));
    std::string text = serialize(good, key);
    const std::size_t at = text.find("\"cycles\":") + 9;
    text = text.substr(0, at) + "-1" + text.substr(text.find(',', at));
    {
        std::ofstream out(dir / cacheFileName(key),
                          std::ios::binary | std::ios::trunc);
        out << text;
    }

    SweepEngine second(tinyParams(), CacheGeometry::paperDefault(), opts);
    const ExperimentResult &redone =
        second.run(WorkloadKind::Mp3d, false, Strategy::PREF, 8);
    EXPECT_EQ(second.counters().cacheRejected, 1u);
    EXPECT_EQ(second.counters().simulationsRun, 1u);
    EXPECT_EQ(redone.sim.cycles, good.sim.cycles);
    fs::remove_all(dir);
}

TEST(SweepEngine, CacheFileWithForeignKeyIsRejected)
{
    const fs::path dir = scratchDir("sweep_cache_foreign");
    SweepOptions opts;
    opts.cacheDir = dir.string();

    SweepEngine first(tinyParams(), CacheGeometry::paperDefault(), opts);
    const ExperimentResult &a =
        first.run(WorkloadKind::Water, false, Strategy::NP, 4);
    const std::string key_a = experimentCacheKey(
        first.makeSpec(WorkloadKind::Water, false, Strategy::NP, 4));
    const std::string key_b = experimentCacheKey(
        first.makeSpec(WorkloadKind::Water, false, Strategy::NP, 32));

    // Plant A's document under B's file name (a filename collision).
    {
        std::ofstream out(dir / cacheFileName(key_b), std::ios::binary);
        writeResultJson(out, a, key_a);
    }

    SweepEngine second(tinyParams(), CacheGeometry::paperDefault(), opts);
    second.enqueue(WorkloadKind::Water, false, Strategy::NP, 32);
    second.runPending();
    EXPECT_EQ(second.counters().cacheRejected, 1u);
    EXPECT_EQ(second.counters().simulationsRun, 1u);
    fs::remove_all(dir);
}

TEST(SweepEngine, SpecOverridesProduceDistinctKeys)
{
    SweepEngine engine(tinyParams());
    const ExperimentSpec base =
        engine.makeSpec(WorkloadKind::Mp3d, false, Strategy::PREF, 8);

    ExperimentSpec deeper = base;
    deeper.sim.prefetchBufferDepth = 4;
    ExperimentSpec slower = base;
    StrategyParams sp = strategyParams(Strategy::PREF);
    sp.distanceCycles = 400;
    slower.strategyOverride = sp;

    EXPECT_NE(experimentCacheKey(base), experimentCacheKey(deeper));
    EXPECT_NE(experimentCacheKey(base), experimentCacheKey(slower));
    // The annotation stage is shared when only the simulator differs...
    EXPECT_EQ(annotateStageKey(base), annotateStageKey(deeper));
    // ...but not when the strategy parameters differ.
    EXPECT_NE(annotateStageKey(base), annotateStageKey(slower));
    // The base trace is shared by all three.
    EXPECT_EQ(traceStageKey(base), traceStageKey(slower));
}

TEST(ResultJson, RoundTripIsExact)
{
    ExperimentSpec spec;
    spec.workload = WorkloadKind::Topopt;
    spec.strategy = Strategy::PWS;
    spec.dataTransfer = 16;
    spec.params = tinyParams();
    const ExperimentResult r = runExperiment(spec);
    const std::string key = experimentCacheKey(spec);

    const std::string text = serialize(r, key);
    const std::optional<ExperimentResult> back =
        readResultJson(text, spec, key);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(serialize(*back, key), text);
    EXPECT_EQ(back->sim.cycles, r.sim.cycles);
    EXPECT_EQ(back->annotate.inserted, r.annotate.inserted);
    EXPECT_EQ(back->spec.label(), spec.label());
}

TEST(ResultJson, RejectsMalformedDocuments)
{
    ExperimentSpec spec;
    spec.params = tinyParams();
    const std::string key = experimentCacheKey(spec);
    EXPECT_FALSE(readResultJson("", spec, key).has_value());
    EXPECT_FALSE(readResultJson("{}", spec, key).has_value());
    EXPECT_FALSE(readResultJson("not json at all", spec, key).has_value());

    const ExperimentResult r = runExperiment(spec);
    std::string text = serialize(r, key);
    EXPECT_TRUE(readResultJson(text, spec, key).has_value());
    EXPECT_FALSE(
        readResultJson(text + "trailing", spec, key).has_value());
}

TEST(ResultJson, RejectsNonPlainUnsignedTokens)
{
    ExperimentSpec spec;
    spec.params = tinyParams();
    const std::string key = experimentCacheKey(spec);
    const std::string text = serialize(runExperiment(spec), key);
    const std::size_t at = text.find("\"busyCycles\":") + 13;
    const std::size_t len = text.find(',', at) - at;
    // A negative count would wrap; a fraction or exponent would be
    // truncated to a different count.
    for (const char *token : {"-1", "1.5", "1e3", "18446744073709551616"}) {
        const std::string bad =
            text.substr(0, at) + token + text.substr(at + len);
        EXPECT_FALSE(readResultJson(bad, spec, key).has_value()) << token;
    }
    const std::string plain =
        text.substr(0, at) + "7" + text.substr(at + len);
    EXPECT_TRUE(readResultJson(plain, spec, key).has_value());
}

TEST(JsonParser, ParsesScalarsArraysAndObjects)
{
    const auto v = parseJson(
        "{\"a\": 1, \"b\": [true, false, null], \"c\": {\"d\": \"e\\n\"},"
        " \"f\": -2.5}");
    ASSERT_TRUE(v.has_value());
    ASSERT_EQ(v->kind(), JsonValue::Kind::Object);
    EXPECT_EQ(v->find("a")->asU64(), 1u);
    EXPECT_EQ(v->find("b")->array().size(), 3u);
    EXPECT_TRUE(v->find("b")->array()[0].asBool());
    EXPECT_EQ(v->find("c")->find("d")->asString(), "e\n");
    EXPECT_DOUBLE_EQ(v->find("f")->asDouble(), -2.5);
    EXPECT_EQ(v->find("missing"), nullptr);
}

TEST(JsonParser, ExactUint64RoundTrip)
{
    const std::uint64_t big = 18446744073709551615ull;
    const auto v =
        parseJson("{\"n\": " + std::to_string(big) + "}");
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->find("n")->asU64(), big);
}

TEST(JsonParser, RejectsGarbage)
{
    EXPECT_FALSE(parseJson("{").has_value());
    EXPECT_FALSE(parseJson("[1,]").has_value());
    EXPECT_FALSE(parseJson("{\"a\" 1}").has_value());
    EXPECT_FALSE(parseJson("\"unterminated").has_value());
    EXPECT_FALSE(parseJson("1 2").has_value());
}

} // namespace
} // namespace prefsim
