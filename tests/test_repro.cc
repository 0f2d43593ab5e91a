/**
 * @file
 * Tests for the reproduction's experiment registry
 * (bench/experiments.hh) as prefsim_repro drives it.
 *
 * The driver runs the union of every selected experiment's points in
 * one SweepEngine. That is sound only if each experiment renders the
 * same bytes from the shared engine as from an engine holding nothing
 * but its own points, if every point an experiment reads is one it
 * declared, and if the union simulates each distinct point once.
 * A warm cache directory re-renders the paper's tables exactly, even
 * when it also holds other configurations' runs under the same labels.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <sstream>
#include <string>

#include "bench/experiments.hh"
#include "core/result_io.hh"

namespace prefsim
{
namespace
{

/** An engine at the reduced scale every test here uses. */
SweepEngine
smallEngine()
{
    WorkloadParams params = defaultWorkloadParams();
    params.refsPerProc = 1000;
    params.numProcs = 4;
    SweepOptions options;
    options.jobs = 4;
    return SweepEngine(params, CacheGeometry::paperDefault(), options);
}

std::string
rendered(const Experiment &e, SweepEngine &engine, bool csv)
{
    std::ostringstream os;
    e.render(engine, csv, os);
    return os.str();
}

TEST(Repro, UnionRendersEveryExperimentAsItsOwnSweep)
{
    SweepEngine all = smallEngine();
    for (const Experiment &e : experiments())
        e.enqueue(all);
    std::set<std::string> keys;
    for (const ExperimentSpec &spec : all.pending())
        keys.insert(experimentCacheKey(spec));
    all.runPending();
    EXPECT_EQ(all.counters().simulationsRun, keys.size());

    for (const Experiment &e : experiments()) {
        SCOPED_TRACE(e.name);
        SweepEngine own = smallEngine();
        e.enqueue(own);
        own.runPending();
        const std::uint64_t declared = own.counters().simulationsRun;
        for (const bool csv : {false, true})
            EXPECT_EQ(rendered(e, all, csv), rendered(e, own, csv));
        // Rendering read only points the experiment declared.
        EXPECT_EQ(own.counters().simulationsRun, declared);
    }
    EXPECT_EQ(all.counters().simulationsRun, keys.size());
}

TEST(Repro, RerendersFromASharedCacheDirectory)
{
    // Engines at 4 and 8 processors write runs with the same labels
    // ("topopt/NP@8", ...) into one directory; an engine with the first
    // one's parameters must render exactly its tables from the cache.
    const std::filesystem::path dir =
        std::filesystem::path(testing::TempDir()) / "repro_shared_cache";
    std::filesystem::remove_all(dir);
    const std::vector<const Experiment *> paper = selectExperiments(
        {"fig2_exec_time", "table2_bus_util", "table3_false_sharing"});
    auto cachedEngine = [&](unsigned procs) {
        WorkloadParams params = defaultWorkloadParams();
        params.refsPerProc = 1000;
        params.numProcs = procs;
        SweepOptions options;
        options.jobs = 4;
        options.cacheDir = dir.string();
        return SweepEngine(params, CacheGeometry::paperDefault(), options);
    };
    auto renderAll = [&](SweepEngine &engine) {
        for (const Experiment *e : paper)
            e->enqueue(engine);
        engine.runPending();
        std::string out;
        for (const Experiment *e : paper) {
            for (const bool csv : {false, true})
                out += rendered(*e, engine, csv);
        }
        return out;
    };

    SweepEngine first = cachedEngine(4);
    const std::string expected = renderAll(first);
    SweepEngine second = cachedEngine(8);
    EXPECT_NE(renderAll(second), expected);
    EXPECT_EQ(second.counters().cacheHits, 0u);

    SweepEngine third = cachedEngine(4);
    EXPECT_EQ(renderAll(third), expected);
    EXPECT_EQ(third.counters().simulationsRun, 0u);
    EXPECT_EQ(third.counters().cacheHits, first.counters().simulationsRun);
}

TEST(Repro, SensitivityTelemetryCountsEveryProcessorCount)
{
    // 5 workloads x {NP, PREF} x {T=4, T=32} at 4, 8 and 16 processors.
    SweepEngine engine = smallEngine();
    selectExperiments({"sensitivity_procs"}).front()->enqueue(engine);
    engine.runPending();
    std::ostringstream json;
    engine.writeTelemetryJson(json);
    EXPECT_NE(json.str().find("\"simulations_run\":60"), std::string::npos)
        << json.str();
}

TEST(Repro, SelectsByNameInTheOrderGiven)
{
    EXPECT_EQ(selectExperiments({}).size(), experiments().size());
    const auto picked =
        selectExperiments({"table2_bus_util", "fig1_miss_rates"});
    ASSERT_EQ(picked.size(), 2u);
    EXPECT_STREQ(picked[0]->name, "table2_bus_util");
    EXPECT_STREQ(picked[1]->name, "fig1_miss_rates");
}

TEST(ReproDeath, UnknownNameIsFatal)
{
    EXPECT_EXIT(selectExperiments({"fig2_exec_time", "fig9"}),
                testing::ExitedWithCode(1),
                "fatal: unknown experiment 'fig9'");
}

} // namespace
} // namespace prefsim
