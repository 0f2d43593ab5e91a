/**
 * @file
 * Tests for the bench harness's shared command-line parser
 * (bench/bench_common.hh).
 *
 * Malformed values must end the process with a `fatal:` diagnostic and
 * exit status 1 — never wrap into a huge count (a wrapped negative
 * --refs hangs the sweep, a wrapped negative --jobs asks for a
 * 4294967295-thread pool) and never truncate into a different valid
 * one (--procs 4294967300 would run a 4-processor sweep).
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_common.hh"

namespace prefsim
{
namespace
{

/** parseBenchArgs over "bench" followed by @p args. */
BenchOptions
parse(std::vector<std::string> args)
{
    args.insert(args.begin(), "bench");
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    return parseBenchArgs(static_cast<int>(argv.size()), argv.data());
}

TEST(BenchCliDeath, NegativeRefsIsRejected)
{
    EXPECT_EXIT(parse({"--refs", "-5"}), testing::ExitedWithCode(1),
                "fatal: option --refs expects an integer");
}

TEST(BenchCliDeath, NegativeJobsIsRejected)
{
    EXPECT_EXIT(parse({"--jobs", "-1"}), testing::ExitedWithCode(1),
                "fatal: option --jobs expects an integer in 0\\.\\.1024");
}

TEST(BenchCliDeath, JobsBeyondThreadPoolBoundIsRejected)
{
    EXPECT_EXIT(parse({"--jobs", "1025"}), testing::ExitedWithCode(1),
                "fatal: option --jobs expects");
}

TEST(BenchCliDeath, ProcsOverflowingUnsignedIsRejected)
{
    EXPECT_EXIT(parse({"--procs", "4294967300"}),
                testing::ExitedWithCode(1),
                "fatal: option --procs expects an integer in "
                "0\\.\\.4294967295, got '4294967300'");
}

TEST(BenchCliDeath, OutOfRangeU64IsRejected)
{
    EXPECT_EXIT(parse({"--seed", "18446744073709551616"}),
                testing::ExitedWithCode(1), "fatal: option --seed expects");
}

TEST(BenchCliDeath, SignAndBlankPrefixesAreRejected)
{
    EXPECT_EXIT(parse({"--refs", "+5"}), testing::ExitedWithCode(1),
                "fatal: option --refs expects");
    EXPECT_EXIT(parse({"--refs", " 5"}), testing::ExitedWithCode(1),
                "fatal: option --refs expects");
    EXPECT_EXIT(parse({"--refs", ""}), testing::ExitedWithCode(1),
                "fatal: option --refs expects");
}

TEST(BenchCliDeath, RemovedEngineNamesAreRejected)
{
    EXPECT_EXIT(parse({"--engine", "event"}), testing::ExitedWithCode(1),
                "fatal: --engine expects local or cycle, got 'event'");
    EXPECT_EXIT(parse({"--engine", "parallel"}),
                testing::ExitedWithCode(1),
                "fatal: --engine expects local or cycle, got 'parallel'");
}

TEST(BenchCliDeath, ShardsFlagIsRejected)
{
    EXPECT_EXIT(parse({"--shards", "2"}), testing::ExitedWithCode(1),
                "fatal: unknown option --shards");
}

TEST(BenchCli, AcceptsInRangeValues)
{
    const BenchOptions o = parse({"--refs", "18446744073709551615",
                                  "--procs", "4", "--jobs", "1024",
                                  "--engine", "cycle"});
    EXPECT_EQ(o.params.refsPerProc, ~std::uint64_t{0});
    EXPECT_EQ(o.params.numProcs, 4u);
    EXPECT_EQ(o.sweep.jobs, ThreadPool::kMaxThreads);
    EXPECT_EQ(o.sweep.engine, SimEngine::CycleLoop);
    EXPECT_EQ(parse({"--engine", "local"}).sweep.engine,
              SimEngine::LocalClock);
    EXPECT_EQ(parse({}).sweep.engine, SimEngine::LocalClock);
}

TEST(BenchCli, NoCacheDisablesPersistenceInEitherOrder)
{
    namespace fs = std::filesystem;
    const fs::path dir = fs::path(testing::TempDir()) / "bench_cli_no_cache";
    for (const bool no_cache_first : {false, true}) {
        fs::remove_all(dir);
        std::vector<std::string> args = {"--cache-dir", dir.string()};
        args.insert(no_cache_first ? args.begin() : args.end(),
                    "--no-cache");
        args.insert(args.end(), {"--refs", "2000", "--procs", "2"});
        const BenchOptions o = parse(args);
        EXPECT_TRUE(o.sweep.cacheDir.empty());
        SweepEngine engine = makeEngine(o);
        engine.run(WorkloadKind::Water, false, Strategy::NP, 8);
        EXPECT_EQ(engine.counters().cacheStores, 0u);
        EXPECT_FALSE(fs::exists(dir));
    }
}

} // namespace
} // namespace prefsim
