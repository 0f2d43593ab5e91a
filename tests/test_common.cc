/**
 * @file
 * Unit tests for the common library: integer math, RNG, cache geometry,
 * the strict integer parser, the JSON parser's nesting cap, the
 * checked JSON accessors and parallelFor.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/cache_geometry.hh"
#include "common/intmath.hh"
#include "common/json.hh"
#include "common/parse_uint.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"

namespace prefsim
{
namespace
{

TEST(IntMath, IsPowerOf2)
{
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(2));
    EXPECT_FALSE(isPowerOf2(3));
    EXPECT_TRUE(isPowerOf2(1ULL << 40));
    EXPECT_FALSE(isPowerOf2((1ULL << 40) + 1));
}

TEST(IntMath, FloorLog2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(32), 5u);
    EXPECT_EQ(floorLog2(33), 5u);
    EXPECT_EQ(floorLog2(1ULL << 63), 63u);
}

TEST(IntMath, DivCeil)
{
    EXPECT_EQ(divCeil(0, 4), 0u);
    EXPECT_EQ(divCeil(1, 4), 1u);
    EXPECT_EQ(divCeil(4, 4), 1u);
    EXPECT_EQ(divCeil(5, 4), 2u);
}

TEST(IntMath, RoundUpDown)
{
    EXPECT_EQ(roundUp(0, 32), 0u);
    EXPECT_EQ(roundUp(1, 32), 32u);
    EXPECT_EQ(roundUp(32, 32), 32u);
    EXPECT_EQ(roundDown(31, 32), 0u);
    EXPECT_EQ(roundDown(32, 32), 32u);
    EXPECT_EQ(roundDown(63, 32), 32u);
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(same, 2);
}

TEST(Rng, BelowInRange)
{
    Rng r(7);
    for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(r.below(bound), bound);
    }
}

TEST(Rng, BelowCoversAllValues)
{
    Rng r(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(r.below(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, RangeInclusive)
{
    Rng r(11);
    bool lo = false, hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = r.range(5, 8);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 8u);
        lo |= v == 5;
        hi |= v == 8;
    }
    EXPECT_TRUE(lo);
    EXPECT_TRUE(hi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(13);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceEdges)
{
    Rng r(17);
    for (int i = 0; i < 50; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
        EXPECT_FALSE(r.chance(-1.0));
        EXPECT_TRUE(r.chance(2.0));
    }
}

TEST(Rng, ChanceFrequency)
{
    Rng r(19);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += r.chance(0.25) ? 1 : 0;
    EXPECT_NEAR(hits / 10000.0, 0.25, 0.03);
}

TEST(Rng, GeometricPositiveWithMean)
{
    Rng r(23);
    std::uint64_t sum = 0;
    for (int i = 0; i < 20000; ++i) {
        const auto v = r.geometric(8.0);
        EXPECT_GE(v, 1u);
        sum += v;
    }
    EXPECT_NEAR(static_cast<double>(sum) / 20000.0, 8.0, 0.5);
}

TEST(Rng, GeometricDegenerateMean)
{
    Rng r(29);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(r.geometric(0.5), 1u);
        EXPECT_EQ(r.geometric(1.0), 1u);
    }
}

TEST(CacheGeometry, PaperDefault)
{
    const CacheGeometry g = CacheGeometry::paperDefault();
    EXPECT_EQ(g.sizeBytes(), 32u * 1024);
    EXPECT_EQ(g.lineBytes(), 32u);
    EXPECT_EQ(g.numSets(), 1024u);
    EXPECT_EQ(g.wordsPerLine(), 8u);
}

TEST(CacheGeometry, LineBase)
{
    const CacheGeometry g(32 * 1024, 32);
    EXPECT_EQ(g.lineBase(0), 0u);
    EXPECT_EQ(g.lineBase(31), 0u);
    EXPECT_EQ(g.lineBase(32), 32u);
    EXPECT_EQ(g.lineBase(0x12345678), 0x12345660u);
}

TEST(CacheGeometry, SetIndexWraps)
{
    const CacheGeometry g(32 * 1024, 32);
    EXPECT_EQ(g.setIndex(0), 0u);
    EXPECT_EQ(g.setIndex(32), 1u);
    EXPECT_EQ(g.setIndex(32 * 1024), 0u);      // One full cache later.
    EXPECT_EQ(g.setIndex(32 * 1024 + 32), 1u);
    EXPECT_EQ(g.setIndex(1023 * 32), 1023u);
}

TEST(CacheGeometry, WordInLine)
{
    const CacheGeometry g(32 * 1024, 32);
    EXPECT_EQ(g.wordInLine(0), 0u);
    EXPECT_EQ(g.wordInLine(4), 1u);
    EXPECT_EQ(g.wordInLine(28), 7u);
    EXPECT_EQ(g.wordInLine(35), 0u);
}

TEST(CacheGeometry, AlternateConfigurations)
{
    // The paper simulated larger caches and block sizes too.
    const CacheGeometry big(128 * 1024, 64);
    EXPECT_EQ(big.numSets(), 2048u);
    EXPECT_EQ(big.wordsPerLine(), 16u);
    const CacheGeometry tiny(1024, 16);
    EXPECT_EQ(tiny.numSets(), 64u);
}

TEST(CacheGeometryDeathTest, RejectsBadConfigs)
{
    EXPECT_EXIT(CacheGeometry(1000, 32), testing::ExitedWithCode(1), "");
    EXPECT_EXIT(CacheGeometry(1024, 48), testing::ExitedWithCode(1), "");
    EXPECT_EXIT(CacheGeometry(1024, 2), testing::ExitedWithCode(1), "");
    EXPECT_EXIT(CacheGeometry(32, 64), testing::ExitedWithCode(1), "");
}

TEST(ParseUint, AcceptsPlainDecimalsUpToTheBound)
{
    EXPECT_EQ(parseUint("0"), 0u);
    EXPECT_EQ(parseUint("42"), 42u);
    EXPECT_EQ(parseUint("007"), 7u);
    EXPECT_EQ(parseUint("18446744073709551615"),
              std::numeric_limits<std::uint64_t>::max());
    EXPECT_EQ(parseUint("4294967295", std::numeric_limits<unsigned>::max()),
              4294967295u);
    EXPECT_EQ(parseUint("1024", 1024), 1024u);
}

TEST(ParseUint, RejectsSignsBlanksTrailingTextAndOverflow)
{
    for (const char *bad : {"", "-1", "+5", " 5", "5 ", "5x", "0x10", "1e3",
                            "18446744073709551616", "99999999999999999999"})
        EXPECT_FALSE(parseUint(bad).has_value()) << "'" << bad << "'";
    // Past the destination's range: a cast would wrap 2^32 + 2 to 2.
    EXPECT_FALSE(
        parseUint("4294967298", std::numeric_limits<unsigned>::max()));
    EXPECT_FALSE(parseUint("1025", 1024));
}

std::string
nestedArrays(unsigned depth)
{
    return std::string(depth, '[') + std::string(depth, ']');
}

TEST(JsonParse, NestingAtTheLimitParses)
{
    const auto doc = parseJson(nestedArrays(kMaxJsonDepth));
    ASSERT_TRUE(doc.has_value());
    // Walk down: exactly kMaxJsonDepth arrays, the innermost empty.
    const JsonValue *v = &*doc;
    for (unsigned d = 1; d < kMaxJsonDepth; ++d) {
        ASSERT_EQ(v->array().size(), 1u);
        v = &v->array()[0];
    }
    EXPECT_TRUE(v->array().empty());
    // Objects count toward the same limit.
    std::string objects;
    for (unsigned d = 1; d < kMaxJsonDepth; ++d)
        objects += "{\"k\":";
    objects += "[]" + std::string(kMaxJsonDepth - 1, '}');
    EXPECT_TRUE(parseJson(objects).has_value());
}

TEST(JsonParse, TooDeepDocumentIsRejectedNotACrash)
{
    EXPECT_FALSE(parseJson(nestedArrays(kMaxJsonDepth + 1)).has_value());
    EXPECT_FALSE(parseJson("{\"a\":" + nestedArrays(kMaxJsonDepth) + "}")
                     .has_value());
    // Deep enough to overflow the stack of an uncapped recursive
    // descent; rejected after kMaxJsonDepth levels.
    EXPECT_FALSE(parseJson(nestedArrays(200000)).has_value());
    EXPECT_FALSE(parseJson(std::string(200000, '[')).has_value());
}

/** The JsonError message @p read throws, or "" when it throws none. */
template <typename Read>
std::string
errorOf(Read read)
{
    try {
        read();
    } catch (const JsonError &e) {
        return e.what();
    }
    return "";
}

TEST(JsonField, ErrorsNameTheKeyPath)
{
    const auto doc = parseJson(
        "{\"runs\":[{\"label\":\"a\",\"lines\":[{\"addr\":\"7\"}]}],"
        "\"n\":3}");
    ASSERT_TRUE(doc.has_value());
    const JsonField root(*doc);
    const JsonField line = root["runs"].items()[0]["lines"].items()[0];
    EXPECT_EQ(line.path(), "runs[0].lines[0]");
    EXPECT_EQ(errorOf([&] { line["addr"].u64(); }),
              "runs[0].lines[0].addr: expected an unsigned integer");
    EXPECT_EQ(errorOf([&] { line["bus"]; }),
              "runs[0].lines[0]: missing \"bus\"");
    EXPECT_EQ(errorOf([&] { root["n"].items(); }), "n: expected an array");
    EXPECT_EQ(errorOf([&] { root["n"]["x"]; }), "n: expected an object");
    EXPECT_EQ(errorOf([&] { root["runs"].str(); }),
              "runs: expected a string");
    EXPECT_FALSE(root.find("absent").has_value());
    EXPECT_EQ(root["n"].u64(), 3u);
    EXPECT_EQ(root["runs"].items()[0]["label"].str(), "a");
}

TEST(JsonField, UnsignedFieldsFollowTheParseUintRule)
{
    const auto u64 = [](const std::string &token, std::uint64_t max) {
        const auto doc = parseJson("{\"v\":" + token + "}");
        return errorOf([&] { JsonField(*doc)["v"].u64(max); });
    };
    const std::uint64_t any = std::numeric_limits<std::uint64_t>::max();
    EXPECT_EQ(u64("0", any), "");
    EXPECT_EQ(u64("18446744073709551615", any), "");
    EXPECT_EQ(u64("4294967295", 4294967295u), "");
    // Wrapped, truncated or out of range: all rejected, never coerced.
    for (const char *bad : {"-1", "1.5", "1e3", "18446744073709551616"})
        EXPECT_EQ(u64(bad, any),
                  "v: expected an unsigned integer, got " +
                      std::string(bad));
    EXPECT_EQ(u64("4294967296", 4294967295u),
              "v: expected an unsigned integer in 0..4294967295, got "
              "4294967296");
    const auto doc = parseJson("{\"d\":-2.5,\"b\":true}");
    EXPECT_DOUBLE_EQ(JsonField(*doc)["d"].number(), -2.5);
    EXPECT_TRUE(JsonField(*doc)["b"].boolean());
}

TEST(ParallelFor, RunsEveryIndexExactlyOnce)
{
    for (const std::size_t n : {0u, 1u, 33u}) {
        std::vector<std::atomic<int>> runs(n);
        std::mutex mu;
        std::set<std::thread::id> threads;
        parallelFor(n, [&](std::size_t i) {
            runs[i].fetch_add(1);
            std::lock_guard<std::mutex> lock(mu);
            threads.insert(std::this_thread::get_id());
        });
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(runs[i].load(), 1) << "n=" << n << " i=" << i;
        EXPECT_LE(threads.size(),
                  std::min<std::size_t>(n, ThreadPool::resolveThreads(0)));
    }
}

TEST(ParallelFor, RunsInlineOnAPoolWorker)
{
    // One worker, which parallelFor must not wait on: a fan-out that
    // queued work behind the running task would deadlock here.
    ThreadPool pool(1);
    std::thread::id worker;
    std::vector<std::thread::id> ran_on(8);
    std::vector<std::size_t> order;
    pool.submit([&] {
        worker = std::this_thread::get_id();
        parallelFor(ran_on.size(), [&](std::size_t i) {
            ran_on[i] = std::this_thread::get_id();
            order.push_back(i);
        });
    });
    pool.waitAll();
    for (const std::thread::id id : ran_on)
        EXPECT_EQ(id, worker);
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(ParallelFor, NestedCallRunsInline)
{
    std::vector<std::vector<std::thread::id>> inner(4);
    parallelFor(inner.size(), [&](std::size_t i) {
        const std::thread::id outer = std::this_thread::get_id();
        inner[i].resize(3);
        parallelFor(3, [&](std::size_t k) {
            inner[i][k] = std::this_thread::get_id();
        });
        for (const std::thread::id id : inner[i])
            EXPECT_EQ(id, outer);
    });
}

} // namespace
} // namespace prefsim
