/**
 * @file
 * Tests for prefsim_bench's statistics: the percentile rule,
 * span self time, fingerprint stability and golden-mismatch detection.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "bench_stats.hh"
#include "sim/simulator.hh"

namespace prefsim::perf
{
namespace
{

std::vector<double>
oneToN(int n)
{
    std::vector<double> v;
    for (int i = n; i >= 1; --i) // Unsorted on purpose.
        v.push_back(i);
    return v;
}

TEST(Percentiles, FifteenSamplesGiveTheMedianOnly)
{
    const Percentiles p = summarize(oneToN(15));
    EXPECT_EQ(p.samples, 15u);
    EXPECT_EQ(p.p50, 8.0);
    EXPECT_EQ(p.tailPct, 50.0);
    EXPECT_EQ(p.tail, p.p50);
}

TEST(Percentiles, HundredSamplesGiveP90)
{
    const Percentiles p = summarize(oneToN(100));
    EXPECT_EQ(p.samples, 100u);
    EXPECT_EQ(p.p50, 50.0);
    EXPECT_EQ(p.tailPct, 90.0);
    EXPECT_EQ(p.tail, 90.0);
}

TEST(Percentiles, ThousandSamplesGiveP99)
{
    const Percentiles p = summarize(oneToN(1000));
    EXPECT_EQ(p.tailPct, 99.0);
    EXPECT_EQ(p.tail, 990.0);
}

TEST(Percentiles, EmptyInput)
{
    const Percentiles p = summarize({});
    EXPECT_EQ(p.samples, 0u);
    EXPECT_EQ(p.p50, 0.0);
}

TEST(Median, EvenAndOddCounts)
{
    EXPECT_EQ(median({3, 1, 2}), 2.0);
    EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_EQ(median({}), 0.0);
}

TEST(SelfTime, ChildrenAreSubtracted)
{
    const std::vector<Span> spans = {
        {"bench", "p", 0, 100, -1},
        {"trace", "p", 10, 30, 0},
        {"sim", "p", 40, 90, 0},
        {"obs.sim", "p", 50, 60, 2},
    };
    const std::vector<std::int64_t> self = selfTimesNs(spans);
    EXPECT_EQ(self[0], 100 - 20 - 50);
    EXPECT_EQ(self[1], 20);
    EXPECT_EQ(self[2], 50 - 10);
    EXPECT_EQ(self[3], 10);
    EXPECT_EQ(spans[3].layer(), "obs");
}

TEST(SelfTime, OverlappingChildrenCountOnce)
{
    // Children [10,50) and [30,70) overlap; their union is [10,70).
    // The third child starts before the parent and is clipped to it.
    const std::vector<Span> spans = {
        {"bench", "p", 0, 100, -1},
        {"sim", "a", 10, 50, 0},
        {"sim", "b", 30, 70, 0},
        {"sim", "c", -20, 5, 0},
    };
    EXPECT_EQ(selfTimesNs(spans)[0], 100 - 60 - 5);
}

ParallelTrace
handTrace()
{
    Trace a;
    a.append(TraceRecord::read(0x1000));
    a.append(TraceRecord::write(0x1000));
    a.appendInstrs(10);
    a.append(TraceRecord::barrier(0));
    Trace b;
    b.appendInstrs(40);
    b.append(TraceRecord::read(0x1000));
    b.append(TraceRecord::barrier(0));
    ParallelTrace pt;
    pt.name = "hand";
    pt.numBarriers = 1;
    pt.procs.push_back(std::move(a));
    pt.procs.push_back(std::move(b));
    return pt;
}

ExperimentResult
simulateHand(Cycle transfer)
{
    ExperimentResult r;
    r.spec.dataTransfer = transfer;
    SimConfig cfg = r.spec.simConfig();
    cfg.warmupEpisodes = 0;
    r.sim = simulate(handTrace(), cfg);
    return r;
}

TEST(Fingerprint, StableAcrossIdenticalSimulations)
{
    const ExperimentResult a = simulateHand(8);
    const ExperimentResult b = simulateHand(8);
    ASSERT_GT(a.sim.cycles, 0u);
    EXPECT_EQ(resultFingerprint(a), resultFingerprint(b));
    // A different bus speed is a different point and a different print.
    EXPECT_NE(resultFingerprint(a), resultFingerprint(simulateHand(32)));
}

TEST(Fingerprint, CoversTheSimulatedCounters)
{
    ExperimentResult a = simulateHand(8);
    const std::uint64_t before = resultFingerprint(a);
    a.sim.bus.busyCycles += 1;
    EXPECT_NE(resultFingerprint(a), before);
}

TEST(Golden, MismatchDetection)
{
    const Fingerprints expected = {{"a", hex64(1)}, {"b", hex64(2)}};
    EXPECT_TRUE(mismatches(expected, expected).empty());

    Fingerprints changed = expected;
    changed["b"] = hex64(3);
    EXPECT_EQ(mismatches(expected, changed),
              std::vector<std::string>{"b"});

    Fingerprints missing = {{"a", hex64(1)}};
    EXPECT_EQ(mismatches(expected, missing),
              std::vector<std::string>{"b"});

    Fingerprints extra = expected;
    extra["c"] = hex64(4);
    EXPECT_EQ(mismatches(expected, extra), std::vector<std::string>{"c"});
}

TEST(Golden, RoundTripAndRejection)
{
    Golden g;
    g.seed = 12345;
    g.refsPerProc = 10000;
    g.workloads["fig2_16p"] = {{"topopt/NP@4", hex64(0xfeed)}};
    std::ostringstream os;
    writeGolden(os, g);
    const std::optional<Golden> back = parseGolden(os.str());
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->seed, 12345u);
    EXPECT_EQ(back->refsPerProc, 10000u);
    EXPECT_EQ(back->workloads, g.workloads);

    EXPECT_FALSE(parseGolden(os.str().substr(0, os.str().size() / 2)));
    EXPECT_FALSE(parseGolden("{\"schema\":\"other\"}"));
}

} // namespace
} // namespace prefsim::perf
