/**
 * @file
 * Unit tests for the observability layer: histogram bucketing edge
 * cases, concurrent metric updates (meaningful under
 * -DPREFSIM_SANITIZE=thread), tracer session/ring behaviour, and
 * structural validation of the exported Chrome trace-event JSON —
 * per-processor tracks, monotone timestamps, and paired begin/end
 * events, which is what makes the document loadable in Perfetto — and
 * the identities between the views, checked once on the event stream.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/json.hh"
#include "core/sweep.hh"
#include "obs/event.hh"
#include "obs/metrics.hh"
#include "obs/obs.hh"
#include "obs/trace.hh"
#include "prefetch/inserter.hh"
#include "sim/simulator.hh"
#include "trace/workload.hh"

namespace prefsim
{
namespace
{

using obs::Histogram;
using obs::MetricsRegistry;
using obs::TraceBuffer;
using obs::TraceCat;
using obs::Tracer;

TEST(Histogram, BoundaryValuesOpenTheirBucket)
{
    // Buckets are [b_i, b_{i+1}): a value exactly on a boundary lands
    // in the bucket that boundary opens.
    Histogram h({0, 10, 20});
    ASSERT_EQ(h.numBuckets(), 2u);
    h.record(0);  // [0,10)
    h.record(9);  // [0,10)
    h.record(10); // [10,20) — boundary opens the second bucket.
    h.record(19); // [10,20)
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(1), 2u);
    EXPECT_EQ(h.underflow(), 0u);
    EXPECT_EQ(h.overflow(), 0u);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.sum(), 0u + 9 + 10 + 19);
}

TEST(Histogram, UnderflowAndOverflow)
{
    Histogram h({5, 10});
    h.record(4);  // Below b0: underflow.
    h.record(10); // On the last boundary: overflow ([b_n, inf)).
    h.record(11);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 2u);
    EXPECT_EQ(h.bucketCount(0), 0u);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_DOUBLE_EQ(h.mean(), (4.0 + 10.0 + 11.0) / 3.0);
}

TEST(Histogram, SingleBoundaryHasNoInteriorBuckets)
{
    // One boundary means zero interior buckets: everything is either
    // under- or overflow. Degenerate but legal.
    Histogram h({100});
    EXPECT_EQ(h.numBuckets(), 0u);
    h.record(99);
    h.record(100);
    h.record(1000);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 2u);
    EXPECT_EQ(h.count(), 3u);
}

TEST(HistogramSummary, EmptyHistogramIsAllZeros)
{
    const Histogram h({0, 10, 20});
    const Histogram::Summary s = h.summary();
    EXPECT_EQ(s.count, 0u);
    EXPECT_EQ(s.sum, 0u);
    EXPECT_EQ(s.minBound, 0u);
    EXPECT_EQ(s.maxBound, 0u);
    EXPECT_DOUBLE_EQ(s.p50, 0.0);
    EXPECT_DOUBLE_EQ(s.p99, 0.0);
}

TEST(HistogramSummary, AllOverflowInterpolatesToTheRecordedMax)
{
    Histogram h({0, 10});
    h.record(100);
    h.record(200);
    h.record(300);
    const Histogram::Summary s = h.summary();
    EXPECT_EQ(s.count, 3u);
    EXPECT_EQ(s.sum, 600u);
    EXPECT_EQ(h.overflowMax(), 300u);
    // The overflow bucket is unbounded above, so the recorded max —
    // not the last boundary — anchors its upper edge: percentiles
    // interpolate across [10, 300] holding all 3 samples.
    EXPECT_EQ(s.minBound, 10u);
    EXPECT_EQ(s.maxBound, 300u);
    EXPECT_DOUBLE_EQ(s.p50, 10.0 + 1.5 / 3.0 * 290.0);
    EXPECT_DOUBLE_EQ(s.p90, 10.0 + 2.7 / 3.0 * 290.0);
    EXPECT_DOUBLE_EQ(s.p99, 10.0 + 2.97 / 3.0 * 290.0);
}

TEST(HistogramSummary, TailHeavyP99ExceedsTheLastBound)
{
    // The regression this guards: in-range samples plus one huge
    // outlier used to summarise with p99 == bounds.back() (the
    // overflow bucket reported its lower edge), hiding the tail
    // entirely. With 9 in-range samples and 1 outlier, p99's rank
    // (9.9 of 10) lands in the overflow bucket, so it must reflect
    // the outlier.
    Histogram h({0, 10});
    for (int i = 0; i < 9; ++i)
        h.record(5);
    h.record(100000);
    const Histogram::Summary s = h.summary();
    EXPECT_EQ(s.maxBound, 100000u);
    EXPECT_GT(s.p99, 10.0);
    EXPECT_LE(s.p99, 100000.0);
    EXPECT_DOUBLE_EQ(s.p99, 10.0 + 0.9 * (100000.0 - 10.0));
    EXPECT_LE(s.p50, s.p90);
    EXPECT_LE(s.p90, s.p99);
    // A value landing exactly on the last boundary also counts as
    // overflow and must anchor the max there, not past it.
    Histogram edge({0, 10});
    edge.record(10);
    EXPECT_EQ(edge.overflowMax(), 10u);
    EXPECT_EQ(edge.summary().maxBound, 10u);
    EXPECT_DOUBLE_EQ(edge.summary().p99, 10.0);
}

TEST(HistogramSummary, SingleBucketInterpolatesLinearly)
{
    Histogram h({0, 10});
    for (std::uint64_t v = 0; v < 10; ++v)
        h.record(v);
    const Histogram::Summary s = h.summary();
    EXPECT_EQ(s.count, 10u);
    EXPECT_EQ(s.minBound, 0u);
    EXPECT_EQ(s.maxBound, 10u);
    // rank = q * 10, interpolated across [0, 10) holding 10 samples.
    EXPECT_DOUBLE_EQ(s.p50, 5.0);
    EXPECT_DOUBLE_EQ(s.p90, 9.0);
    EXPECT_DOUBLE_EQ(s.p99, 9.9);
}

TEST(HistogramSummary, PercentilesSkipEmptyBuckets)
{
    Histogram h({0, 10, 20, 30});
    h.record(5);   // One sample in [0, 10).
    h.record(21);  // Three in [20, 30); [10, 20) stays empty.
    h.record(22);
    h.record(23);
    const Histogram::Summary s = h.summary();
    EXPECT_EQ(s.minBound, 0u);
    EXPECT_EQ(s.maxBound, 30u);
    // p50: rank 2 falls in [20, 30) after 1 cumulative sample:
    // 20 + (2-1)/3 * 10.
    EXPECT_DOUBLE_EQ(s.p50, 20.0 + 10.0 / 3.0);
    EXPECT_LE(s.p50, s.p90);
    EXPECT_LE(s.p90, s.p99);
}

TEST(HistogramSummary, UnderflowCountsFromZero)
{
    Histogram h({5, 10});
    h.record(1); // Underflow: conceptually in [0, 5).
    h.record(2);
    h.record(7);
    const Histogram::Summary s = h.summary();
    EXPECT_EQ(s.count, 3u);
    EXPECT_EQ(s.minBound, 0u);
    EXPECT_EQ(s.maxBound, 10u);
    // rank 1.5 inside the 2-sample underflow range [0, 5).
    EXPECT_DOUBLE_EQ(s.p50, 0.0 + 1.5 / 2.0 * 5.0);
}

TEST(Histogram, ResetZeroesCountsNotBounds)
{
    Histogram h(obs::linearBounds(4));
    h.record(2);
    h.record(100);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0u);
    EXPECT_EQ(h.overflow(), 0u);
    EXPECT_EQ(h.overflowMax(), 0u);
    EXPECT_EQ(h.bounds().size(), 5u); // 0..4 survives the reset.
    EXPECT_EQ(h.bucketCount(2), 0u);
}

TEST(RunHistogram, CommitEqualsDirectRecording)
{
    // Two runs' shares folded in, against the same values recorded
    // straight into the shared histogram: every field, the overflow
    // maximum included, must agree.
    const std::vector<std::uint64_t> bounds = {10, 20, 30};
    Histogram direct(bounds), merged(bounds);
    obs::RunHistogram a(merged), b(merged);
    const std::uint64_t values_a[] = {3, 10, 25, 31, 500};
    const std::uint64_t values_b[] = {0, 19, 29, 30, 90};
    for (const std::uint64_t v : values_a) {
        direct.record(v);
        a.record(v);
    }
    for (const std::uint64_t v : values_b) {
        direct.record(v);
        b.record(v);
    }
    EXPECT_EQ(merged.count(), 0u) << "nothing folds in before commit";
    b.commit();
    a.commit();
    a.commit(); // A second commit adds nothing.
    for (std::size_t i = 0; i < direct.numBuckets(); ++i)
        EXPECT_EQ(merged.bucketCount(i), direct.bucketCount(i)) << i;
    EXPECT_EQ(merged.underflow(), direct.underflow());
    EXPECT_EQ(merged.overflow(), direct.overflow());
    EXPECT_EQ(merged.overflowMax(), 500u);
    EXPECT_EQ(merged.count(), direct.count());
    EXPECT_EQ(merged.sum(), direct.sum());
}

TEST(Histogram, BoundHelpers)
{
    const auto p2 = obs::powerOfTwoBounds(3);
    EXPECT_EQ(p2, (std::vector<std::uint64_t>{0, 1, 2, 4, 8}));
    const auto lin = obs::linearBounds(3);
    EXPECT_EQ(lin, (std::vector<std::uint64_t>{0, 1, 2, 3}));
}

TEST(MetricsRegistry, CreateOnFirstUseWithStableIdentity)
{
    MetricsRegistry r;
    EXPECT_TRUE(r.empty());
    obs::Counter &a = r.counter("x");
    obs::Counter &b = r.counter("x");
    EXPECT_EQ(&a, &b); // Same object on every later call.
    EXPECT_FALSE(r.empty());

    Histogram &h1 = r.histogram("h", {0, 1, 2});
    Histogram &h2 = r.histogram("h", {0, 1, 2});
    EXPECT_EQ(&h1, &h2);

    a.inc(3);
    EXPECT_EQ(r.counter("x").value(), 3u);
    r.reset();
    EXPECT_EQ(r.counter("x").value(), 0u);
}

TEST(MetricsRegistryDeathTest, HistogramBoundsMismatchPanics)
{
    MetricsRegistry r;
    r.histogram("h", {0, 1, 2});
    EXPECT_DEATH(r.histogram("h", {0, 1, 4}), "h");
}

TEST(MetricsRegistry, ConcurrentIncrementsAreExact)
{
    // A sweep's workers all update one shared registry; run real
    // contention so -DPREFSIM_SANITIZE=thread can see any race and a
    // plain build can check nothing is lost.
    MetricsRegistry r;
    obs::Counter &c = r.counter("hits");
    Histogram &h = r.histogram("depth", obs::linearBounds(8));
    constexpr unsigned kThreads = 4;
    constexpr unsigned kPerThread = 50000;

    std::vector<std::thread> workers;
    for (unsigned t = 0; t < kThreads; ++t) {
        workers.emplace_back([&, t] {
            for (unsigned i = 0; i < kPerThread; ++i) {
                c.inc();
                h.record(t); // Each thread hammers one bucket.
                r.gauge("last").set(static_cast<std::int64_t>(i));
            }
        });
    }
    for (auto &w : workers)
        w.join();

    EXPECT_EQ(c.value(), std::uint64_t{kThreads} * kPerThread);
    EXPECT_EQ(h.count(), std::uint64_t{kThreads} * kPerThread);
    for (unsigned t = 0; t < kThreads; ++t)
        EXPECT_EQ(h.bucketCount(t), kPerThread);
    EXPECT_LT(r.gauge("last").value(),
              static_cast<std::int64_t>(kPerThread));
}

TEST(MetricsRegistry, JsonRoundTripsThroughStrictParser)
{
    MetricsRegistry r;
    r.counter("c").inc(7);
    r.gauge("g").set(3);
    Histogram &h = r.histogram("h", {0, 2});
    h.record(1);
    h.record(5);

    std::ostringstream os;
    JsonWriter j(os);
    r.writeJson(j);
    const auto doc = parseJson(os.str());
    ASSERT_TRUE(doc.has_value()) << os.str();
    EXPECT_EQ(doc->find("counters")->find("c")->asU64(), 7u);
    EXPECT_EQ(doc->find("gauges")->find("g")->asU64(), 3u);
    const JsonValue *hist = doc->find("histograms")->find("h");
    ASSERT_NE(hist, nullptr);
    EXPECT_EQ(hist->find("count")->asU64(), 2u);
    EXPECT_EQ(hist->find("overflow")->asU64(), 1u);
    EXPECT_EQ(hist->find("counts")->array()[0].asU64(), 1u);
}

TEST(Tracer, DisabledYieldsNoSessions)
{
    Tracer t;
    EXPECT_FALSE(t.enabled());
    EXPECT_EQ(t.beginSession(4, "off"), nullptr);
    EXPECT_EQ(t.numSessions(), 0u);
}

TEST(Tracer, SessionBudgetExhausts)
{
    Tracer t(/*events_per_session=*/64, /*max_sessions=*/2);
    t.setEnabled(true);
    auto a = t.beginSession(2, "a");
    auto b = t.beginSession(2, "b");
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(t.beginSession(2, "c"), nullptr); // Budget spent.
    t.commit(std::move(a));
    t.commit(std::move(b));
    t.commit(nullptr); // Tolerated.
    EXPECT_EQ(t.numSessions(), 2u);
}

TEST(Tracer, RingEvictsOldestNeverNewest)
{
    Tracer t(/*events_per_session=*/4, /*max_sessions=*/1);
    t.setEnabled(true);
    auto buf = t.beginSession(1, "ring");
    ASSERT_NE(buf, nullptr);
    for (Cycle ts = 0; ts < 10; ++ts)
        buf->instant(0, "ev", TraceCat::Exec, ts);
    EXPECT_EQ(buf->size(), 4u);
    EXPECT_EQ(buf->dropped(), 6u);
    const auto events = buf->orderedEvents();
    ASSERT_EQ(events.size(), 4u);
    // The newest four survive, oldest-first.
    for (std::size_t i = 0; i < events.size(); ++i)
        EXPECT_EQ(events[i].ts, 6u + i);
}

TEST(Tracer, ZeroLengthSpanDemotesToInstant)
{
    Tracer t(64, 1);
    t.setEnabled(true);
    auto buf = t.beginSession(1, "z");
    ASSERT_NE(buf, nullptr);
    buf->span(0, "empty", TraceCat::Exec, 5, 5);
    const auto events = buf->orderedEvents();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].ph, obs::TraceEvent::Ph::Instant);
    EXPECT_EQ(events[0].dur, 0u);
}

/**
 * Structural validation of an exported Chrome trace-event document:
 * it parses strictly, every (pid) timeline is timestamp-monotone,
 * every synchronous B has a matching E in stack (LIFO) order per
 * (pid, tid), every async b has a matching e keyed by (cat, id,
 * scope), and every track carrying events has thread_name metadata.
 */
void
validateChromeTrace(const std::string &text)
{
    const auto doc = parseJson(text);
    ASSERT_TRUE(doc.has_value()) << "trace is not strict JSON";
    ASSERT_TRUE(doc->isObject());
    const JsonValue *events = doc->find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());

    std::map<std::uint64_t, std::uint64_t> last_ts;
    std::map<std::pair<std::uint64_t, std::uint64_t>,
             std::vector<std::string>>
        open_spans;
    std::map<std::tuple<std::string, std::uint64_t, std::string>, int>
        open_async;
    std::map<std::uint64_t, std::set<std::uint64_t>> tids_with_events;
    std::map<std::uint64_t, std::set<std::uint64_t>> named_tids;
    std::set<std::uint64_t> labelled_pids;

    for (const JsonValue &ev : events->array()) {
        ASSERT_TRUE(ev.isObject());
        const std::string ph = ev.find("ph")->asString();
        const std::uint64_t pid = ev.find("pid")->asU64();
        if (ph == "M") {
            const std::string &kind = ev.find("name")->asString();
            if (kind == "thread_name")
                named_tids[pid].insert(ev.find("tid")->asU64());
            else if (kind == "process_name")
                labelled_pids.insert(pid);
            continue;
        }
        const std::uint64_t ts = ev.find("ts")->asU64();
        const std::uint64_t tid = ev.find("tid")->asU64();
        tids_with_events[pid].insert(tid);
        const auto it = last_ts.find(pid);
        if (it != last_ts.end()) {
            ASSERT_GE(ts, it->second)
                << "timestamps regress within pid " << pid;
        }
        last_ts[pid] = ts;

        const std::string &name = ev.find("name")->asString();
        if (ph == "B") {
            open_spans[{pid, tid}].push_back(name);
        } else if (ph == "E") {
            auto &stack = open_spans[{pid, tid}];
            ASSERT_FALSE(stack.empty())
                << "E without B on pid " << pid << " tid " << tid;
            EXPECT_EQ(stack.back(), name) << "spans cross, not nest";
            stack.pop_back();
        } else if (ph == "b" || ph == "e") {
            const auto key =
                std::make_tuple(ev.find("cat")->asString(),
                                ev.find("id")->asU64(),
                                ev.find("scope")->asString());
            int &open = open_async[key];
            open += ph == "b" ? 1 : -1;
            ASSERT_GE(open, 0) << "async e before its b";
        } else {
            EXPECT_EQ(ph, "i") << "unexpected phase " << ph;
        }
    }
    for (const auto &[key, stack] : open_spans)
        EXPECT_TRUE(stack.empty()) << "unclosed span on tid "
                                   << key.second;
    for (const auto &[key, open] : open_async)
        EXPECT_EQ(open, 0) << "unclosed async span id "
                           << std::get<1>(key);
    for (const auto &[pid, tids] : tids_with_events) {
        EXPECT_TRUE(labelled_pids.count(pid));
        for (std::uint64_t tid : tids) {
            EXPECT_TRUE(named_tids[pid].count(tid))
                << "events on unnamed track pid " << pid << " tid "
                << tid;
        }
    }
}

TEST(Tracer, ExportedDocumentIsStructurallyValid)
{
    Tracer t(256, 4);
    t.setEnabled(true);
    auto buf = t.beginSession(2, "handmade");
    ASSERT_NE(buf, nullptr);
    // Nested spans on cpu 0, a span on cpu 1, overlapping async spans
    // on the bus track, and instants sprinkled through.
    buf->span(0, "outer", TraceCat::Exec, 0, 100);
    buf->span(0, "inner", TraceCat::Exec, 10, 50);
    buf->instant(0, "tick", TraceCat::Sync, 42, 0x1000, 7);
    buf->span(1, "stall", TraceCat::Exec, 5, 25);
    buf->asyncSpan(2, "txn", TraceCat::Bus, 1, 0, 60, 0x2000, 0);
    buf->asyncSpan(2, "txn", TraceCat::Bus, 2, 30, 90); // Overlaps id 1.
    t.commit(std::move(buf));

    auto second = t.beginSession(1, "second run");
    ASSERT_NE(second, nullptr);
    second->span(0, "work", TraceCat::Exec, 3, 9);
    t.commit(std::move(second));

    EXPECT_EQ(t.numSessions(), 2u);
    EXPECT_EQ(t.totalEvents(), 7u);
    std::ostringstream os;
    t.exportChromeTrace(os);
    validateChromeTrace(os.str());
}

TEST(Obs, InstrumentationDoesNotChangeSimulation)
{
    // The whole layer's core promise: attaching metrics and tracing
    // must leave the simulated machine bit-identical.
    WorkloadParams p;
    p.numProcs = 4;
    p.refsPerProc = 5000;
    p.seed = 3;

    SweepOptions plain;
    SweepEngine off(p, CacheGeometry::paperDefault(), plain);

    SweepOptions instrumented;
    instrumented.metrics = true;
    instrumented.tracing = true;
    SweepEngine on(p, CacheGeometry::paperDefault(), instrumented);
    ASSERT_NE(on.obs(), nullptr);
    EXPECT_EQ(off.obs(), nullptr);

    for (Strategy s : {Strategy::NP, Strategy::PREF}) {
        const auto &a = off.run(WorkloadKind::Mp3d, false, s, 8);
        const auto &b = on.run(WorkloadKind::Mp3d, false, s, 8);
        EXPECT_EQ(a.sim.cycles, b.sim.cycles);
        EXPECT_EQ(a.sim.totalMisses().cpu(), b.sim.totalMisses().cpu());
        EXPECT_EQ(a.sim.bus.busyCycles, b.sim.bus.busyCycles);
    }
    // The instrumented engine actually measured something.
    EXPECT_FALSE(on.obs()->metrics.empty());

    std::ostringstream telemetry;
    on.writeTelemetryJson(telemetry);
    const auto doc = parseJson(telemetry.str());
    ASSERT_TRUE(doc.has_value()) << telemetry.str();
    EXPECT_EQ(doc->find("schema")->asString(), "prefsim-telemetry-v1");
    ASSERT_NE(doc->find("sweep"), nullptr);
    EXPECT_GE(doc->find("sweep")->find("simulations_run")->asU64(), 2u);
    ASSERT_NE(doc->find("metrics"), nullptr);
}

TEST(Tracer, SimulatorDrivenTraceIsStructurallyValid)
{
    // End-to-end acceptance: a real simulation's exported trace loads
    // as Chrome trace-event JSON with per-processor tracks, monotone
    // timestamps and paired begin/end events.
    WorkloadParams p;
    p.numProcs = 4;
    p.refsPerProc = 5000;
    p.seed = 9;
    SweepOptions so;
    so.metrics = true;
    so.tracing = true;
    SweepEngine engine(p, CacheGeometry::paperDefault(), so);
    engine.enqueue(WorkloadKind::Mp3d, false, Strategy::PREF, 8);
    engine.runPending();

    ASSERT_NE(engine.obs(), nullptr);
    const Tracer &tracer = engine.obs()->tracer;
    ASSERT_GE(tracer.numSessions(), 1u);
    EXPECT_GT(tracer.totalEvents(), 0u);

    std::ostringstream os;
    tracer.exportChromeTrace(os);
    validateChromeTrace(os.str());

    // The document names one track per processor plus the bus.
    const auto doc = parseJson(os.str());
    ASSERT_TRUE(doc.has_value());
    std::set<std::uint64_t> tids;
    for (const JsonValue &ev : doc->find("traceEvents")->array()) {
        if (ev.find("ph")->asString() == "M" &&
            ev.find("name")->asString() == "thread_name") {
            tids.insert(ev.find("tid")->asU64());
        }
    }
    EXPECT_EQ(tids.size(), p.numProcs + 1u); // cpus 0..3 + the bus.
}

/** Running sums of the events the cross-view identities read. */
struct StreamCounts
{
    std::uint64_t grants = 0;       ///< BusGrant, since the warmup reset.
    std::uint64_t grantCycles = 0;  ///< Σ BusGrant occupancy, ditto.
    std::uint64_t kills = 0;        ///< Invalidate + InflightKill, ditto.
    std::uint64_t killsAllRun = 0;  ///< ... including the warmup.
    unsigned warmups = 0;

    void
    on(const obs::Event &e)
    {
        switch (e.kind) {
          case obs::EventKind::BusGrant:
            ++grants;
            grantCycles += e.arg;
            return;
          case obs::EventKind::Invalidate:
          case obs::EventKind::InflightKill:
            ++kills;
            ++killsAllRun;
            return;
          case obs::EventKind::Warmup:
            // BusStats and the profile restart here; the metrics
            // registry does not.
            ++warmups;
            grants = grantCycles = kills = 0;
            return;
          default:
            return;
        }
    }
};

/** The metrics object of an instrumented, bus-saturated sweep. */
std::string
sweepMetricsJson(unsigned jobs)
{
    WorkloadParams p = defaultWorkloadParams();
    p.numProcs = 16;
    p.refsPerProc = 1500;
    SweepOptions options;
    options.jobs = jobs;
    options.metrics = true;
    SweepEngine engine(p, CacheGeometry::paperDefault(), options);
    engine.enqueueGrid({WorkloadKind::Mp3d, WorkloadKind::Pverify},
                       {false}, {Strategy::NP, Strategy::PREF}, {8, 32});
    engine.runPending();
    std::ostringstream os;
    JsonWriter j(os);
    engine.obs()->metrics.writeJson(j);
    return os.str();
}

TEST(MetricsMerge, ParallelSweepWritesTheSerialMetrics)
{
    // Each run folds its counts into the shared registry when it
    // commits, in completion order: every field is a sum or a max, so
    // the object must not depend on the worker count.
    const std::string serial = sweepMetricsJson(1);
    EXPECT_EQ(serial, sweepMetricsJson(4));

    const std::optional<JsonValue> doc = parseJson(serial);
    ASSERT_TRUE(doc.has_value());
    const JsonValue *counters = doc->find("counters");
    ASSERT_NE(counters, nullptr);
    EXPECT_GT(counters->find("coherence.invalidations")->asU64(), 0u);
    // The grid must reach an overflow bucket, so that the merged
    // maximum (summary.max_bound) is compared too.
    bool overflowed = false;
    for (const auto &[name, h] : doc->find("histograms")->members()) {
        if (h.find("overflow")->asU64() > 0) {
            overflowed = true;
            EXPECT_GE(h.find("summary")->find("max_bound")->asU64(),
                      h.find("bounds")->array().back().asU64())
                << name;
        }
    }
    EXPECT_TRUE(overflowed);
}

class StreamIdentities : public ::testing::TestWithParam<SimEngine>
{};

TEST_P(StreamIdentities, ViewsAgreeOnOneFig2Point)
{
    // One 8-processor Figure 2 PREF point: every view of the run is
    // derived from the same events, so the sums must agree exactly.
    WorkloadParams p;
    p.numProcs = 8;
    p.refsPerProc = 4000;
    const ParallelTrace base = generateWorkload(WorkloadKind::Mp3d, p);
    const AnnotatedTrace ann =
        annotateTrace(base, Strategy::PREF, CacheGeometry::paperDefault());
    ObsContext ctx;
    SimConfig cfg;
    cfg.timing.dataTransfer = 8;
    cfg.engine = GetParam();
    cfg.obs = &ctx;
    cfg.profile = true;

    Simulator sim(ann.trace, cfg);
    ASSERT_NE(sim.sink(), nullptr);
    StreamCounts counts;
    sim.sink()->setExtraConsumer(
        [&counts](const obs::Event &e) { counts.on(e); });
    const SimStats stats = sim.run();

    ASSERT_EQ(counts.warmups, 1u);
    EXPECT_GT(counts.grants, 0u);
    EXPECT_GT(counts.kills, 0u);
    EXPECT_EQ(counts.grantCycles, stats.bus.busyCycles);
    EXPECT_EQ(counts.grants,
              stats.bus.grantsDemand + stats.bus.grantsPrefetch);

    EXPECT_EQ(counts.killsAllRun,
              ctx.metrics.counter("coherence.invalidations").value());
    const std::vector<obs::ProfileRun> runs = ctx.profile.snapshot();
    ASSERT_EQ(runs.size(), 1u);
    std::uint64_t profiled = 0;
    std::uint64_t busCycles = 0;
    for (const obs::ProfileLine &line : runs[0].lines) {
        profiled += line.invalidations + line.inflightKills;
        busCycles += line.busCycles;
    }
    EXPECT_EQ(counts.kills, profiled);
    EXPECT_EQ(busCycles, stats.bus.busyCycles);
}

INSTANTIATE_TEST_SUITE_P(Engines, StreamIdentities,
                         ::testing::Values(SimEngine::CycleLoop,
                                           SimEngine::LocalClock));

} // namespace
} // namespace prefsim
