/**
 * @file
 * Differential tests for the two simulation cores.
 *
 * The local-clock engine (SimEngine::LocalClock) must produce
 * statistics *bit-identical* to the reference cycle loop
 * (SimEngine::CycleLoop) on every input — that is its contract (see
 * docs/simcore.md). These tests enforce it two ways:
 *
 *  - a workload matrix: every generator × {NP, PREF, PWS}, plus
 *    configuration variants that exercise the folding paths the
 *    generators alone would miss (multiple data channels, write-update
 *    coherence, victim cache, non-snooping prefetch data buffer);
 *  - hand-built traces that pin the burst-boundary cases where the
 *    frontier and catch-up logic could plausibly go wrong: wakes and
 *    barrier releases landing mid-burst, the warmup statistics reset,
 *    spin-lock windows, prefetch-buffer back-pressure, empty traces,
 *    the final record of a trace, which always runs exactly, and the
 *    quiet plan's size bounds, the walk's only other limit.
 *
 * The oracle counts each blocked cycle as it ticks, while the
 * local-clock core bulk-adds a wait at every catch-up of the waiting
 * processor, so equality here checks those pieces' sums rather than
 * comparing an implementation against itself.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "mem/split_bus.hh"
#include "obs/obs.hh"
#include "prefetch/inserter.hh"
#include "sim/simulator.hh"
#include "sim_fingerprint.hh"
#include "trace/trace_io.hh"
#include "trace/trace_io_binary.hh"
#include "trace/trace_view.hh"
#include "trace/workload.hh"

namespace prefsim
{
namespace
{

/** Run @p trace under the oracle and the local-clock core and require
 *  identical statistics. */
void
expectEnginesAgree(const ParallelTrace &trace, SimConfig cfg,
                   const std::string &what)
{
    cfg.engine = SimEngine::CycleLoop;
    const std::string want = fingerprint(simulate(trace, cfg));
    cfg.engine = SimEngine::LocalClock;
    EXPECT_EQ(want, fingerprint(simulate(trace, cfg))) << what;
}

/* ------------------------------------------------------------------ */
/* Workload matrix                                                     */
/* ------------------------------------------------------------------ */

/** Small but representative generator runs: every workload's sharing
 *  pattern, every prefetch strategy of the paper's main results. */
class EngineDifferential
    : public ::testing::TestWithParam<std::tuple<WorkloadKind, Strategy>>
{
};

TEST_P(EngineDifferential, StatsBitIdentical)
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
    expectEnginesAgree(ann.trace, cfg,
                       workloadName(kind) + "/" +
                           std::to_string(static_cast<int>(strategy)));
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, EngineDifferential,
    ::testing::Combine(::testing::Values(WorkloadKind::Topopt,
                                         WorkloadKind::Pverify,
                                         WorkloadKind::LocusRoute,
                                         WorkloadKind::Mp3d,
                                         WorkloadKind::Water),
                       ::testing::Values(Strategy::NP, Strategy::PREF,
                                         Strategy::PWS)));

/** Configuration variants that reach paths the default config does
 *  not: channel-gated grants (dataChannels > 1), write-update
 *  downgrades, victim-cache swaps, and the non-snooping prefetch data
 *  buffer (remote kills of parked lines, parks that retire a fill
 *  without installing it). */
TEST(EngineDifferentialConfigs, Variants)
{
    WorkloadParams p;
    p.numProcs = 4;
    p.refsPerProc = 4000;
    p.seed = 2026;

    struct Variant
    {
        const char *name;
        WorkloadKind kind;
        Strategy strategy;
        void (*tweak)(SimConfig &);
    };
    const Variant variants[] = {
        {"water-pws-2ch", WorkloadKind::Water, Strategy::PWS,
         [](SimConfig &c) { c.timing.dataChannels = 2; }},
        {"mp3d-pref-update", WorkloadKind::Mp3d, Strategy::PREF,
         [](SimConfig &c) { c.protocol = CoherenceProtocol::WriteUpdate; }},
        {"mp3d-pws-victim", WorkloadKind::Mp3d, Strategy::PWS,
         [](SimConfig &c) { c.victimEntries = 4; }},
        {"water-pws-pdb", WorkloadKind::Water, Strategy::PWS,
         [](SimConfig &c) { c.prefetchDataBufferEntries = 8; }},
        {"pverify-pws-pdb", WorkloadKind::Pverify, Strategy::PWS,
         [](SimConfig &c) { c.prefetchDataBufferEntries = 8; }},
        {"topopt-pref-slowbus", WorkloadKind::Topopt, Strategy::PREF,
         [](SimConfig &c) { c.timing.dataTransfer = 32; }},
    };
    for (const Variant &v : variants) {
        const ParallelTrace trace = generateWorkload(v.kind, p);
        const AnnotatedTrace ann = annotateTrace(
            trace, v.strategy, CacheGeometry::paperDefault());
        SimConfig cfg;
        cfg.timing.dataTransfer = 8;
        v.tweak(cfg);
        expectEnginesAgree(ann.trace, cfg, v.name);
    }
}

/* ------------------------------------------------------------------ */
/* Burst-boundary hand traces                                          */
/* ------------------------------------------------------------------ */

// The paper's cache: 1024 sets of 32-byte lines, so lines 0x8000 apart
// share a set and lines 0x20 apart do not.
constexpr Addr kSetStride = 0x8000;

SimConfig
plainConfig()
{
    SimConfig cfg;
    cfg.timing.dataTransfer = 8;
    cfg.warmupEpisodes = 0;
    return cfg;
}

ParallelTrace
twoProc(Trace a, Trace b, unsigned locks = 0, unsigned barriers = 0)
{
    ParallelTrace pt;
    pt.name = "hand";
    pt.numLocks = locks;
    pt.numBarriers = barriers;
    pt.procs.push_back(std::move(a));
    pt.procs.push_back(std::move(b));
    return pt;
}

/** One processor on its own memory system, driven by hand: a test
 *  ticks it, queries its boundary and replays spans directly. */
struct HandProc
{
    explicit HandProc(const Trace &t, const PlacementList *placements = nullptr)
        : mem(1, cfg.geometry, cfg.timing, cfg.prefetchBufferDepth, stats),
          proc(0, t, mem, locks, barriers, stats[0], nullptr, placements)
    {
        mem.setWake([this](ProcId, bool retry) {
            proc.wake(retry, now);
            woken = true;
        });
    }

    /** Execute the first record, a read that misses, until its fill
     *  wakes the processor in its access phase. */
    void
    coldMiss()
    {
        proc.tick(now++); // Instruction cycle.
        proc.tick(now);   // Access: misses and blocks.
        while (!woken)
            mem.tick(++now); // The bus ticks first; the fill wakes it.
    }

    const SimConfig cfg = plainConfig();
    std::vector<ProcStats> stats = std::vector<ProcStats>(1);
    MemorySystem mem;
    LockTable locks{0};
    BarrierManager barriers{1};
    Processor proc;
    Cycle now = 0;
    bool woken = false;
};

/** A fill completion (wake) lands in the middle of another processor's
 *  instruction burst: the lagging processor must catch up there. */
TEST(BurstBoundary, WakeMidBurst)
{
    Trace a;
    a.append(TraceRecord::read(0x1000)); // Cold miss: ~totalLatency stall.
    a.append(TraceRecord::write(0x1000));
    a.appendInstrs(10);
    Trace b;
    b.appendInstrs(400); // Spans a's entire miss + wake.
    b.append(TraceRecord::read(0x1000)); // Then shares the line.
    expectEnginesAgree(twoProc(std::move(a), std::move(b)), plainConfig(),
                       "wake-mid-burst");
}

/** The last barrier arriver releases the waiters while a third party's
 *  burst is in flight; the waiter's rotation slot relative to the
 *  releaser decides whether the release cycle counts as waited. Both
 *  orderings are exercised (proc 0 releases proc 1, then proc 1's
 *  later arrival releases proc 0). */
TEST(BurstBoundary, BarrierReleaseMidBurst)
{
    Trace a;
    a.appendInstrs(10);
    a.append(TraceRecord::barrier(0));
    a.appendInstrs(500);
    a.append(TraceRecord::barrier(1));
    Trace b;
    b.appendInstrs(321); // Arrives at barrier 0 mid a's wait.
    b.append(TraceRecord::barrier(0));
    b.appendInstrs(3);
    b.append(TraceRecord::barrier(1)); // Waits for a's 500-burst.
    ParallelTrace pt =
        twoProc(std::move(a), std::move(b), 0, 2);
    expectEnginesAgree(pt, plainConfig(), "barrier-release-mid-burst");
}

/** A wait settled in several pieces: proc 0 blocks on a demand miss
 *  and then waits at a barrier while proc 1 upgrades lines proc 0
 *  holds. Each upgrade's invalidation catches proc 0 up, so the
 *  local-clock core bulk-adds each wait in several pieces. The pieces
 *  must sum to the cycle loop's per-tick counts, and with a sample at
 *  every cycle (a catch-up per cycle) every frame must read the same
 *  partial sums in both engines. */
TEST(BurstBoundary, WaitSettledInPieces)
{
    constexpr unsigned kLines = 6;
    const auto line = [](unsigned i) { return 0x5000 + Addr{i} * 32; };
    Trace a;
    for (unsigned i = 0; i < kLines; ++i)
        a.append(TraceRecord::read(line(i)));
    a.append(TraceRecord::read(0x6000)); // Blocks while proc 1 writes.
    a.appendInstrs(3);
    a.append(TraceRecord::barrier(0)); // Waits while proc 1 writes.
    a.appendInstrs(5);
    Trace b;
    for (unsigned i = 0; i < kLines; ++i)
        b.append(TraceRecord::read(line(i)));
    b.appendInstrs(80); // Two upgrades land in the miss, three after.
    for (unsigned i = 0; i < kLines; ++i) {
        // An upgrade: it invalidates proc 0's copy.
        b.append(TraceRecord::write(line(i)));
        b.appendInstrs(5);
    }
    b.append(TraceRecord::barrier(0));
    const ParallelTrace pt = twoProc(std::move(a), std::move(b), 0, 1);
    expectEnginesAgree(pt, plainConfig(), "wait-settled-in-pieces");

    // The trace does what it is for: proc 0's barrier wait grows in
    // several steps, and its memory waits in more than one entry and
    // one wake per miss give.
    Simulator sim(pt, plainConfig());
    unsigned demand_steps = 0, barrier_steps = 0;
    ProcStats prev = sim.procStats()[0];
    while (sim.stepLocal()) {
        const ProcStats &now = sim.procStats()[0];
        demand_steps += now.stallDemand != prev.stallDemand ? 1 : 0;
        barrier_steps += now.waitBarrier != prev.waitBarrier ? 1 : 0;
        prev = now;
    }
    EXPECT_GE(barrier_steps, 3u);
    EXPECT_GT(demand_steps, 2 * (kLines + 1));

    const auto series = [&](SimEngine engine) {
        ObsContext obs;
        SimConfig cfg = plainConfig();
        cfg.obs = &obs;
        cfg.engine = engine;
        cfg.sampleInterval = 1;
        cfg.traceLabel = "hand";
        simulate(pt, cfg);
        std::ostringstream os;
        obs.timeseries.writeJson(os);
        return os.str();
    };
    EXPECT_EQ(series(SimEngine::CycleLoop), series(SimEngine::LocalClock));
}

/** The warmup statistics reset fires at a barrier in the middle of
 *  long bursts; the post-reset counters must match exactly. */
TEST(BurstBoundary, WarmupResetMidBurst)
{
    Trace a;
    a.appendInstrs(50);
    for (unsigned i = 0; i < 6; ++i)
        a.append(TraceRecord::read(0x2000 + Addr{i} * 32));
    a.append(TraceRecord::barrier(0));
    a.appendInstrs(700);
    for (unsigned i = 0; i < 6; ++i)
        a.append(TraceRecord::write(0x2000 + Addr{i} * 32));
    Trace b;
    b.appendInstrs(200);
    b.append(TraceRecord::barrier(0));
    b.appendInstrs(900);
    b.append(TraceRecord::read(0x2004));
    SimConfig cfg = plainConfig();
    cfg.warmupEpisodes = 1; // Reset at barrier 0.
    expectEnginesAgree(twoProc(std::move(a), std::move(b), 0, 1), cfg,
                       "warmup-reset-mid-burst");
}

/** A spin window: the lock holder computes for a long burst while the
 *  other processor retries every cycle; the release must be picked up
 *  at the exact cycle in both engines (including the rotation-order
 *  race for the freshly freed lock). */
TEST(BurstBoundary, SpinLockGap)
{
    Trace a;
    a.append(TraceRecord::lockAcquire(0));
    a.appendInstrs(300);
    a.append(TraceRecord::lockRelease(0));
    a.appendInstrs(5);
    Trace b;
    b.appendInstrs(2); // Arrives at the lock while a holds it.
    b.append(TraceRecord::lockAcquire(0));
    b.append(TraceRecord::write(0x3000));
    b.append(TraceRecord::lockRelease(0));
    expectEnginesAgree(twoProc(std::move(a), std::move(b), 1, 0),
                       plainConfig(), "spinlock-gap");
}

/** Prefetch back-pressure: more outstanding prefetches than MSHRs force
 *  StallPrefetch, which the local-clock core sleeps through until one
 *  of the stalled processor's own fills frees an MSHR. A second
 *  processor then writes the prefetched lines during the stall: its
 *  invalidations touch the sleeper, and in-flight prefetches arrive
 *  dead but still free their slots. */
TEST(BurstBoundary, PrefetchBufferFull)
{
    constexpr unsigned kLines = 24;
    Trace a;
    for (unsigned i = 0; i < kLines; ++i)
        a.append(TraceRecord::prefetch(0x8000 + Addr{i} * 32));
    a.appendInstrs(300);
    for (unsigned i = 0; i < kLines; ++i)
        a.append(TraceRecord::read(0x8000 + Addr{i} * 32));
    Trace b;
    b.appendInstrs(40);
    b.append(TraceRecord::read(0x8000));
    expectEnginesAgree(twoProc(a, std::move(b)), plainConfig(),
                       "prefetch-buffer-full");

    Trace writer;
    writer.appendInstrs(5);
    for (unsigned i = 0; i < kLines; ++i) {
        writer.append(TraceRecord::write(0x8000 + Addr{i} * 32));
        writer.appendInstrs(3);
    }
    const ParallelTrace pt = twoProc(a, std::move(writer));
    SimConfig victim = plainConfig();
    victim.victimEntries = 4;
    SimConfig pdb = plainConfig();
    pdb.prefetchDataBufferEntries = 16;
    const std::pair<const char *, SimConfig> configs[] = {
        {"base", plainConfig()}, {"victim4", victim}, {"pdb16", pdb}};
    for (const unsigned depth : {1u, 2u}) {
        for (auto [name, cfg] : configs) {
            cfg.prefetchBufferDepth = depth;
            const std::string what = "prefetch-buffer-full-written depth=" +
                                     std::to_string(depth) + " " + name;
            expectEnginesAgree(pt, cfg, what);
            // The trace does what it is for: the prefetcher stalls on
            // its buffer, and the writer kills prefetched lines.
            const ProcStats ps = simulate(pt, cfg).procs[0];
            EXPECT_GT(ps.stallPrefetchQueue, 0u) << what;
            EXPECT_GT(ps.misses.invalPrefetched +
                          ps.misses.nonSharingPrefetched,
                      0u)
                << what;
        }
    }
}

/** Degenerate shapes: an empty trace (Done at construction) beside a
 *  live one, and a single-processor pure-instruction run whose cycle
 *  count is exactly its instruction count. */
TEST(BurstBoundary, EmptyAndPureInstr)
{
    Trace a;
    a.appendInstrs(123);
    a.append(TraceRecord::read(0x4000));
    expectEnginesAgree(twoProc(std::move(a), Trace{}), plainConfig(),
                       "empty-beside-live");

    ParallelTrace solo;
    solo.name = "solo";
    Trace s;
    s.appendInstrs(1000);
    solo.procs.push_back(std::move(s));
    SimConfig cfg = plainConfig();
    const SimStats stats = simulate(solo, cfg);
    EXPECT_EQ(stats.cycles, 1000u);
    EXPECT_EQ(stats.procs[0].busy, 1000u);
    expectEnginesAgree(solo, plainConfig(), "single-proc-pure-instr");
}

/** A walk stops at every prefetch, even one that drops: after an
 *  Instr burst, a prefetch to a resident line ends the plan at its
 *  instruction cycle, and its access cycle runs exactly and counts
 *  the drop. The processor is driven by hand to the burst's start. */
TEST(BurstBoundary, WalkStopsAtPrefetch)
{
    const Addr line = 0x1000;
    Trace t;
    t.append(TraceRecord::read(line)); // Cold miss: the line goes resident.
    t.appendInstrs(10);
    t.append(TraceRecord::prefetch(line)); // Resident: dropped.
    t.appendInstrs(5);

    HandProc h(t);
    h.coldMiss();
    // The woken read retries and hits quietly; then come the burst and
    // the prefetch's instruction cycle, and nothing after them.
    EXPECT_EQ(h.proc.inertCycles(h.now), 1u + 10u + 1u);

    const SimConfig cfg = plainConfig();
    const ParallelTrace pt = twoProc(t, Trace{});
    expectEnginesAgree(pt, cfg, "walk-stops-at-prefetch");
    const ProcStats ps = simulate(pt, cfg).procs[0];
    EXPECT_EQ(ps.prefetchesDroppedResident, 1u);
    EXPECT_EQ(ps.prefetchesExecuted, 1u);
}

/** A walk stops before a trace's final record, so that record always
 *  executes in exact ticks and no replay retires the trace: a final
 *  quiet hit and a final Instr burst. Each processor is driven by hand
 *  past a cold miss to its quiet stretch, replays it, and must then
 *  need an exact tick at every cycle until its last tick retires it. */
TEST(BurstBoundary, FinalRecordRunsExactly)
{
    const Addr line = 0x1000;
    const std::pair<const char *, TraceRecord> finals[] = {
        {"quiet-hit", TraceRecord::read(line)},
        {"instr-burst", TraceRecord::instr(7)},
    };
    for (const auto &[name, last] : finals) {
        SCOPED_TRACE(name);
        Trace t;
        t.append(TraceRecord::read(line)); // Cold miss.
        t.appendInstrs(10);
        t.append(TraceRecord::write(line)); // Quiet: the line is E.
        t.append(last);

        HandProc h(t);
        h.coldMiss();
        // The retried read hits, then come the burst and the write's
        // two cycles; the walk stops at the final record's first cycle.
        const Cycle quiet = 1 + 10 + 2;
        ASSERT_EQ(h.proc.inertCycles(h.now), quiet);
        h.proc.fastForward(quiet, h.now);
        h.now += quiet;
        EXPECT_FALSE(h.proc.done());
        const Cycle final_cycles = last.kind == RecordKind::Read ? 2 : 7;
        for (Cycle i = 0; i < final_cycles; ++i) {
            ASSERT_FALSE(h.proc.done()) << "cycle " << i;
            EXPECT_EQ(h.proc.inertCycles(h.now), 0u) << "cycle " << i;
            h.proc.tick(h.now++);
        }
        EXPECT_TRUE(h.proc.done());
        EXPECT_EQ(h.stats[0].finishedAt, h.now);
        EXPECT_EQ(h.stats[0].busy, 1 + quiet + final_cycles);

        expectEnginesAgree(twoProc(t, Trace{}), plainConfig(), name);
    }
}

/** A walk's only limits besides real boundaries are the plan's size
 *  bounds, 0xffff steps and 2^32 - 1 cycles, which no generated
 *  workload reaches. A walk stopped by either ends at an ordinary
 *  boundary that ticks exactly. Driven by hand; the cycle bound is
 *  four billion cycles away, so that case never runs on the cycle
 *  loop. */
TEST(BurstBoundary, PlanSizeBounds)
{
    const Addr line = 0x1000;
    {
        SCOPED_TRACE("step bound");
        constexpr Cycle kSteps = 0xffff;
        constexpr Cycle kHits = 70000;
        Trace t;
        t.append(TraceRecord::read(line)); // Cold miss.
        for (Cycle i = 0; i < kHits; ++i)
            t.append(TraceRecord::read(line)); // Quiet hits.
        t.appendInstrs(1);
        HandProc h(t);
        h.coldMiss();
        // The retried access is one step, then whole references of two
        // cycles each, up to the step bound.
        const Cycle quiet = 1 + 2 * (kSteps - 1);
        ASSERT_EQ(h.proc.inertCycles(h.now), quiet);
        h.proc.fastForward(quiet, h.now);
        h.now += quiet;
        EXPECT_EQ(h.stats[0].reads, kSteps);
        EXPECT_EQ(h.stats[0].busy, 1 + quiet);
        // The bound is a boundary: the next reference's instruction
        // cycle executes exactly, then a walk takes the access and the
        // rest of the hits, up to the final record.
        EXPECT_EQ(h.proc.inertCycles(h.now), 0u);
        h.proc.tick(h.now++);
        EXPECT_EQ(h.proc.inertCycles(h.now), 1 + 2 * (kHits - kSteps));

        expectEnginesAgree(twoProc(t, Trace{}), plainConfig(),
                           "plan-step-bound");
    }
    {
        SCOPED_TRACE("cycle bound");
        Trace t;
        t.appendInstrs(1);
        t.appendInstrs(kMaxInstrCount); // Too long to fold: a record.
        t.append(TraceRecord::barrier(0));
        ASSERT_EQ(t.size(), 3u);
        HandProc h(t);
        // One quiet cycle and the whole burst would pass the bound: the
        // walk stops before the burst.
        ASSERT_EQ(h.proc.inertCycles(h.now), 1u);
        h.proc.tick(h.now++);
        // A walk from the burst's start takes it whole.
        ASSERT_EQ(h.proc.inertCycles(h.now), Cycle{kMaxInstrCount});
        h.proc.fastForward(kMaxInstrCount, h.now);
        h.now += kMaxInstrCount;
        EXPECT_EQ(h.stats[0].busy, 1 + Cycle{kMaxInstrCount});
        EXPECT_EQ(h.proc.inertCycles(h.now), 0u);
    }
}

/* ------------------------------------------------------------------ */
/* Views: a base trace plus placements                                 */
/* ------------------------------------------------------------------ */

/** Simulate @p view and its materialized copy on both engines: all
 *  four runs must agree on the complete fingerprint. */
void
expectViewSimulatesAsCopy(const TraceView &view, SimConfig cfg,
                          const std::string &what)
{
    const ParallelTrace copy = view.materialize();
    cfg.engine = SimEngine::CycleLoop;
    const std::string want = fingerprint(simulate(copy, cfg));
    EXPECT_EQ(fingerprint(simulate(view, cfg)), want) << what << " cycle";
    cfg.engine = SimEngine::LocalClock;
    EXPECT_EQ(fingerprint(simulate(copy, cfg)), want) << what << " copy";
    EXPECT_EQ(fingerprint(simulate(view, cfg)), want) << what << " local";
}

/** A view of @p base with @p placements, one list per processor. */
TraceView
viewOf(const ParallelTrace &base, std::vector<PlacementList> placements)
{
    TraceView v;
    v.base = std::make_shared<const ParallelTrace>(base);
    v.placements = std::move(placements);
    return v;
}

/** Placements at a record's start, inside a burst (two at one split
 *  point), in the final record, and after it: each view simulates as
 *  its copy, and a walk takes a placement's burst head and its
 *  instruction cycle. */
TEST(ViewSimulation, HandPlacements)
{
    const Addr line = 0x1000, other = 0x2000;
    Trace a;
    a.append(TraceRecord::read(line)); // Cold miss.
    a.appendInstrs(10);
    a.append(TraceRecord::write(line));
    a.appendInstrs(30);
    a.append(TraceRecord::read(line));
    Trace b;
    b.appendInstrs(25);
    b.append(TraceRecord::write(line + 4)); // Steals the line.
    b.appendInstrs(5);
    const ParallelTrace base = twoProc(a, b);
    const struct
    {
        const char *name;
        PlacementList placements;
    } cases[] = {
        {"record-start", {{2, other, 0, false}}},
        {"mid-burst", {{1, other, 4, false}, {1, other + 32, 4, true}}},
        {"burst-tail", {{3, other, 29, true}}},
        {"final-record", {{4, other, 0, true}}},
        {"trailing", {{5, other, 0, false}, {5, other + 32, 0, false}}},
        {"everywhere",
         {{0, other, 0, true}, {1, other + 32, 9, false},
          {3, other + 64, 0, false}, {5, other + 96, 0, true}}},
    };
    for (const auto &c : cases) {
        const TraceView v = viewOf(base, {c.placements, {}});
        expectViewSimulatesAsCopy(v, plainConfig(), c.name);
    }

    // Driven by hand past the cold miss: the retried read hits, then
    // the walk takes the burst's four cycles before the placement and
    // the placement's instruction cycle, which ends it.
    const PlacementList mid = {{1, other, 4, false}};
    HandProc h(a, &mid);
    h.coldMiss();
    ASSERT_EQ(h.proc.inertCycles(h.now), 1u + 4u + 1u);
    // A replay that stops at the placement leaves the cursor on it.
    h.proc.fastForward(5, h.now);
    h.now += 5;
    EXPECT_EQ(h.proc.inertCycles(h.now), 1u);
    h.proc.tick(h.now++); // The prefetch's instruction cycle.
    EXPECT_EQ(h.proc.inertCycles(h.now), 0u);
    h.proc.tick(h.now++); // Its access issues.
    EXPECT_EQ(h.stats[0].prefetchesExecuted, 1u);
    // The rest of the burst, the write (a quiet hit on the exclusive
    // line) and the next burst, up to the final record.
    EXPECT_EQ(h.proc.inertCycles(h.now), 6u + 2u + 30u);
}

/** A raw base (Instr(0) records, unfolded bursts) simulates exactly as
 *  its canonical form, which both readers return: with no placement
 *  lists, with empty ones, and with placements (the same ones on the
 *  canonical records), on both engines. */
TEST(ViewSimulation, RawBaseSimulatesAsCanonical)
{
    ParallelTrace raw;
    raw.name = "raw";
    raw.numBarriers = 1;
    raw.procs.resize(2);
    raw.procs[0].records() = {
        TraceRecord::instr(0),      TraceRecord::instr(150),
        TraceRecord::instr(90),     TraceRecord::read(0x1000),
        TraceRecord::instr(0),      TraceRecord::write(0x2000),
        TraceRecord::barrier(0),    TraceRecord::instr(200),
        TraceRecord::instr(60),     TraceRecord::read(0x3000),
        TraceRecord::read(0x1000),  TraceRecord::instr(0)};
    raw.procs[1].records() = {
        TraceRecord::read(0x1000), TraceRecord::write(0x1004),
        TraceRecord::instr(3),     TraceRecord::instr(0),
        TraceRecord::barrier(0),   TraceRecord::instr(0),
        TraceRecord::instr(120),   TraceRecord::read(0x3000),
        TraceRecord::instr(0)};
    ParallelTrace canonical = raw;
    canonical.procs[0].records() = {
        TraceRecord::instr(240),  TraceRecord::read(0x1000),
        TraceRecord::write(0x2000), TraceRecord::barrier(0),
        TraceRecord::instr(260),  TraceRecord::read(0x3000),
        TraceRecord::read(0x1000)};
    canonical.procs[1].records() = {
        TraceRecord::read(0x1000), TraceRecord::write(0x1004),
        TraceRecord::instr(3),     TraceRecord::barrier(0),
        TraceRecord::instr(120),   TraceRecord::read(0x3000)};
    std::stringstream bytes, text;
    writeTraceBinary(bytes, raw);
    writeTrace(text, raw);
    for (const ParallelTrace &read :
         {readTraceBinary(bytes), readTrace(text)}) {
        ASSERT_EQ(read.procs[0].records(), canonical.procs[0].records());
        ASSERT_EQ(read.procs[1].records(), canonical.procs[1].records());
    }

    // Placements in an Instr(0), inside an unfolded burst, and after a
    // trailing Instr(0); then the same positions in canonical records.
    const std::vector<PlacementList> hand = {
        {{0, 0x4000, 0, false}, {2, 0x4020, 45, true}, {12, 0x4040, 0, false}},
        {{3, 0x4060, 0, false}, {9, 0x4080, 0, true}}};
    const std::vector<PlacementList> hand_canonical = {
        {{0, 0x4000, 0, false}, {0, 0x4020, 195, true}, {7, 0x4040, 0, false}},
        {{3, 0x4060, 0, false}, {6, 0x4080, 0, true}}};
    const struct
    {
        const char *name;
        TraceView raw, canonical;
    } cases[] = {
        {"no-lists", viewOf(raw, {}), viewOf(canonical, {})},
        {"empty-lists", viewOf(raw, {{}, {}}), viewOf(canonical, {{}, {}})},
        {"hand", viewOf(raw, hand), viewOf(canonical, hand_canonical)},
    };
    const ParallelTrace hand_copy = cases[2].raw.materialize();
    for (std::size_t p = 0; p < 2; ++p) {
        ASSERT_EQ(hand_copy.procs[p].records(),
                  cases[2].canonical.materialize().procs[p].records());
    }

    const auto shared = std::make_shared<const ParallelTrace>(raw);
    for (const unsigned warmup : {0u, 1u}) {
        SimConfig cfg = plainConfig();
        cfg.warmupEpisodes = warmup;
        for (const auto &c : cases) {
            const std::string what =
                std::string(c.name) + " warmup=" + std::to_string(warmup);
            cfg.engine = SimEngine::CycleLoop;
            const std::string want = fingerprint(simulate(c.canonical, cfg));
            EXPECT_EQ(fingerprint(simulate(c.raw, cfg)), want) << what;
            cfg.engine = SimEngine::LocalClock;
            EXPECT_EQ(fingerprint(simulate(c.canonical, cfg)), want) << what;
            EXPECT_EQ(fingerprint(simulate(c.raw, cfg)), want) << what;
            expectViewSimulatesAsCopy(c.raw, cfg, what);
        }
        // A plain trace is the view with no lists.
        EXPECT_EQ(fingerprint(simulate(raw, cfg)),
                  fingerprint(simulate(canonical, cfg)));
        for (const Strategy s : {Strategy::NP, Strategy::PREF}) {
            const AnnotatedView view = annotateView(
                shared, strategyParams(s), CacheGeometry::paperDefault());
            expectViewSimulatesAsCopy(view.trace, cfg, strategyName(s));
        }
    }
}

/** Every generator's annotations, simulated as views and as copies. */
TEST(ViewSimulation, GeneratedAnnotations)
{
    WorkloadParams p;
    p.numProcs = 4;
    p.refsPerProc = 3000;
    p.seed = 2026;
    for (const WorkloadKind kind : allWorkloads()) {
        const auto base =
            std::make_shared<const ParallelTrace>(generateWorkload(kind, p));
        for (const Strategy s : allStrategies()) {
            const AnnotatedView view = annotateView(
                base, strategyParams(s), CacheGeometry::paperDefault());
            SimConfig cfg;
            cfg.timing.dataTransfer = 8;
            expectViewSimulatesAsCopy(view.trace, cfg,
                                      workloadName(kind) + "/" +
                                          strategyName(s));
        }
    }
}

/** A replay may not pass the boundary inertCycles() reported: one
 *  cycle more panics. */
TEST(BurstBoundaryDeathTest, ReplayPastPlanEndPanics)
{
    Trace t;
    t.appendInstrs(10);
    t.append(TraceRecord::barrier(0));
    HandProc h(t);
    ASSERT_EQ(h.proc.inertCycles(0), 10u);
    EXPECT_DEATH(h.proc.fastForward(11, 0),
                 "proc 0 was asked to replay 11 cycles at 0 past the end "
                 "of its quiet plan");
}

/** The run ends in the cycle the last trace retires, which the cycle
 *  loop never executes; its bus acts there only in the writeback
 *  drain. A trailing burst whose length is swept across the grant and
 *  completion cycles of the processor's own bus operations (prefetch
 *  fills, a dirty writeback) lands that cycle on every kind of bus
 *  event in turn. */
TEST(BurstBoundary, TraceEndsOnBusCycle)
{
    const Addr a = 0x1000, b = 0x1020, c = 0x1040;
    const std::pair<const char *, std::vector<TraceRecord>> heads[] = {
        {"prefetch", {TraceRecord::prefetch(a)}},
        {"prefetch3",
         {TraceRecord::prefetch(a), TraceRecord::prefetch(b),
          TraceRecord::prefetch(c)}},
        {"writeback",
         {TraceRecord::write(a), TraceRecord::write(a + kSetStride)}},
    };
    for (const auto &[name, head] : heads) {
        for (unsigned len = 1; len < 300; ++len) {
            Trace t;
            for (const TraceRecord &r : head)
                t.append(r);
            t.appendInstrs(len);
            Trace other;
            other.appendInstrs(3);
            expectEnginesAgree(twoProc(std::move(t), std::move(other)),
                               plainConfig(),
                               std::string(name) + " burst " +
                                   std::to_string(len));
        }
    }
}

/** stepLocal() must always make progress and never overshoot: each call
 *  advances the frontier by at least one cycle, and the run ends at the
 *  same final cycle as the reference loop. */
TEST(BurstBoundary, StepLocalMonotonic)
{
    WorkloadParams p;
    p.numProcs = 4;
    p.refsPerProc = 1000;
    p.seed = 7;
    const ParallelTrace trace = generateWorkload(WorkloadKind::Water, p);

    SimConfig cfg;
    cfg.engine = SimEngine::CycleLoop;
    Simulator oracle(trace, cfg);
    while (oracle.stepCycle()) {
    }

    cfg.engine = SimEngine::LocalClock;
    Simulator local(trace, cfg);
    Cycle prev = local.currentCycle();
    std::uint64_t steps = 0;
    while (local.stepLocal()) {
        ASSERT_GT(local.currentCycle(), prev);
        prev = local.currentCycle();
        ++steps;
    }
    EXPECT_EQ(local.currentCycle(), oracle.currentCycle());
    // The whole point: far fewer exact steps than simulated cycles.
    EXPECT_LT(steps, static_cast<std::uint64_t>(local.currentCycle()));
}

/* ------------------------------------------------------------------ */
/* Quiet-plan invalidation                                             */
/* ------------------------------------------------------------------ */

/** Append @p times copies of @p body. */
void
repeat(Trace &t, unsigned times, std::initializer_list<TraceRecord> body)
{
    for (unsigned i = 0; i < times; ++i) {
        for (const TraceRecord &r : body)
            t.append(r);
    }
}

/**
 * Run @p trace on both engines; require identical statistics, and on
 * the local-clock core the full line invariant suite for every line of
 * @p lines after every step (the plan replays quiet hits into those
 * lines' frames around the remote changes). @return the statistics.
 */
SimStats
expectPlanCase(const ParallelTrace &trace, SimConfig cfg,
               std::initializer_list<Addr> lines, const std::string &what)
{
    cfg.engine = SimEngine::CycleLoop;
    const std::string want = fingerprint(simulate(trace, cfg));
    cfg.engine = SimEngine::LocalClock;
    Simulator sim(trace, cfg);
    const auto check = [&] {
        for (const Addr line : lines) {
            std::string why;
            EXPECT_TRUE(sim.memory().checkLineInvariantDetail(line, &why))
                << what << " at cycle " << sim.currentCycle() << ": " << why;
        }
    };
    while (sim.stepLocal())
        check();
    const SimStats got = sim.run();
    check();
    EXPECT_EQ(want, fingerprint(got)) << what;
    return got;
}

/** Proc 1 invalidates a line of proc 0's in a set its quiet plan never
 *  reads: the version bump drops the plan all the same, the next query
 *  walks afresh mid-window, and the later access to the line is an
 *  invalidation miss. */
TEST(PlanInvalidation, RemoteInvalidationOutsideWalkedSets)
{
    const Addr hot = 0x1000, other = 0x2040;
    Trace a;
    a.append(TraceRecord::read(other));
    a.append(TraceRecord::read(hot));
    repeat(a, 300, {TraceRecord::instr(3), TraceRecord::read(hot)});
    a.append(TraceRecord::barrier(0));
    a.append(TraceRecord::read(other));
    Trace b;
    b.append(TraceRecord::read(other));
    b.appendInstrs(400);
    b.append(TraceRecord::write(other + 4)); // Mid proc 0's plan.
    b.append(TraceRecord::barrier(0));
    const SimStats s = expectPlanCase(twoProc(std::move(a), std::move(b), 0, 1),
                                      plainConfig(), {hot, other},
                                      "inval-outside");
    EXPECT_EQ(s.procs[0].misses.invalNotPrefetched, 1u);
    EXPECT_EQ(s.procs[0].misses.falseSharing, 1u); // Word 1 untouched.
}

/** Proc 1 invalidates a line proc 0's plan keeps hitting: the plan is
 *  dropped, the next access misses, and the false-sharing attribution
 *  sees exactly the words replayed before the invalidation. */
TEST(PlanInvalidation, RemoteInvalidationInsideWalkedSets)
{
    const Addr hot = 0x1000, shared = 0x2040;
    Trace a;
    a.append(TraceRecord::read(hot));
    a.append(TraceRecord::read(shared));
    repeat(a, 300, {TraceRecord::instr(3), TraceRecord::read(hot),
                    TraceRecord::read(shared + 8)});
    Trace b;
    b.append(TraceRecord::read(shared));
    b.appendInstrs(400);
    b.append(TraceRecord::write(shared + 8)); // A word proc 0 reads.
    b.appendInstrs(400);
    b.append(TraceRecord::write(shared + 16)); // A word it never reads.
    const SimStats s = expectPlanCase(twoProc(std::move(a), std::move(b)),
                                      plainConfig(), {hot, shared},
                                      "inval-inside");
    EXPECT_EQ(s.procs[0].misses.invalNotPrefetched, 2u);
    EXPECT_EQ(s.procs[0].misses.falseSharing, 1u);
}

/** Proc 0's own prefetch fill lands in the set of the line its plan
 *  keeps hitting and evicts it: the plan is dropped at the fill and
 *  the next access misses. */
TEST(PlanInvalidation, FillEvictsWalkedLine)
{
    const Addr hot = 0x1000, conflict = hot + kSetStride;
    Trace a;
    a.append(TraceRecord::read(hot));
    a.append(TraceRecord::prefetch(conflict));
    repeat(a, 100, {TraceRecord::instr(3), TraceRecord::read(hot)});
    Trace b;
    b.appendInstrs(50);
    const SimStats s = expectPlanCase(twoProc(std::move(a), std::move(b)),
                                      plainConfig(), {hot, conflict},
                                      "fill-evicts");
    EXPECT_EQ(s.procs[0].misses.nonSharingNotPrefetched, 2u);
    EXPECT_EQ(s.procs[0].prefetchMisses, 1u);
}

/** Proc 0 re-executes a prefetch while its fill is in flight, which
 *  drops it as a duplicate in an exact cycle between quiet plans;
 *  proc 1's write kills the fill, which then arrives dead. The dead
 *  fill retires the MSHR and drops the plan, so the next prefetch
 *  issues again instead of dropping. */
TEST(PlanInvalidation, DeadFillUnderDuplicateDrop)
{
    const Addr hot = 0x1000, line = 0x3000;
    Trace a;
    a.append(TraceRecord::read(hot));
    a.append(TraceRecord::prefetch(line));
    repeat(a, 60, {TraceRecord::instr(4), TraceRecord::read(hot),
                   TraceRecord::prefetch(line)});
    Trace b;
    b.appendInstrs(20);
    b.append(TraceRecord::write(line)); // Kills proc 0's fill in flight.
    const SimStats s = expectPlanCase(twoProc(std::move(a), std::move(b)),
                                      plainConfig(), {hot, line},
                                      "dead-fill");
    EXPECT_GT(s.procs[0].prefetchesDroppedDuplicate, 0u);
    EXPECT_GE(s.procs[0].prefetchMisses, 2u);
}

/** With a two-entry prefetch data buffer, proc 0 drops prefetches of
 *  a parked line in exact cycles between quiet plans; a later park
 *  displaces that line, so the same prefetch must issue again. */
TEST(PlanInvalidation, PrefetchDataBufferPark)
{
    const Addr hot = 0x1000, p1 = 0x4000, p2 = 0x4020, p3 = 0x4040;
    Trace a;
    a.append(TraceRecord::read(hot));
    a.append(TraceRecord::prefetch(p1));
    a.append(TraceRecord::prefetch(p2));
    repeat(a, 40, {TraceRecord::instr(2), TraceRecord::read(hot),
                   TraceRecord::prefetch(p1)});
    a.append(TraceRecord::prefetch(p3));
    repeat(a, 60, {TraceRecord::instr(2), TraceRecord::read(hot),
                   TraceRecord::prefetch(p1)});
    Trace b;
    b.appendInstrs(50);
    SimConfig cfg = plainConfig();
    cfg.prefetchDataBufferEntries = 2;
    const SimStats s = expectPlanCase(twoProc(std::move(a), std::move(b)),
                                      cfg, {hot, p1, p2, p3}, "pdb-park");
    EXPECT_GT(s.procs[0].prefetchesDroppedResident, 0u);
    EXPECT_GE(s.procs[0].prefetchMisses, 4u); // p1 issues again.
}

/** Write-update: proc 1's writes to a line proc 0 keeps reading
 *  broadcast without touching proc 0's plan; its read of proc 0's
 *  private line downgrades it, which drops the plan (the next write
 *  there is a bus operation). */
TEST(PlanInvalidation, WriteUpdateBroadcast)
{
    const Addr shared = 0x2000, mine = 0x5000;
    Trace a;
    a.append(TraceRecord::write(mine));
    a.append(TraceRecord::read(shared));
    repeat(a, 80, {TraceRecord::instr(3), TraceRecord::read(shared),
                   TraceRecord::write(mine)});
    Trace b;
    b.append(TraceRecord::read(shared));
    b.appendInstrs(100);
    b.append(TraceRecord::write(shared));
    b.appendInstrs(100);
    b.append(TraceRecord::read(mine));
    b.appendInstrs(20);
    b.append(TraceRecord::write(shared + 4));
    SimConfig cfg = plainConfig();
    cfg.protocol = CoherenceProtocol::WriteUpdate;
    const SimStats s = expectPlanCase(twoProc(std::move(a), std::move(b)),
                                      cfg, {shared, mine}, "write-update");
    EXPECT_EQ(s.procs[1].upgradesIssued, 2u);
    EXPECT_GT(s.procs[0].upgradesIssued, 0u);
}

/* ------------------------------------------------------------------ */
/* SplitBus event queries                                              */
/* ------------------------------------------------------------------ */

struct BusProbe
{
    explicit BusProbe(const BusTiming &timing) : bus(timing, 4)
    {
        bus.setCompletion([this](const Transaction &, Cycle) {
            ++completions;
        });
    }

    Transaction
    make(BusOpKind kind, ProcId proc, Addr line)
    {
        Transaction t;
        t.kind = kind;
        t.requester = proc;
        t.lineBase = line;
        t.issuedAt = cycle;
        return t;
    }

    SplitBus bus;
    Cycle cycle = 0;
    unsigned completions = 0;
};

TEST(BusEventQueries, IdleBusHasNoEvents)
{
    BusProbe h(BusTiming{100, 8, 2});
    EXPECT_EQ(h.bus.nextCompletionCycle(0), kNoCycle);
    EXPECT_EQ(h.bus.nextGrantCycle(0), kNoCycle);
}

TEST(BusEventQueries, DataOpGrantThenCompletion)
{
    const BusTiming t{100, 8, 2};
    BusProbe h(t);
    h.bus.request(h.make(BusOpKind::ReadShared, 0, 0x1000), 0);
    // The memory phase hides totalLatency - dataTransfer cycles; the
    // grant becomes possible when it elapses.
    EXPECT_EQ(h.bus.nextGrantCycle(0), t.memoryPhase());
    EXPECT_EQ(h.bus.nextCompletionCycle(0), kNoCycle); // Nothing active.
    // `now` past the ready cycle clamps up, never back.
    EXPECT_EQ(h.bus.nextGrantCycle(t.memoryPhase() + 5),
              t.memoryPhase() + 5);

    h.bus.tick(t.memoryPhase()); // Grant: occupies the data bus.
    EXPECT_EQ(h.bus.nextGrantCycle(t.memoryPhase()), kNoCycle);
    EXPECT_EQ(h.bus.nextCompletionCycle(t.memoryPhase()),
              t.memoryPhase() + t.dataTransfer);

    h.bus.tick(t.memoryPhase() + t.dataTransfer);
    EXPECT_EQ(h.completions, 1u);
    EXPECT_EQ(h.bus.nextCompletionCycle(t.memoryPhase() + t.dataTransfer),
              kNoCycle);
}

TEST(BusEventQueries, ChannelGatingBlocksGrants)
{
    const BusTiming t{100, 8, 2}; // One data channel.
    BusProbe h(t);
    h.bus.request(h.make(BusOpKind::ReadShared, 0, 0x1000), 0);
    h.bus.request(h.make(BusOpKind::ReadShared, 1, 0x2000), 0);
    h.bus.tick(t.memoryPhase()); // First grant fills the only channel.
    // The second op is ready but cannot be granted: the next event is
    // the active transfer's completion, which frees the channel.
    EXPECT_EQ(h.bus.nextGrantCycle(t.memoryPhase() + 1), kNoCycle);
    EXPECT_EQ(h.bus.nextCompletionCycle(t.memoryPhase() + 1),
              t.memoryPhase() + t.dataTransfer);
}

TEST(BusEventQueries, AddressClassCompletesWithoutGrant)
{
    const BusTiming t{100, 8, 2};
    BusProbe h(t);
    h.bus.request(h.make(BusOpKind::Upgrade, 2, 0x3000), 10);
    // Address-class ops never wait for a data channel: they complete
    // after the (short) address-bus occupancy.
    EXPECT_EQ(h.bus.nextCompletionCycle(10), 10 + t.upgradeOccupancy);
    EXPECT_EQ(h.bus.nextGrantCycle(10), kNoCycle);
}

TEST(BusEventQueries, TickBeforeNextEventChangesNothing)
{
    // Every frontier jump, and every exact cycle that a processor
    // boundary alone made exact, ticks the bus at cycles where neither
    // a completion nor a grant is due. Such a tick must be a no-op.
    // Drive a mixed stream (demand and prefetch data operations,
    // writebacks, upgrades) from event to event, ticking every cycle
    // in between, and check that nothing observable moves.
    const auto observe = [](const BusProbe &h, Cycle now) {
        const BusStats &s = h.bus.stats();
        return std::vector<std::uint64_t>{
            h.completions, s.busyCycles, s.opCount[0], s.opCount[1],
            s.opCount[2], s.opCount[3], s.opCount[4], s.queueWaitDemand,
            s.queueWaitPrefetch, s.grantsDemand, s.grantsPrefetch,
            h.bus.queuedOps(), h.bus.activeTransfers(),
            h.bus.nextCompletionCycle(now), h.bus.nextGrantCycle(now)};
    };
    const BusOpKind kinds[] = {BusOpKind::ReadShared,
                               BusOpKind::ReadExclusive,
                               BusOpKind::Upgrade, BusOpKind::WriteBack};
    for (unsigned channels : {1u, 2u}) {
        BusProbe h(BusTiming{40, 8, 2, channels});
        std::uint64_t rng = 12345 + channels;
        Cycle now = 0;
        unsigned events = 0, quiet_ticks = 0, queued_and_active = 0;
        for (unsigned step = 0; step < 5000; ++step) {
            if (step < 300) {
                // Zero to three requests at the current cycle; one in
                // five is an ownerless writeback, one in three of the
                // others a prefetch.
                rng = rng * 6364136223846793005ull + 1442695040888963407ull;
                for (unsigned k = 0; k < (rng >> 60) % 4; ++k) {
                    const auto r = rng >> (8 * k + 4);
                    const bool owned = r % 5 != 4;
                    Transaction t = h.make(
                        owned ? kinds[(r >> 3) % 4] : BusOpKind::WriteBack,
                        owned ? static_cast<ProcId>(r % 4) : kNoProc,
                        0x40 * ((r >> 5) % 64));
                    t.isPrefetch = owned && (r >> 11) % 3 == 0;
                    t.issuedAt = now;
                    h.bus.request(t, now);
                }
            }
            const Cycle next = std::min(h.bus.nextCompletionCycle(now),
                                        h.bus.nextGrantCycle(now));
            if (next == kNoCycle) {
                if (step >= 300)
                    break;
                ++now;
                continue;
            }
            ASSERT_GE(next, now);
            if (h.bus.queuedOps() != 0 && h.bus.activeTransfers() != 0)
                ++queued_and_active;
            for (Cycle c = now; c < next; ++c, ++quiet_ticks) {
                const auto before = observe(h, c);
                EXPECT_EQ(h.bus.tick(c), 0u) << "cycle " << c;
                EXPECT_EQ(observe(h, c), before) << "cycle " << c;
            }
            // The event itself grants or completes.
            const auto before = observe(h, next);
            h.bus.tick(next);
            EXPECT_NE(observe(h, next), before) << "cycle " << next;
            ++events;
            now = next + 1;
        }
        EXPECT_FALSE(h.bus.busy()) << "channels " << channels;
        // The stream must have exercised the property, not skipped it.
        EXPECT_GT(events, 200u);
        EXPECT_GT(quiet_ticks, 500u);
        EXPECT_GT(queued_and_active, 50u);
    }
}

/* ------------------------------------------------------------------ */
/* Request lookahead and grant determinism                             */
/* ------------------------------------------------------------------ */

TEST(ConservativeLookahead, RequestLookaheadIsContentionFreeFloor)
{
    // The floor is the cheapest completion any future request could
    // reach: min over the address-class occupancy and a writeback's
    // same-cycle grant + transfer.
    EXPECT_EQ((BusTiming{100, 8, 2}.requestLookahead()), Cycle{2});
    EXPECT_EQ((BusTiming{100, 1, 4}.requestLookahead()), Cycle{1});
    EXPECT_EQ((BusTiming{50, 3, 3}.requestLookahead()), Cycle{3});
}

TEST(ConservativeLookahead, GrantOrderIndependentOfArrivalOrder)
{
    // Requests from different processors may reach request() in any
    // interleaving; arbitration must grant identically anyway.
    // Enqueue the same four same-cycle demand reads in opposite orders
    // and require the completion sequence (grant order: one channel,
    // equal transfer times) to match exactly.
    const BusTiming t{100, 8, 2};
    const ProcId arrival[4] = {2, 0, 3, 1};
    std::vector<ProcId> order[2];
    for (int perm = 0; perm < 2; ++perm) {
        BusProbe h(t);
        std::vector<ProcId> &got = order[perm];
        h.bus.setCompletion([&got](const Transaction &txn, Cycle) {
            got.push_back(txn.requester);
        });
        for (int i = 0; i < 4; ++i) {
            const ProcId p = perm ? arrival[3 - i] : arrival[i];
            h.bus.request(
                h.make(BusOpKind::ReadShared, p, 0x1000 * (p + 1)), 0);
        }
        for (Cycle c = 0; h.bus.busy(); ++c) {
            ASSERT_LT(c, t.totalLatency + 8 * t.dataTransfer);
            h.bus.tick(c);
        }
        ASSERT_EQ(got.size(), 4u) << "perm=" << perm;
    }
    EXPECT_EQ(order[0], order[1]);
}

TEST(ConservativeLookahead, OwnerlessRanksAfterEveryProcessor)
{
    // A requester-less writeback must never tie with processor 0's
    // round-robin rank: it ranks strictly after every processor, so a
    // same-cycle demand read wins the only data channel regardless of
    // which request() call came first.
    const BusTiming t{100, 8, 2};
    for (int wb_first = 0; wb_first < 2; ++wb_first) {
        BusProbe h(t);
        std::vector<ProcId> got;
        h.bus.setCompletion([&got](const Transaction &txn, Cycle) {
            got.push_back(txn.requester);
        });
        const Transaction wb = h.make(BusOpKind::WriteBack, kNoProc, 0x4000);
        const Transaction rd = h.make(BusOpKind::ReadShared, 3, 0x5000);
        if (wb_first) {
            h.bus.request(wb, 0);
            h.bus.request(rd, 0);
        } else {
            h.bus.request(rd, 0);
            h.bus.request(wb, 0);
        }
        // A writeback is ready immediately; the read only after its
        // memory phase. Tick from the read's ready cycle so both sit
        // in the queue at arbitration time.
        for (Cycle c = t.memoryPhase(); h.bus.busy(); ++c) {
            ASSERT_LT(c, 4 * t.totalLatency);
            h.bus.tick(c);
        }
        ASSERT_EQ(got.size(), 2u);
        EXPECT_EQ(got[0], ProcId{3}) << "wb_first=" << wb_first;
        EXPECT_EQ(got[1], kNoProc) << "wb_first=" << wb_first;
    }
}

} // namespace
} // namespace prefsim
