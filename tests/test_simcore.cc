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
 *    spin-lock windows, prefetch-buffer back-pressure, empty traces.
 *
 * The oracle counts blocked cycles eagerly (one bucket increment per
 * tick) while the local-clock core settles them arithmetically at wake, so
 * equality here genuinely checks the lazy accounting rather than
 * comparing an implementation against itself.
 */

#include <gtest/gtest.h>

#include <string>

#include "mem/split_bus.hh"
#include "prefetch/inserter.hh"
#include "sim/simulator.hh"
#include "sim_fingerprint.hh"
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

/** Configuration variants that reach folding paths the default config
 *  does not: grant folding with channel gating (dataChannels > 1),
 *  write-update downgrades, victim-cache swaps, and the non-snooping
 *  prefetch data buffer (whose remote kills must invalidate the
 *  quiet-drop memo — a bug this exact test caught). */
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

// The paper's cache: 1024 sets of 32-byte lines, so lines 0x8000 apart
// share a set and lines 0x20 apart do not.
constexpr Addr kSetStride = 0x8000;

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

/** Proc 0 re-executes a prefetch its plan drops as a duplicate while
 *  the fill is in flight; proc 1's write kills the fill, which then
 *  arrives dead. The dead fill retires the MSHR, so the next prefetch
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

/** With a two-entry prefetch data buffer, proc 0's plan drops
 *  prefetches of a parked line; a later park displaces that line, so
 *  the same prefetch must issue again. */
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
