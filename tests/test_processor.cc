/**
 * @file
 * Timing tests for the trace-driven processor through the Simulator,
 * using small hand-built traces.
 */

#include <gtest/gtest.h>

#include "sim/simulator.hh"

namespace prefsim
{
namespace
{

SimConfig
config(Cycle transfer = 8)
{
    SimConfig c;
    c.timing.dataTransfer = transfer;
    c.warmupEpisodes = 0; // Hand-built traces measure from cycle 0.
    return c;
}

ParallelTrace
makeTrace(std::vector<Trace> procs, SyncId locks = 0, SyncId barriers = 0)
{
    ParallelTrace pt;
    pt.name = "hand";
    pt.procs = std::move(procs);
    pt.numLocks = locks;
    pt.numBarriers = barriers;
    return pt;
}

TEST(ProcessorTiming, OneCyclePerInstruction)
{
    Trace t;
    t.appendInstrs(10);
    const SimStats s = simulate(makeTrace({std::move(t)}), config());
    EXPECT_EQ(s.cycles, 10u);
    EXPECT_EQ(s.procs[0].busy, 10u);
    EXPECT_EQ(s.procs[0].finishedAt, 10u);
}

TEST(ProcessorTiming, ColdMissPaysFullLatency)
{
    Trace t;
    t.append(TraceRecord::read(0x40));
    const SimStats s = simulate(makeTrace({std::move(t)}), config());
    // Instruction cycle at 0; access misses at 1; fill completes 100
    // cycles later; the retry consumes the completion cycle.
    EXPECT_EQ(s.cycles, 102u);
    EXPECT_EQ(s.procs[0].busy, 2u);
    EXPECT_EQ(s.procs[0].stallDemand, 100u);
    EXPECT_EQ(s.procs[0].misses.cpu(), 1u);
}

TEST(ProcessorTiming, HitsCostTwoCycles)
{
    Trace t;
    t.append(TraceRecord::read(0x40));
    for (int i = 0; i < 5; ++i)
        t.append(TraceRecord::read(0x44));
    const SimStats s = simulate(makeTrace({std::move(t)}), config());
    EXPECT_EQ(s.cycles, 102u + 5 * 2);
    EXPECT_EQ(s.procs[0].misses.cpu(), 1u);
    EXPECT_EQ(s.procs[0].demandRefs, 6u);
}

TEST(ProcessorTiming, PrefetchHidesTheLatency)
{
    Trace t;
    t.append(TraceRecord::prefetch(0x40));
    t.appendInstrs(200);
    t.append(TraceRecord::read(0x40));
    const SimStats s = simulate(makeTrace({std::move(t)}), config());
    // 2 (prefetch instr + issue) + 200 (compute, hiding the fill)
    // + 2 (hit).
    EXPECT_EQ(s.cycles, 204u);
    EXPECT_EQ(s.procs[0].misses.cpu(), 0u);
    EXPECT_EQ(s.procs[0].prefetchMisses, 1u);
}

TEST(ProcessorTiming, PrefetchInProgressWaitsResidualOnly)
{
    Trace t;
    t.append(TraceRecord::prefetch(0x40));
    t.appendInstrs(50);
    t.append(TraceRecord::read(0x40));
    const SimStats s = simulate(makeTrace({std::move(t)}), config());
    // The prefetch (issued at cycle 0) completes at ~101; the read
    // reaches its access phase at cycle 52 and waits only ~49 cycles.
    EXPECT_EQ(s.procs[0].misses.prefetchInProgress, 1u);
    EXPECT_LT(s.cycles, 110u);
    EXPECT_GT(s.cycles, 100u);
}

TEST(ProcessorTiming, AdjustedMissRateExcludesInProgress)
{
    Trace t;
    t.append(TraceRecord::prefetch(0x40));
    t.append(TraceRecord::read(0x40));
    const SimStats s = simulate(makeTrace({std::move(t)}), config());
    EXPECT_EQ(s.procs[0].misses.cpu(), 1u);
    EXPECT_EQ(s.procs[0].misses.adjustedCpu(), 0u);
    EXPECT_GT(s.cpuMissRate(), 0.0);
    EXPECT_EQ(s.adjustedCpuMissRate(), 0.0);
}

TEST(ProcessorTiming, WriteToSharedStallsForUpgrade)
{
    // Two processors read the same line, then proc 0 writes it.
    Trace a;
    a.append(TraceRecord::read(0x40));
    a.appendInstrs(300); // Let proc 1's read complete.
    a.append(TraceRecord::write(0x40));
    Trace b;
    b.append(TraceRecord::read(0x40));
    const SimStats s =
        simulate(makeTrace({std::move(a), std::move(b)}), config());
    EXPECT_EQ(s.procs[0].upgradesIssued, 1u);
    EXPECT_GT(s.procs[0].stallUpgrade, 0u);
}

TEST(ProcessorSync, LocksSerializeCriticalSections)
{
    // Both processors: lock, 100 instructions, unlock.
    auto make_proc = []() {
        Trace t;
        t.append(TraceRecord::lockAcquire(0));
        t.appendInstrs(100);
        t.append(TraceRecord::lockRelease(0));
        return t;
    };
    const SimStats s =
        simulate(makeTrace({make_proc(), make_proc()}, 1), config());
    // Serialized: >= 204 cycles; one of the processors spun ~100.
    EXPECT_GE(s.cycles, 204u);
    const Cycle total_spin = s.procs[0].spinLock + s.procs[1].spinLock;
    EXPECT_GE(total_spin, 100u);
}

TEST(ProcessorSync, BarrierHoldsEarlyArrivals)
{
    Trace a;
    a.appendInstrs(10);
    a.append(TraceRecord::barrier(0));
    a.appendInstrs(5);
    Trace b;
    b.appendInstrs(100);
    b.append(TraceRecord::barrier(0));
    b.appendInstrs(5);
    const SimStats s =
        simulate(makeTrace({std::move(a), std::move(b)}, 0, 1), config());
    EXPECT_GE(s.procs[0].waitBarrier, 85u);
    EXPECT_EQ(s.procs[1].waitBarrier, 0u);
    // Both finish their post-barrier work at about the same time.
    const Cycle diff = s.procs[0].finishedAt > s.procs[1].finishedAt
                           ? s.procs[0].finishedAt - s.procs[1].finishedAt
                           : s.procs[1].finishedAt - s.procs[0].finishedAt;
    EXPECT_LE(diff, 3u);
}

TEST(ProcessorSync, DoneProcessorsIdleQuietly)
{
    Trace a;
    a.appendInstrs(5);
    Trace b;
    b.appendInstrs(500);
    const SimStats s =
        simulate(makeTrace({std::move(a), std::move(b)}), config());
    EXPECT_EQ(s.cycles, 500u);
    EXPECT_EQ(s.procs[0].finishedAt, 5u);
    EXPECT_EQ(s.procs[0].busy, 5u);
}

TEST(ProcessorSync, CycleAccountingIdentity)
{
    // Every processor cycle lands in exactly one bucket.
    Trace a;
    a.append(TraceRecord::read(0x40));
    a.append(TraceRecord::lockAcquire(0));
    a.appendInstrs(20);
    a.append(TraceRecord::lockRelease(0));
    a.append(TraceRecord::barrier(0));
    a.append(TraceRecord::write(0x40));
    Trace b;
    b.append(TraceRecord::lockAcquire(0));
    b.appendInstrs(60);
    b.append(TraceRecord::lockRelease(0));
    b.append(TraceRecord::barrier(0));
    b.append(TraceRecord::read(0x1040));
    const SimStats s =
        simulate(makeTrace({std::move(a), std::move(b)}, 1, 1), config());
    for (const auto &p : s.procs) {
        const Cycle sum = p.busy + p.stallDemand + p.stallUpgrade +
                          p.stallPrefetchQueue + p.spinLock +
                          p.waitBarrier;
        EXPECT_LE(sum, p.finishedAt);
        EXPECT_LE(p.finishedAt - sum, 1u); // Wake-satisfied final record.
    }
}

TEST(ProcessorSync, DeadlockIsDetected)
{
    // Proc 0 ends holding the lock proc 1 wants: proc 1 spins forever.
    Trace a;
    a.append(TraceRecord::lockAcquire(0));
    a.appendInstrs(5);
    Trace b;
    b.appendInstrs(10);
    b.append(TraceRecord::lockAcquire(0));
    SimConfig cfg = config();
    const ParallelTrace pt = makeTrace({std::move(a), std::move(b)}, 1);
    EXPECT_DEATH(
        {
            Simulator sim(pt, cfg);
            sim.run();
        },
        "no progress");
}

TEST(ProcessorSync, StepCycleStopsWhenDone)
{
    Trace t;
    t.appendInstrs(3);
    const ParallelTrace pt = makeTrace({std::move(t)});
    SimConfig cfg = config();
    cfg.engine = SimEngine::CycleLoop; // stepCycle() is the oracle's step.
    Simulator sim(pt, cfg);
    while (sim.stepCycle()) {
    }
    EXPECT_EQ(sim.currentCycle(), 3u);
    EXPECT_FALSE(sim.stepCycle());
    EXPECT_EQ(sim.currentCycle(), 3u);
}

TEST(Warmup, ResetsMeasurementWindow)
{
    // Two barriers; heavy cold misses before the first, pure compute
    // after. With warmup=1 the measured window sees no misses.
    auto make_proc = [](unsigned offset) {
        Trace t;
        for (unsigned i = 0; i < 50; ++i)
            t.append(TraceRecord::read(0x1000 + Addr{offset} * 0x100000 +
                                       Addr{i} * 32));
        t.append(TraceRecord::barrier(0));
        t.appendInstrs(400);
        t.append(TraceRecord::barrier(1));
        return t;
    };
    const ParallelTrace pt =
        makeTrace({make_proc(0), make_proc(1)}, 0, 2);

    SimConfig cold = config();
    const SimStats full = simulate(pt, cold);
    SimConfig warm = config();
    warm.warmupEpisodes = 1;
    const SimStats measured = simulate(pt, warm);

    EXPECT_GT(full.totalMisses().cpu(), 0u);
    EXPECT_EQ(measured.totalMisses().cpu(), 0u);
    EXPECT_LT(measured.cycles, full.cycles);
    EXPECT_GT(full.busUtilization(), measured.busUtilization());
}

TEST(SimulatorDeathTest, RejectsEmptySystem)
{
    ParallelTrace pt;
    pt.name = "empty";
    EXPECT_EXIT(Simulator(pt, config()), testing::ExitedWithCode(1),
                "zero processors");
}

TEST(SimulatorDeathTest, HeldLockAtEndPanics)
{
    Trace t;
    t.append(TraceRecord::lockAcquire(0));
    t.appendInstrs(5);
    const ParallelTrace pt = makeTrace({std::move(t)}, 1);
    EXPECT_DEATH(
        {
            Simulator sim(pt, config());
            sim.run();
        },
        "locks still held");
}


TEST(ProcessorTiming, BufferFullPrefetchAccounting)
{
    // Regression: a prefetch that stalls on a full buffer must count
    // its eventual issue cycle (busy) and be counted as executed
    // exactly once; every cycle lands in an accounting bucket.
    Trace t;
    for (unsigned i = 0; i < 20; ++i)
        t.append(TraceRecord::prefetch(0x1000 + Addr{i} * 32));
    t.appendInstrs(3000);
    SimConfig cfg = config();
    cfg.prefetchBufferDepth = 4;
    const SimStats s = simulate(makeTrace({std::move(t)}), cfg);
    EXPECT_GT(s.procs[0].stallPrefetchQueue, 0u);
    EXPECT_EQ(s.procs[0].prefetchesExecuted, 20u);
    const ProcStats &p = s.procs[0];
    const Cycle sum = p.busy + p.stallDemand + p.stallUpgrade +
                      p.stallPrefetchQueue + p.spinLock + p.waitBarrier;
    EXPECT_EQ(sum, p.finishedAt);
}

} // namespace
} // namespace prefsim

