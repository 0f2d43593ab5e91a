/**
 * @file
 * Protocol tests for the snooping coherent memory system.
 *
 * A harness drives MemorySystem directly with a manual clock, checking
 * the Illinois state transitions, invalidation behaviour, the miss
 * taxonomy and false-sharing attribution the paper's analysis rests on.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/memory_system.hh"

namespace prefsim
{
namespace
{

struct MemHarness
{
    explicit MemHarness(unsigned procs = 4, Cycle transfer = 8,
                        unsigned pdb_entries = 0,
                        unsigned victim_entries = 0)
        : stats(procs),
          mem(procs, CacheGeometry::paperDefault(),
              BusTiming{100, transfer, 2}, 16, stats, victim_entries,
              pdb_entries)
    {
        mem.setWake([this](ProcId p, bool retry) {
            wakes.push_back({p, retry});
        });
    }

    /** Advance until the bus drains (bounded). */
    void
    drain()
    {
        for (int i = 0; i < 4000 && mem.busBusy(); ++i)
            mem.tick(cycle++);
        ASSERT_FALSE(mem.busBusy());
    }

    LineState stateOf(ProcId p, Addr a) { return mem.cache(p).stateOf(a); }

    /** Every single-line invariant holds for @p a's line. */
    void
    expectLineOk(Addr a)
    {
        std::string why;
        EXPECT_TRUE(mem.checkLineInvariantDetail(a, &why)) << why;
    }

    std::vector<ProcStats> stats;
    MemorySystem mem;
    Cycle cycle = 0;
    std::vector<std::pair<ProcId, bool>> wakes;
};

TEST(Protocol, ReadMissInstallsExclusiveWhenAlone)
{
    MemHarness h;
    EXPECT_EQ(h.mem.demandAccess(0, 0x1000, false, h.cycle),
              AccessResult::MissWait);
    h.drain();
    EXPECT_EQ(h.stateOf(0, 0x1000), LineState::Exclusive);
    ASSERT_EQ(h.wakes.size(), 1u);
    EXPECT_EQ(h.wakes[0].first, 0u);
    EXPECT_TRUE(h.wakes[0].second); // Live fill: retry (will hit).
}

TEST(Protocol, SecondReaderMakesBothShared)
{
    MemHarness h;
    h.mem.demandAccess(0, 0x1000, false, h.cycle);
    h.drain();
    h.mem.demandAccess(1, 0x1008, false, h.cycle);
    h.drain();
    EXPECT_EQ(h.stateOf(0, 0x1000), LineState::Shared);
    EXPECT_EQ(h.stateOf(1, 0x1000), LineState::Shared);
    EXPECT_TRUE(h.mem.checkLineInvariant(0x1000));
}

TEST(Protocol, WriteMissInstallsModifiedAndInvalidatesOthers)
{
    MemHarness h;
    h.mem.demandAccess(0, 0x1000, false, h.cycle);
    h.drain();
    h.mem.demandAccess(1, 0x1000, true, h.cycle);
    h.drain();
    EXPECT_EQ(h.stateOf(1, 0x1000), LineState::Modified);
    EXPECT_EQ(h.stateOf(0, 0x1000), LineState::Invalid);
    EXPECT_TRUE(h.mem.checkLineInvariant(0x1000));
}

TEST(Protocol, SilentUpgradeFromExclusive)
{
    MemHarness h;
    h.mem.demandAccess(0, 0x1000, false, h.cycle);
    h.drain();
    ASSERT_EQ(h.stateOf(0, 0x1000), LineState::Exclusive);
    // Illinois private-clean: the write needs no bus operation.
    EXPECT_EQ(h.mem.demandAccess(0, 0x1000, true, h.cycle),
              AccessResult::Hit);
    EXPECT_EQ(h.stateOf(0, 0x1000), LineState::Modified);
    EXPECT_EQ(h.stats[0].upgradesIssued, 0u);
}

TEST(Protocol, WriteHitOnSharedNeedsUpgrade)
{
    MemHarness h;
    h.mem.demandAccess(0, 0x1000, false, h.cycle);
    h.drain();
    h.mem.demandAccess(1, 0x1000, false, h.cycle);
    h.drain();
    h.wakes.clear();
    EXPECT_EQ(h.mem.demandAccess(0, 0x1000, true, h.cycle),
              AccessResult::UpgradeWait);
    EXPECT_EQ(h.stats[0].upgradesIssued, 1u);
    // Snoop is immediate: the other copy dies at request time.
    EXPECT_EQ(h.stateOf(1, 0x1000), LineState::Invalid);
    h.drain();
    EXPECT_EQ(h.stateOf(0, 0x1000), LineState::Modified);
    ASSERT_EQ(h.wakes.size(), 1u);
    EXPECT_FALSE(h.wakes[0].second); // Upgrade satisfied the write.
}

TEST(Protocol, ModifiedOwnerDowngradesOnRemoteRead)
{
    MemHarness h;
    h.mem.demandAccess(0, 0x1000, true, h.cycle);
    h.drain();
    ASSERT_EQ(h.stateOf(0, 0x1000), LineState::Modified);
    h.mem.demandAccess(1, 0x1000, false, h.cycle);
    h.drain();
    EXPECT_EQ(h.stateOf(0, 0x1000), LineState::Shared);
    EXPECT_EQ(h.stateOf(1, 0x1000), LineState::Shared);
}

TEST(Protocol, DirtyVictimGeneratesWriteback)
{
    MemHarness h;
    h.mem.demandAccess(0, 0x1000, true, h.cycle);
    h.drain();
    // A conflicting fill evicts the dirty line.
    h.mem.demandAccess(0, 0x1000 + 32 * 1024, false, h.cycle);
    h.drain();
    EXPECT_EQ(
        h.mem.bus().stats().opCount[unsigned(BusOpKind::WriteBack)], 1u);
}

TEST(Prefetch, SharedPrefetchInstallsUnused)
{
    MemHarness h;
    EXPECT_EQ(h.mem.prefetchAccess(0, 0x1000, false, h.cycle),
              PrefetchResult::Issued);
    h.drain();
    EXPECT_EQ(h.stateOf(0, 0x1000), LineState::Exclusive); // Alone -> E.
    const CacheFrame *f = h.mem.cache(0).findFrame(0x1000);
    ASSERT_NE(f, nullptr);
    EXPECT_TRUE(f->broughtByPrefetch);
    EXPECT_FALSE(f->usedSinceFill);
    EXPECT_TRUE(h.wakes.empty()); // Nobody was blocked.
}

TEST(Prefetch, HitsAreDroppedWithoutBusOp)
{
    MemHarness h;
    h.mem.demandAccess(0, 0x1000, false, h.cycle);
    h.drain();
    const auto ops_before = h.mem.bus().stats().totalOps();
    EXPECT_EQ(h.mem.prefetchAccess(0, 0x1000, false, h.cycle),
              PrefetchResult::DroppedResident);
    // Even an exclusive prefetch to a Shared line is dropped (§4.1).
    h.mem.demandAccess(1, 0x1000, false, h.cycle);
    h.drain();
    ASSERT_EQ(h.stateOf(0, 0x1000), LineState::Shared);
    EXPECT_EQ(h.mem.prefetchAccess(0, 0x1000, true, h.cycle + 1),
              PrefetchResult::DroppedResident);
    EXPECT_EQ(h.stats[0].prefetchesDroppedResident, 2u);
    EXPECT_EQ(h.mem.bus().stats().totalOps() - ops_before, 1u); // proc 1.
}

TEST(Prefetch, DuplicateInFlightDropped)
{
    MemHarness h;
    h.mem.prefetchAccess(0, 0x1000, false, h.cycle);
    EXPECT_EQ(h.mem.prefetchAccess(0, 0x1008, false, h.cycle),
              PrefetchResult::DroppedDuplicate);
    EXPECT_EQ(h.stats[0].prefetchesDroppedDuplicate, 1u);
    h.drain();
}

TEST(Prefetch, BufferFull)
{
    MemHarness h;
    // Default depth is 16.
    for (unsigned i = 0; i < 16; ++i) {
        EXPECT_EQ(h.mem.prefetchAccess(0, 0x1000 + Addr{i} * 32, false,
                                       h.cycle),
                  PrefetchResult::Issued);
    }
    EXPECT_EQ(h.mem.prefetchAccess(0, 0x9000, false, h.cycle),
              PrefetchResult::BufferFull);
    h.drain();
    EXPECT_EQ(h.mem.prefetchAccess(0, 0x9000, false, h.cycle),
              PrefetchResult::Issued);
    h.drain();
}

TEST(Prefetch, ExclusivePrefetchInstallsPrivateCleanAndInvalidates)
{
    MemHarness h;
    h.mem.demandAccess(1, 0x1000, false, h.cycle);
    h.drain();
    EXPECT_EQ(h.mem.prefetchAccess(0, 0x1000, true, h.cycle),
              PrefetchResult::Issued);
    // Remote copy dies at request time.
    EXPECT_EQ(h.stateOf(1, 0x1000), LineState::Invalid);
    h.drain();
    // Illinois private-clean state: a later write is silent (§3.3).
    EXPECT_EQ(h.stateOf(0, 0x1000), LineState::Exclusive);
    EXPECT_EQ(h.mem.demandAccess(0, 0x1000, true, h.cycle),
              AccessResult::Hit);
    EXPECT_EQ(h.stateOf(0, 0x1000), LineState::Modified);
}

TEST(Prefetch, DemandOnInFlightPrefetchCountsInProgress)
{
    MemHarness h;
    h.mem.prefetchAccess(0, 0x1000, false, h.cycle);
    EXPECT_EQ(h.mem.demandAccess(0, 0x1004, false, h.cycle + 10),
              AccessResult::InProgressWait);
    EXPECT_EQ(h.stats[0].misses.prefetchInProgress, 1u);
    h.drain();
    ASSERT_EQ(h.wakes.size(), 1u);
    EXPECT_TRUE(h.wakes[0].second); // Retry; the line is live -> hit.
    EXPECT_EQ(h.mem.demandAccess(0, 0x1004, false, h.cycle),
              AccessResult::Hit);
}

TEST(Classification, ColdMissIsNonSharingNotPrefetched)
{
    MemHarness h;
    h.mem.demandAccess(0, 0x1000, false, h.cycle);
    h.drain();
    EXPECT_EQ(h.stats[0].misses.nonSharingNotPrefetched, 1u);
    EXPECT_EQ(h.stats[0].misses.cpu(), 1u);
}

TEST(Classification, InvalidationMiss)
{
    MemHarness h;
    h.mem.demandAccess(0, 0x1000, false, h.cycle);
    h.drain();
    h.mem.demandAccess(1, 0x1000, true, h.cycle); // Kill proc 0's copy.
    h.drain();
    h.mem.demandAccess(0, 0x1000, false, h.cycle); // Tag match, invalid.
    h.drain();
    EXPECT_EQ(h.stats[0].misses.invalNotPrefetched, 1u);
    EXPECT_EQ(h.stats[0].misses.nonSharingNotPrefetched, 1u);
}

TEST(Classification, ReplacedPrefetchIsNonSharingPrefetched)
{
    MemHarness h;
    h.mem.prefetchAccess(0, 0x1000, false, h.cycle);
    h.drain();
    // A demand fill to the same set replaces the unused prefetch.
    h.mem.demandAccess(0, 0x1000 + 32 * 1024, false, h.cycle);
    h.drain();
    // The covered access now misses: "prefetched, disappeared".
    h.mem.demandAccess(0, 0x1000, false, h.cycle);
    h.drain();
    EXPECT_EQ(h.stats[0].misses.nonSharingPrefetched, 1u);
}

TEST(Classification, InvalidatedPrefetchIsInvalPrefetched)
{
    MemHarness h;
    h.mem.prefetchAccess(0, 0x1000, false, h.cycle);
    h.drain();
    h.mem.demandAccess(1, 0x1000, true, h.cycle); // Invalidate it unused.
    h.drain();
    h.mem.demandAccess(0, 0x1000, false, h.cycle);
    h.drain();
    EXPECT_EQ(h.stats[0].misses.invalPrefetched, 1u);
}

TEST(Classification, FalseSharingAttribution)
{
    MemHarness h;
    // Proc 0 reads word 0; proc 1 writes word 7 of the same line:
    // proc 0 never touched word 7 -> its next miss is false sharing.
    h.mem.demandAccess(0, 0x1000, false, h.cycle);
    h.drain();
    h.mem.demandAccess(1, 0x101c, true, h.cycle);
    h.drain();
    h.mem.demandAccess(0, 0x1000, false, h.cycle);
    h.drain();
    EXPECT_EQ(h.stats[0].misses.falseSharing, 1u);
    EXPECT_EQ(h.stats[0].misses.invalidation(), 1u);
}

TEST(Classification, TrueSharingNotCountedFalse)
{
    MemHarness h;
    // Both processors use word 0: genuine communication.
    h.mem.demandAccess(0, 0x1000, false, h.cycle);
    h.drain();
    // The blocked access retries after the fill (as the processor
    // model does), recording word 0 in the residency access mask.
    ASSERT_EQ(h.mem.demandAccess(0, 0x1000, false, h.cycle),
              AccessResult::Hit);
    h.mem.demandAccess(1, 0x1000, true, h.cycle);
    h.drain();
    h.mem.demandAccess(0, 0x1000, false, h.cycle);
    h.drain();
    EXPECT_EQ(h.stats[0].misses.falseSharing, 0u);
    EXPECT_EQ(h.stats[0].misses.invalidation(), 1u);
}

TEST(Classification, AdjustedExcludesInProgress)
{
    MissBreakdown m;
    m.nonSharingNotPrefetched = 3;
    m.invalNotPrefetched = 2;
    m.prefetchInProgress = 4;
    EXPECT_EQ(m.cpu(), 9u);
    EXPECT_EQ(m.adjustedCpu(), 5u);
    EXPECT_EQ(m.nonSharing(), 3u);
    EXPECT_EQ(m.invalidation(), 2u);
}

TEST(Races, FillInvalidatedInFlightArrivesDead)
{
    MemHarness h;
    // Proc 0's prefetch is in flight when proc 1 write-misses the line.
    h.mem.prefetchAccess(0, 0x1000, false, h.cycle);
    h.mem.tick(h.cycle++);
    h.mem.demandAccess(1, 0x1000, true, h.cycle);
    h.drain();
    EXPECT_EQ(h.stateOf(0, 0x1000), LineState::Invalid);
    EXPECT_EQ(h.stateOf(1, 0x1000), LineState::Modified);
    // The wasted prefetch is remembered for classification.
    h.mem.demandAccess(0, 0x1000, false, h.cycle);
    h.drain();
    EXPECT_EQ(h.stats[0].misses.invalPrefetched, 1u);
}

TEST(Races, DeadDemandFillStillSatisfiesAccess)
{
    MemHarness h;
    h.mem.demandAccess(0, 0x1000, false, h.cycle);
    h.mem.tick(h.cycle++);
    // Proc 1 write-misses the same line while proc 0's fill is in
    // flight; ordering puts proc 0's read first, so its access is
    // satisfied (wake without retry) even though the line arrives dead.
    h.mem.demandAccess(1, 0x1000, true, h.cycle);
    h.drain();
    bool proc0_woken = false;
    for (const auto &[p, retry] : h.wakes) {
        if (p == 0) {
            proc0_woken = true;
            EXPECT_FALSE(retry);
        }
    }
    EXPECT_TRUE(proc0_woken);
    EXPECT_EQ(h.stateOf(0, 0x1000), LineState::Invalid);
}

TEST(Races, ConcurrentReadsShareViaPendingFill)
{
    MemHarness h;
    // Two read misses to the same line, overlapping in flight: neither
    // may install Exclusive (no two private copies).
    h.mem.demandAccess(0, 0x1000, false, h.cycle);
    h.mem.tick(h.cycle++);
    h.mem.demandAccess(1, 0x1000, false, h.cycle);
    h.drain();
    EXPECT_EQ(h.stateOf(0, 0x1000), LineState::Shared);
    EXPECT_EQ(h.stateOf(1, 0x1000), LineState::Shared);
    EXPECT_TRUE(h.mem.checkLineInvariant(0x1000));
}

TEST(Races, UpgradeLosesLineWhileQueued)
{
    MemHarness h;
    // Procs 0 and 1 share the line.
    h.mem.demandAccess(0, 0x1000, false, h.cycle);
    h.drain();
    h.mem.demandAccess(1, 0x1000, false, h.cycle);
    h.drain();
    h.wakes.clear();
    // Proc 0 starts an upgrade; before it completes, proc 1 write-misses
    // (its copy died at proc 0's request, so it misses) and its RFO
    // kills proc 0's line.
    h.mem.demandAccess(0, 0x1000, true, h.cycle);
    h.mem.demandAccess(1, 0x1000, true, h.cycle);
    h.drain();
    // Proc 0's upgrade completed on a dead line: retry required.
    bool proc0_retry = false;
    for (const auto &[p, retry] : h.wakes) {
        if (p == 0 && retry)
            proc0_retry = true;
    }
    EXPECT_TRUE(proc0_retry);
    EXPECT_TRUE(h.mem.checkLineInvariant(0x1000));
}

TEST(Races, ParkedPrefetchedLineKeepsRemoteFillShared)
{
    // Buffer-target mode (8-entry prefetch data buffer). Proc 0's
    // prefetch parks the line Exclusive beside the cache; a later
    // remote read must see the parked copy in its snoop and install
    // Shared — otherwise the silent promotion of the (downgraded)
    // parked line would put Shared beside an Exclusive copy. The
    // PREFSIM_VERIFY hooks caught exactly this.
    MemHarness h(/*procs=*/2, /*transfer=*/8, /*pdb_entries=*/8);
    EXPECT_EQ(h.mem.prefetchAccess(0, 0x1000, false, h.cycle),
              PrefetchResult::Issued);
    h.drain();
    EXPECT_EQ(h.stateOf(0, 0x1000), LineState::Invalid); // Parked only.

    h.mem.demandAccess(1, 0x1000, false, h.cycle);
    h.drain();
    EXPECT_EQ(h.stateOf(1, 0x1000), LineState::Shared);

    // Proc 0's demand access promotes the parked (now Shared) line.
    h.mem.demandAccess(0, 0x1000, false, h.cycle);
    EXPECT_EQ(h.stateOf(0, 0x1000), LineState::Shared);
    EXPECT_TRUE(h.mem.checkLineInvariant(0x1000));
    EXPECT_EQ(h.stats[0].prefetchBufferHits, 1u);
}

TEST(Invariant, HoldsAcrossMixedTraffic)
{
    MemHarness h;
    const Addr line = 0x4000;
    h.mem.demandAccess(0, line, false, h.cycle);
    h.drain();
    h.mem.demandAccess(1, line, false, h.cycle);
    h.drain();
    h.mem.demandAccess(2, line + 4, true, h.cycle);
    h.drain();
    EXPECT_TRUE(h.mem.checkLineInvariant(line));
    h.mem.prefetchAccess(3, line, true, h.cycle);
    h.drain();
    EXPECT_TRUE(h.mem.checkLineInvariant(line));
    EXPECT_EQ(h.stateOf(3, line), LineState::Exclusive);
    EXPECT_EQ(h.stateOf(2, line), LineState::Invalid);
}

TEST(HolderDirectory, VictimBufferStaleBitPrunedThenRefilled)
{
    // Proc 0 loses the line out of its cache and then out of its
    // 4-entry victim buffer. Its holder bit goes stale (a superset is
    // safe) until proc 1's write miss snoops the line and prunes it;
    // proc 0's refill sets it again.
    MemHarness h(/*procs=*/4, /*transfer=*/8, /*pdb_entries=*/0,
                 /*victim_entries=*/4);
    const Addr line = 0x1000;
    const Addr stride = CacheGeometry::paperDefault().sizeBytes();
    h.mem.demandAccess(0, line, false, h.cycle);
    h.drain();
    for (Addr k = 1; k <= 5; ++k) { // Same set: each evicts the last.
        h.mem.demandAccess(0, line + k * stride, false, h.cycle);
        h.drain();
    }
    EXPECT_EQ(h.mem.cache(0).stateAnywhere(line), LineState::Invalid);
    EXPECT_EQ(h.mem.holderMask(line), 0b1u);
    h.expectLineOk(line);

    h.mem.demandAccess(1, line + 4, true, h.cycle);
    EXPECT_EQ(h.mem.holderMask(line), 0b10u);
    h.drain();
    EXPECT_EQ(h.stateOf(1, line), LineState::Modified);
    h.expectLineOk(line);

    h.mem.demandAccess(0, line, false, h.cycle);
    EXPECT_EQ(h.mem.holderMask(line), 0b11u);
    h.drain();
    EXPECT_EQ(h.stateOf(0, line), LineState::Shared);
    EXPECT_EQ(h.stateOf(1, line), LineState::Shared);
    h.expectLineOk(line);
}

TEST(HolderDirectory, PrefetchDataBufferStaleBitPrunedThenRefilled)
{
    // The same with a 2-entry prefetch data buffer: proc 0's parked
    // line is displaced by two later prefetches, proc 1's write miss
    // prunes the stale bit, and proc 0's next prefetch parks the line
    // again, Shared beside proc 1's downgraded copy.
    MemHarness h(/*procs=*/4, /*transfer=*/8, /*pdb_entries=*/2);
    const Addr line = 0x1000;
    h.mem.prefetchAccess(0, line, false, h.cycle);
    h.drain();
    ASSERT_NE(h.mem.cache(0).findParked(line), nullptr);
    h.mem.prefetchAccess(0, 0x2000, false, h.cycle);
    h.mem.prefetchAccess(0, 0x3000, false, h.cycle);
    h.drain();
    EXPECT_EQ(h.mem.cache(0).findParked(line), nullptr);
    EXPECT_EQ(h.mem.holderMask(line), 0b1u);
    h.expectLineOk(line);

    h.mem.demandAccess(1, line, true, h.cycle);
    EXPECT_EQ(h.mem.holderMask(line), 0b10u);
    h.drain();
    EXPECT_EQ(h.stateOf(1, line), LineState::Modified);
    h.expectLineOk(line);

    EXPECT_EQ(h.mem.prefetchAccess(0, line, false, h.cycle),
              PrefetchResult::Issued);
    EXPECT_EQ(h.mem.holderMask(line), 0b11u);
    h.drain();
    const CacheFrame *parked = h.mem.cache(0).findParked(line);
    ASSERT_NE(parked, nullptr);
    EXPECT_EQ(parked->state, LineState::Shared);
    EXPECT_EQ(h.stateOf(1, line), LineState::Shared);
    h.expectLineOk(line);
}

TEST(HolderDirectory, CoverageRuleCatchesAnUnlistedCopy)
{
    // A copy installed behind the memory system's back has no holder
    // bit, so a snoop would miss it: the coverage rule must say so.
    MemHarness h;
    EvictedLine ev;
    h.mem.cache(2).install(0x1000, LineState::Exclusive, false, ev);
    std::string why;
    EXPECT_FALSE(h.mem.checkLineInvariantDetail(0x1000, &why));
    EXPECT_EQ(why.rfind("coherence.holder_directory: cache 2", 0), 0u)
        << why;
}

} // namespace
} // namespace prefsim
