/**
 * @file
 * Unit tests for the split-transaction bus model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "common/rng.hh"
#include "mem/split_bus.hh"
#include "obs/event.hh"
#include "obs/metrics.hh"

namespace prefsim
{
namespace
{

struct Completion
{
    Transaction txn;
    Cycle at;
};

struct BusHarness
{
    explicit BusHarness(const BusTiming &timing, unsigned procs = 4)
        : bus(timing, procs)
    {
        bus.setCompletion([this](const Transaction &t, Cycle now) {
            done.push_back({t, now});
        });
    }

    /** Run the bus up to (and including) cycle @p until. */
    void
    runTo(Cycle until)
    {
        for (; cycle <= until; ++cycle)
            bus.tick(cycle);
    }

    Transaction
    make(BusOpKind kind, ProcId proc, Addr line, bool prefetch = false)
    {
        Transaction t;
        t.kind = kind;
        t.requester = proc;
        t.lineBase = line;
        t.isPrefetch = prefetch;
        t.issuedAt = cycle;
        return t;
    }

    SplitBus bus;
    Cycle cycle = 0;
    std::vector<Completion> done;
};

const BusTiming kT8{100, 8, 2};

TEST(BusTiming, Phases)
{
    EXPECT_EQ(kT8.memoryPhase(), 92u);
    EXPECT_EQ(kT8.occupancy(BusOpKind::ReadShared), 8u);
    EXPECT_EQ(kT8.occupancy(BusOpKind::ReadExclusive), 8u);
    EXPECT_EQ(kT8.occupancy(BusOpKind::WriteBack), 8u);
    EXPECT_EQ(kT8.occupancy(BusOpKind::Upgrade), 2u);
}

TEST(BusTimingDeathTest, InvalidTransferIsFatal)
{
    EXPECT_EXIT(SplitBus(BusTiming{100, 0, 2}, 4),
                testing::ExitedWithCode(1), "");
    EXPECT_EXIT(SplitBus(BusTiming{100, 200, 2}, 4),
                testing::ExitedWithCode(1), "");
}

TEST(SplitBus, UncontendedLatencyIsTotal)
{
    BusHarness h(kT8);
    h.bus.request(h.make(BusOpKind::ReadShared, 0, 0x1000), 0);
    h.runTo(200);
    ASSERT_EQ(h.done.size(), 1u);
    // Memory phase 92, granted at 92, transfer 8 -> completes at 100.
    EXPECT_EQ(h.done[0].at, 100u);
}

TEST(SplitBus, UpgradeSkipsMemoryPhase)
{
    BusHarness h(kT8);
    h.bus.request(h.make(BusOpKind::Upgrade, 0, 0x1000), 0);
    h.runTo(10);
    ASSERT_EQ(h.done.size(), 1u);
    EXPECT_EQ(h.done[0].at, 2u);
}

TEST(SplitBus, WritebackReadyImmediately)
{
    BusHarness h(kT8);
    h.bus.request(h.make(BusOpKind::WriteBack, 0, 0x1000), 0);
    h.runTo(20);
    ASSERT_EQ(h.done.size(), 1u);
    EXPECT_EQ(h.done[0].at, 8u);
}

TEST(SplitBus, BackToBackTransfersSerialize)
{
    BusHarness h(kT8);
    h.bus.request(h.make(BusOpKind::ReadShared, 0, 0x1000), 0);
    h.bus.request(h.make(BusOpKind::ReadShared, 1, 0x2000), 0);
    h.runTo(300);
    ASSERT_EQ(h.done.size(), 2u);
    EXPECT_EQ(h.done[0].at, 100u);
    EXPECT_EQ(h.done[1].at, 108u); // Queued behind the first transfer.
    EXPECT_EQ(h.bus.stats().busyCycles, 16u);
}

TEST(SplitBus, DemandBeatsPrefetch)
{
    BusHarness h(kT8);
    // Both ready at the same time; the prefetch was requested first.
    h.bus.request(h.make(BusOpKind::ReadShared, 0, 0x1000, true), 0);
    h.bus.request(h.make(BusOpKind::ReadShared, 1, 0x2000, false), 0);
    h.runTo(300);
    ASSERT_EQ(h.done.size(), 2u);
    EXPECT_EQ(h.done[0].txn.requester, 1u); // Demand first.
    EXPECT_TRUE(h.done[1].txn.isPrefetch);
}

TEST(SplitBus, PromotedPrefetchGainsDemandPriority)
{
    BusHarness h(kT8);
    const auto id =
        h.bus.request(h.make(BusOpKind::ReadShared, 0, 0x1000, true), 0);
    h.bus.request(h.make(BusOpKind::ReadShared, 1, 0x2000, true), 0);
    h.bus.promoteToDemand(id);
    h.runTo(300);
    ASSERT_EQ(h.done.size(), 2u);
    EXPECT_EQ(h.done[0].txn.requester, 0u);
    EXPECT_TRUE(h.done[0].txn.demandWaiting);
    EXPECT_EQ(h.bus.stats().grantsDemand, 1u);
    EXPECT_EQ(h.bus.stats().grantsPrefetch, 1u);
}

TEST(SplitBus, RoundRobinAcrossProcessors)
{
    BusHarness h(kT8);
    // Four demands become ready simultaneously.
    for (ProcId p = 0; p < 4; ++p)
        h.bus.request(h.make(BusOpKind::ReadShared, 3 - p,
                             0x1000 + Addr{p} * 0x100), 0);
    h.runTo(400);
    ASSERT_EQ(h.done.size(), 4u);
    // Grant order rotates: 0 wins the first grant (rr starts at 0),
    // then each grant moves past the served requester.
    std::vector<ProcId> order;
    for (const auto &c : h.done)
        order.push_back(c.txn.requester);
    EXPECT_EQ(order, (std::vector<ProcId>{0, 1, 2, 3}));
}

TEST(SplitBus, RoundRobinIsNotStarving)
{
    BusHarness h(kT8, 2);
    // Proc 0 floods with 32 demands; proc 1 submits one later. Proc 1
    // must be served at its first arbitration opportunity, not behind
    // the whole queue.
    for (unsigned i = 0; i < 32; ++i)
        h.bus.request(
            h.make(BusOpKind::ReadShared, 0, 0x1000 + Addr{i} * 32), 0);
    h.runTo(91);
    h.bus.request(h.make(BusOpKind::ReadShared, 1, 0xf000), h.cycle);
    h.runTo(2500);
    ASSERT_EQ(h.done.size(), 33u);
    std::size_t pos = 0;
    for (std::size_t i = 0; i < h.done.size(); ++i) {
        if (h.done[i].txn.requester == 1)
            pos = i;
    }
    // Ready at ~184; grants happen every 8 cycles from 92, so it should
    // be roughly the 13th grant, not the 33rd.
    EXPECT_LE(pos, 14u);
}

TEST(SplitBus, QueueWaitAccounting)
{
    BusHarness h(kT8);
    h.bus.request(h.make(BusOpKind::ReadShared, 0, 0x1000), 0);
    h.bus.request(h.make(BusOpKind::ReadShared, 1, 0x2000), 0);
    h.runTo(300);
    // Second transaction waited 8 cycles after its memory phase.
    EXPECT_EQ(h.bus.stats().queueWaitDemand, 8u);
}

TEST(SplitBus, BusyFlag)
{
    BusHarness h(kT8);
    EXPECT_FALSE(h.bus.busy());
    h.bus.request(h.make(BusOpKind::ReadShared, 0, 0x1000), 0);
    EXPECT_TRUE(h.bus.busy());
    h.runTo(120);
    EXPECT_FALSE(h.bus.busy());
}

TEST(SplitBus, OpCountsByKind)
{
    BusHarness h(kT8);
    h.bus.request(h.make(BusOpKind::ReadShared, 0, 0x1000), 0);
    h.bus.request(h.make(BusOpKind::ReadExclusive, 1, 0x2000), 0);
    h.bus.request(h.make(BusOpKind::Upgrade, 2, 0x3000), 0);
    h.bus.request(h.make(BusOpKind::WriteBack, 3, 0x4000), 0);
    h.runTo(400);
    const BusStats &s = h.bus.stats();
    EXPECT_EQ(s.opCount[unsigned(BusOpKind::ReadShared)], 1u);
    EXPECT_EQ(s.opCount[unsigned(BusOpKind::ReadExclusive)], 1u);
    EXPECT_EQ(s.opCount[unsigned(BusOpKind::Upgrade)], 1u);
    EXPECT_EQ(s.opCount[unsigned(BusOpKind::WriteBack)], 1u);
    EXPECT_EQ(s.totalOps(), 4u);
    // Address-class upgrades do not occupy the data bus.
    EXPECT_EQ(s.busyCycles, 8u + 8u + 8u);
}

TEST(SplitBus, UtilizationMath)
{
    BusStats s;
    s.busyCycles = 50;
    EXPECT_NEAR(s.utilization(200), 0.25, 1e-12);
    EXPECT_EQ(s.utilization(0), 0.0);
}

TEST(SplitBus, ResetStats)
{
    BusHarness h(kT8);
    h.bus.request(h.make(BusOpKind::ReadShared, 0, 0x1000), 0);
    h.runTo(150);
    EXPECT_GT(h.bus.stats().busyCycles, 0u);
    h.bus.resetStats();
    EXPECT_EQ(h.bus.stats().busyCycles, 0u);
    EXPECT_EQ(h.bus.stats().totalOps(), 0u);
}

TEST(SplitBus, FasterTransferLowerLatency)
{
    BusHarness h4(BusTiming{100, 4, 2});
    h4.bus.request(h4.make(BusOpKind::ReadShared, 0, 0x1000), 0);
    h4.runTo(200);
    ASSERT_EQ(h4.done.size(), 1u);
    EXPECT_EQ(h4.done[0].at, 100u); // Total latency unchanged...

    BusHarness h32(BusTiming{100, 32, 2});
    h32.bus.request(h32.make(BusOpKind::ReadShared, 0, 0x1000), 0);
    h32.bus.request(h32.make(BusOpKind::ReadShared, 1, 0x2000), 0);
    h32.runTo(400);
    ASSERT_EQ(h32.done.size(), 2u);
    EXPECT_EQ(h32.done[0].at, 100u);
    EXPECT_EQ(h32.done[1].at, 132u); // ...but queueing costs more.
}


TEST(MultiChannelBus, ParallelTransfers)
{
    // Two channels: two simultaneous fetches complete together.
    BusTiming timing{100, 8, 2, 2};
    BusHarness h(timing);
    h.bus.request(h.make(BusOpKind::ReadShared, 0, 0x1000), 0);
    h.bus.request(h.make(BusOpKind::ReadShared, 1, 0x2000), 0);
    h.runTo(300);
    ASSERT_EQ(h.done.size(), 2u);
    EXPECT_EQ(h.done[0].at, 100u);
    EXPECT_EQ(h.done[1].at, 100u); // No queueing behind channel 1.
    EXPECT_EQ(h.bus.stats().queueWaitDemand, 0u);
    // Occupancy still accumulates per transfer.
    EXPECT_EQ(h.bus.stats().busyCycles, 16u);
}

TEST(MultiChannelBus, ThirdTransferQueues)
{
    BusTiming timing{100, 8, 2, 2};
    BusHarness h(timing);
    for (ProcId p = 0; p < 3; ++p)
        h.bus.request(
            h.make(BusOpKind::ReadShared, p, 0x1000 + Addr{p} * 0x100), 0);
    h.runTo(300);
    ASSERT_EQ(h.done.size(), 3u);
    EXPECT_EQ(h.done[0].at, 100u);
    EXPECT_EQ(h.done[1].at, 100u);
    EXPECT_EQ(h.done[2].at, 108u); // Waited for a free channel.
}

TEST(MultiChannelBus, ManyChannelsApproximateNoContention)
{
    BusTiming timing{100, 32, 2, 16};
    BusHarness h(timing, 16);
    for (ProcId p = 0; p < 16; ++p)
        h.bus.request(
            h.make(BusOpKind::ReadShared, p, 0x1000 + Addr{p} * 0x100), 0);
    h.runTo(300);
    ASSERT_EQ(h.done.size(), 16u);
    for (const auto &c : h.done)
        EXPECT_EQ(c.at, 100u); // Everyone sees the uncontended latency.
}

TEST(MultiChannelBusDeathTest, ZeroChannelsIsFatal)
{
    EXPECT_EXIT(SplitBus(BusTiming{100, 8, 2, 0}, 4),
                testing::ExitedWithCode(1), "channel");
}

/**
 * The arbiter as it was before the ready masks: one waiting vector in
 * request order, scanned linearly on every grant. The differential
 * below drives it and SplitBus with the same request streams; both must
 * grant in the same order at the same cycles.
 */
class ScanBus
{
  public:
    struct Grant
    {
        std::uint64_t id;
        Cycle at;
    };

    ScanBus(const BusTiming &timing, unsigned num_procs)
        : timing_(timing), num_procs_(num_procs)
    {}

    std::function<void(const Transaction &, Cycle)> completion;
    std::vector<Grant> grants;
    /** Promotions of an op in its memory phase, ready but waiting, and
     *  in transfer (coverage of the random streams). */
    unsigned promotedInMemory = 0, promotedReady = 0, promotedActive = 0;

    std::uint64_t
    request(const Transaction &t, Cycle now)
    {
        Pending p{t, next_id_++, 0};
        ++stats_.opCount[static_cast<unsigned>(t.kind)];
        if (BusTiming::isAddressClass(t.kind)) {
            p.readyAt = now + timing_.upgradeOccupancy;
            addr_ops_.push_back(p);
            return p.id;
        }
        p.readyAt = transfersData(t.kind) ? now + timing_.memoryPhase() : now;
        waiting_.push_back(p);
        return p.id;
    }

    void
    promoteToDemand(std::uint64_t id, Cycle now)
    {
        for (auto &p : waiting_) {
            if (p.id == id) {
                ++(p.readyAt > now ? promotedInMemory : promotedReady);
                p.txn.demandWaiting = true;
                return;
            }
        }
        for (auto &a : active_) {
            if (a.pending.id == id) {
                ++promotedActive;
                a.pending.txn.demandWaiting = true;
            }
        }
    }

    void
    tick(Cycle now)
    {
        for (std::size_t i = 0; i < addr_ops_.size();) {
            if (now >= addr_ops_[i].readyAt) {
                const Pending done = addr_ops_[i];
                addr_ops_.erase(addr_ops_.begin() +
                                static_cast<std::ptrdiff_t>(i));
                completion(done.txn, now);
            } else {
                ++i;
            }
        }
        for (std::size_t i = 0; i < active_.size();) {
            if (now >= active_[i].endsAt) {
                const Pending done = active_[i].pending;
                active_.erase(active_.begin() +
                              static_cast<std::ptrdiff_t>(i));
                completion(done.txn, now);
            } else {
                ++i;
            }
        }
        while (active_.size() < timing_.dataChannels) {
            const int idx = pickNext(now);
            if (idx < 0)
                break;
            Active a{waiting_[static_cast<std::size_t>(idx)], 0};
            waiting_.erase(waiting_.begin() + idx);
            const Cycle occ = timing_.occupancy(a.pending.txn.kind);
            a.endsAt = now + occ;
            stats_.busyCycles += occ;
            const Cycle wait = now - a.pending.readyAt;
            if (a.pending.txn.demandWaiting || !a.pending.txn.isPrefetch) {
                stats_.queueWaitDemand += wait;
                ++stats_.grantsDemand;
            } else {
                stats_.queueWaitPrefetch += wait;
                ++stats_.grantsPrefetch;
            }
            grants.push_back({a.pending.id, now});
            rr_next_ = (a.pending.txn.requester == kNoProc
                            ? rr_next_
                            : a.pending.txn.requester + 1) %
                       num_procs_;
            active_.push_back(a);
        }
    }

    Cycle
    nextGrantCycle(Cycle now) const
    {
        if (active_.size() >= timing_.dataChannels)
            return kNoCycle;
        Cycle next = kNoCycle;
        for (const Pending &p : waiting_)
            next = std::min(next, p.readyAt);
        return next == kNoCycle ? kNoCycle : std::max(next, now);
    }

    Cycle
    nextCompletionCycle(Cycle now) const
    {
        Cycle next = kNoCycle;
        for (const Pending &p : addr_ops_)
            next = std::min(next, p.readyAt);
        for (const Active &a : active_)
            next = std::min(next, a.endsAt);
        return next == kNoCycle ? kNoCycle : std::max(next, now);
    }

    std::vector<Transaction>
    pendingTransactions() const
    {
        std::vector<Transaction> out;
        for (const Active &a : active_)
            out.push_back(a.pending.txn);
        for (const Pending &p : waiting_)
            out.push_back(p.txn);
        for (const Pending &p : addr_ops_)
            out.push_back(p.txn);
        return out;
    }

    const BusStats &stats() const { return stats_; }

  private:
    struct Pending
    {
        Transaction txn;
        std::uint64_t id;
        Cycle readyAt;
    };

    struct Active
    {
        Pending pending;
        Cycle endsAt;
    };

    /** Demand class first, then processor rank from the round-robin
     *  pointer (ownerless last), then queue position. */
    int
    pickNext(Cycle now) const
    {
        int best = -1;
        bool best_demand = false;
        std::uint32_t best_rank = ~std::uint32_t{0};
        for (std::size_t i = 0; i < waiting_.size(); ++i) {
            const Pending &p = waiting_[i];
            if (p.readyAt > now)
                continue;
            const bool demand = p.txn.demandWaiting || !p.txn.isPrefetch;
            const std::uint32_t rank =
                p.txn.requester == kNoProc
                    ? num_procs_
                    : (p.txn.requester + num_procs_ - rr_next_) % num_procs_;
            if (best < 0 || (demand && !best_demand) ||
                (demand == best_demand && rank < best_rank)) {
                best = static_cast<int>(i);
                best_demand = demand;
                best_rank = rank;
            }
        }
        return best;
    }

    BusTiming timing_;
    unsigned num_procs_;
    std::vector<Pending> waiting_;
    std::vector<Active> active_;
    std::vector<Pending> addr_ops_;
    std::uint64_t next_id_ = 1;
    ProcId rr_next_ = 0;
    BusStats stats_;
};

void
expectSameTransactions(const std::vector<Transaction> &a,
                       const std::vector<Transaction> &b, Cycle at)
{
    ASSERT_EQ(a.size(), b.size()) << "cycle " << at;
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].kind, b[i].kind) << "cycle " << at << " #" << i;
        EXPECT_EQ(a[i].requester, b[i].requester) << "cycle " << at;
        EXPECT_EQ(a[i].lineBase, b[i].lineBase) << "cycle " << at;
        EXPECT_EQ(a[i].isPrefetch, b[i].isPrefetch) << "cycle " << at;
        EXPECT_EQ(a[i].demandWaiting, b[i].demandWaiting) << "cycle " << at;
        EXPECT_EQ(a[i].issuedAt, b[i].issuedAt) << "cycle " << at;
    }
}

void
expectSameStats(const BusStats &a, const BusStats &b)
{
    EXPECT_EQ(a.busyCycles, b.busyCycles);
    for (unsigned k = 0; k < 5; ++k)
        EXPECT_EQ(a.opCount[k], b.opCount[k]) << "op kind " << k;
    EXPECT_EQ(a.queueWaitDemand, b.queueWaitDemand);
    EXPECT_EQ(a.queueWaitPrefetch, b.queueWaitPrefetch);
    EXPECT_EQ(a.grantsDemand, b.grantsDemand);
    EXPECT_EQ(a.grantsPrefetch, b.grantsPrefetch);
}

/** One random stream: requests from random owners (kNoProc included),
 *  demand and prefetch fills, writebacks and updates ready at once,
 *  upgrades, writebacks requested from inside completions, and
 *  promotions of recent ids wherever they are. */
void
runArbiterDifferential(std::uint64_t seed, unsigned procs, unsigned channels,
                       ScanBus &ref)
{
    const BusTiming timing{40, 4, 2, channels};
    SplitBus bus(timing, procs);
    obs::MetricsRegistry metrics;
    obs::Sink sink(metrics, nullptr, nullptr, nullptr);
    std::vector<ScanBus::Grant> grants;
    sink.setExtraConsumer([&](const obs::Event &e) {
        if (e.kind == obs::EventKind::BusGrant)
            grants.push_back({e.busId, e.cycle});
    });
    bus.setSink(&sink);

    // Both buses complete the same transactions in the same order, so
    // a writeback requested from the callback is the same on both.
    std::vector<std::pair<std::uint64_t, Cycle>> done_new, done_ref;
    const auto writeback_of = [](const Transaction &t, Cycle now) {
        Transaction wb;
        wb.kind = BusOpKind::WriteBack;
        wb.requester = t.requester;
        wb.lineBase = t.lineBase + 0x10000;
        wb.issuedAt = now;
        return wb;
    };
    bus.setCompletion([&](const Transaction &t, Cycle now) {
        done_new.push_back({t.lineBase, now});
        if (transfersData(t.kind) && t.lineBase % 3 == 0)
            bus.request(writeback_of(t, now), now);
    });
    ref.completion = [&](const Transaction &t, Cycle now) {
        done_ref.push_back({t.lineBase, now});
        if (transfersData(t.kind) && t.lineBase % 3 == 0)
            ref.request(writeback_of(t, now), now);
    };

    Rng rng(seed);
    std::uint64_t issued = 0;
    Addr next_line = 0x40;
    for (Cycle now = 0; now < 3000; ++now) {
        ASSERT_EQ(bus.nextGrantCycle(now), ref.nextGrantCycle(now))
            << "cycle " << now;
        ASSERT_EQ(bus.nextCompletionCycle(now), ref.nextCompletionCycle(now))
            << "cycle " << now;
        bus.tick(now);
        ref.tick(now);
        ASSERT_EQ(grants.size(), ref.grants.size()) << "cycle " << now;
        // Bursts of requests at about twice what one channel serves,
        // with quiet stretches in between, so the queue both saturates
        // and drains.
        const bool busy_phase = (now / 300) % 2 == 0;
        const unsigned requests = static_cast<unsigned>(
            busy_phase ? rng.below(2) : rng.chance(0.1) ? 1 : 0);
        for (unsigned r = 0; r < requests; ++r) {
            Transaction t;
            const std::uint64_t who = rng.below(procs + 1);
            t.requester = who == procs ? kNoProc : static_cast<ProcId>(who);
            t.lineBase = next_line;
            next_line += 0x40;
            t.issuedAt = now;
            const std::uint64_t kind = rng.below(10);
            if (kind < 7) {
                t.kind = rng.chance(0.5) ? BusOpKind::ReadShared
                                         : BusOpKind::ReadExclusive;
                t.isPrefetch = rng.chance(0.5);
                t.demandWaiting = !t.isPrefetch;
            } else if (kind == 7) {
                t.kind = BusOpKind::WriteBack;
            } else if (kind == 8) {
                t.kind = BusOpKind::WriteUpdate;
                t.demandWaiting = true;
            } else {
                t.kind = BusOpKind::Upgrade;
                t.demandWaiting = true;
            }
            const std::uint64_t id_new = bus.request(t, now);
            const std::uint64_t id_ref = ref.request(t, now);
            ASSERT_EQ(id_new, id_ref);
            issued = id_new;
        }
        // Promote a recent id: in its memory phase, ready, in
        // transfer, or already gone.
        if (issued > 0 && rng.chance(0.3)) {
            const std::uint64_t back = rng.below(std::min<std::uint64_t>(issued, 40));
            bus.promoteToDemand(issued - back);
            ref.promoteToDemand(issued - back, now);
        }
        if (now % 7 == 0) {
            std::string why;
            ASSERT_TRUE(bus.checkInvariants(&why)) << why;
            expectSameTransactions(bus.pendingTransactions(),
                                   ref.pendingTransactions(), now);
            expectSameStats(bus.stats(), ref.stats());
        }
    }
    for (std::size_t i = 0; i < grants.size(); ++i) {
        ASSERT_EQ(grants[i].id, ref.grants[i].id) << "grant #" << i;
        ASSERT_EQ(grants[i].at, ref.grants[i].at) << "grant #" << i;
    }
    EXPECT_EQ(done_new, done_ref);
    expectSameStats(bus.stats(), ref.stats());
    expectSameTransactions(bus.pendingTransactions(), ref.pendingTransactions(),
                           3000);
    EXPECT_GT(grants.size(), 300u);
}

TEST(ArbiterDifferential, MatchesLinearScan)
{
    unsigned in_memory = 0, ready = 0, active = 0;
    for (const unsigned procs : {1u, 3u, 4u, 16u, 32u}) {
        for (unsigned channels = 1; channels <= 4; ++channels) {
            for (std::uint64_t seed = 1; seed <= 2; ++seed) {
                SCOPED_TRACE(testing::Message()
                             << "procs " << procs << " channels " << channels
                             << " seed " << seed);
                ScanBus ref(BusTiming{40, 4, 2, channels}, procs);
                runArbiterDifferential(seed * 7919 + procs * 31 + channels,
                                       procs, channels, ref);
                if (testing::Test::HasFatalFailure())
                    return;
                in_memory += ref.promotedInMemory;
                ready += ref.promotedReady;
                active += ref.promotedActive;
            }
        }
    }
    // The streams promote operations in every phase.
    EXPECT_GT(in_memory, 0u);
    EXPECT_GT(ready, 0u);
    EXPECT_GT(active, 0u);
}

TEST(BusOpNames, AllNamed)
{
    EXPECT_EQ(busOpName(BusOpKind::ReadShared), "ReadShared");
    EXPECT_EQ(busOpName(BusOpKind::ReadExclusive), "ReadExclusive");
    EXPECT_EQ(busOpName(BusOpKind::Upgrade), "Upgrade");
    EXPECT_EQ(busOpName(BusOpKind::WriteBack), "WriteBack");
    EXPECT_EQ(busOpName(BusOpKind::WriteUpdate), "WriteUpdate");
}

} // namespace
} // namespace prefsim
