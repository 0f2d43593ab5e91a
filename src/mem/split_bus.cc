#include "mem/split_bus.hh"

#include <algorithm>
#include <bit>

#include "common/log.hh"
#include "obs/event.hh"
#include "verify/runtime.hh"

namespace prefsim
{

std::string
busOpName(BusOpKind kind)
{
    switch (kind) {
      case BusOpKind::ReadShared:
        return "ReadShared";
      case BusOpKind::ReadExclusive:
        return "ReadExclusive";
      case BusOpKind::Upgrade:
        return "Upgrade";
      case BusOpKind::WriteBack:
        return "WriteBack";
      case BusOpKind::WriteUpdate:
        return "WriteUpdate";
    }
    prefsim_panic("unknown bus op kind");
}

SplitBus::SplitBus(const BusTiming &timing, unsigned num_procs)
    : timing_(timing), num_procs_(num_procs)
{
    if (timing.dataTransfer == 0 || timing.dataTransfer > timing.totalLatency)
        prefsim_fatal("data transfer latency must be in [1, totalLatency]");
    if (timing.dataChannels == 0)
        prefsim_fatal("the bus needs at least one data channel");
    if (timing.upgradeOccupancy == 0)
        prefsim_fatal("upgrade occupancy must be at least one cycle");
    if (num_procs == 0 || num_procs > kMaxProcs)
        prefsim_fatal("the bus arbitrates 1..", kMaxProcs,
                      " processors, not ", num_procs);
    active_.reserve(timing.dataChannels);
    ready_.resize(num_procs + 1);
    ready_demand_.assign(num_procs + 1, 0);
    proc_bits_ = (std::uint64_t{1} << num_procs) - 1;
}

std::uint64_t
SplitBus::request(const Transaction &t, Cycle now)
{
    prefsim_assert(t.requester == kNoProc || t.requester < num_procs_,
                   "bus request from processor ", t.requester, " of ",
                   num_procs_);
    Pending p;
    p.txn = t;
    p.id = next_id_++;
    ++stats_.opCount[static_cast<unsigned>(t.kind)];
    if (BusTiming::isAddressClass(t.kind)) {
        // Address-class operations ride the conflict-free address bus:
        // fixed latency, never queued behind data transfers (3.3).
        p.readyAt = now + timing_.upgradeOccupancy;
        addr_ops_.push_back(p);
        return p.id;
    }
    // Data-carrying operations pay the address + memory-access pipeline
    // first; writebacks are ready immediately (data already buffered).
    p.readyAt = transfersData(t.kind) ? now + timing_.memoryPhase() : now;
    if (sink_)
        sink_->emit({.kind = obs::EventKind::BusRequest, .cycle = now,
                     .proc = t.requester, .line = t.lineBase, .busId = p.id,
                     .arg = static_cast<std::uint32_t>(queuedOps())});
    std::uint32_t slot;
    if (free_.empty()) {
        slot = static_cast<std::uint32_t>(pool_.size());
        pool_.emplace_back();
    } else {
        slot = free_.back();
        free_.pop_back();
    }
    pool_[slot] = Slot{p, false};
    heap_.push_back({p.readyAt, slot});
    std::push_heap(heap_.begin(), heap_.end(),
                   [](const Timed &a, const Timed &b) {
                       return a.readyAt > b.readyAt;
                   });
    return p.id;
}

void
SplitBus::promoteToDemand(std::uint64_t id)
{
    // A promotion is a late prefetch attach, rarer than a grant; the
    // pool holds only the waiting operations, so a scan finds the id.
    for (Slot &s : pool_) {
        if (s.pending.id != id)
            continue;
        if (s.ready && !isDemand(s.pending.txn)) {
            // A ready prefetch changes class in place: its position in
            // the owner's request-order queue stays.
            const unsigned owner = ownerOf(s.pending.txn);
            ++ready_demand_[owner];
            s.pending.txn.demandWaiting = true;
            updateMasks(owner);
            return;
        }
        s.pending.txn.demandWaiting = true;
        return;
    }
    // Already in transfer (or completed): nothing to do — the access will
    // be satisfied when the transfer finishes.
    for (auto &a : active_) {
        if (a.pending.id == id)
            a.pending.txn.demandWaiting = true;
    }
}

void
SplitBus::updateMasks(unsigned owner)
{
    const std::uint64_t bit = std::uint64_t{1} << owner;
    const std::size_t n = ready_[owner].size();
    const std::uint32_t demand = ready_demand_[owner];
    demand_mask_ = demand > 0 ? demand_mask_ | bit : demand_mask_ & ~bit;
    prefetch_mask_ =
        n > demand ? prefetch_mask_ | bit : prefetch_mask_ & ~bit;
}

void
SplitBus::drainReady(Cycle now)
{
    const auto later = [](const Timed &a, const Timed &b) {
        return a.readyAt > b.readyAt;
    };
    while (!heap_.empty() && heap_.front().readyAt <= now) {
        const std::uint32_t slot = heap_.front().slot;
        std::pop_heap(heap_.begin(), heap_.end(), later);
        heap_.pop_back();
        Slot &s = pool_[slot];
        s.ready = true;
        const unsigned owner = ownerOf(s.pending.txn);
        // Keep the queue in request order. Slots mostly turn ready in
        // request order, so the insertion point is near the back.
        std::vector<std::uint32_t> &q = ready_[owner];
        auto pos = q.end();
        while (pos != q.begin() && pool_[*(pos - 1)].pending.id > s.pending.id)
            --pos;
        q.insert(pos, slot);
        if (isDemand(s.pending.txn))
            ++ready_demand_[owner];
        updateMasks(owner);
    }
}

std::uint32_t
SplitBus::pickNext() const
{
    // Round-robin over processors starting at rr_next_, demand class
    // first (paper: arbitration "favors blocking loads over prefetches").
    //
    // The order is fully determined by (class, processor rank, per-
    // processor program order) and never by the interleaving in which
    // different processors' requests reached request(): distinct
    // processors always have distinct ranks — ownerless transactions
    // rank strictly after every processor, not as processor 0 — and
    // same-rank ties fall back to request order, which for a single
    // processor is its program order.
    const bool demand = demand_mask_ != 0;
    const std::uint64_t mask = demand ? demand_mask_ : prefetch_mask_;
    if (mask == 0)
        return kNoSlot;
    unsigned owner = num_procs_; // Ownerless unless a processor is ready.
    if (const std::uint64_t procs = mask & proc_bits_; procs != 0) {
        // Rotate the processor bits so rank 0 (the round-robin head)
        // is bit 0; the lowest set bit is then the best rank.
        const unsigned base = rr_next_;
        const std::uint64_t rotated =
            ((procs >> base) | (procs << (num_procs_ - base))) & proc_bits_;
        owner = base + static_cast<unsigned>(std::countr_zero(rotated));
        if (owner >= num_procs_)
            owner -= num_procs_;
    }
    const std::vector<std::uint32_t> &q = ready_[owner];
    if (!demand)
        return q.front(); // No demand op is ready anywhere.
    for (const std::uint32_t slot : q) {
        if (isDemand(pool_[slot].pending.txn))
            return slot;
    }
    prefsim_panic("demand mask names an owner without a demand op");
}

SplitBus::Pending
SplitBus::takeReady(std::uint32_t slot)
{
    Slot &s = pool_[slot];
    const unsigned owner = ownerOf(s.pending.txn);
    std::vector<std::uint32_t> &q = ready_[owner];
    q.erase(std::find(q.begin(), q.end(), slot));
    if (isDemand(s.pending.txn))
        --ready_demand_[owner];
    updateMasks(owner);
    const Pending p = s.pending;
    s = Slot{};
    free_.push_back(slot);
    return p;
}

unsigned
SplitBus::tick(Cycle now)
{
    unsigned completed = 0;
    // Retire a finished transaction, already out of its queue (the
    // completion may enqueue more). Its lifetime, the trace's async
    // span, runs from its request (Transaction::issuedAt) to now.
    const auto complete = [&](const Pending &p) {
        if (sink_)
            sink_->emit({.kind = obs::EventKind::BusComplete, .cycle = now,
                         .proc = p.txn.requester, .line = p.txn.lineBase,
                         .busId = p.id, .aux = p.txn.issuedAt,
                         .op = static_cast<std::uint8_t>(p.txn.kind)});
        ++completed;
        if (completion_)
            completion_(p.txn, now);
    };
    // Complete address-class operations whose fixed latency elapsed.
    for (std::size_t i = 0; i < addr_ops_.size();) {
        if (now >= addr_ops_[i].readyAt) {
            const Pending done = addr_ops_[i];
            addr_ops_.erase(addr_ops_.begin() +
                            static_cast<std::ptrdiff_t>(i));
            complete(done);
        } else {
            ++i;
        }
    }
    // Finish transfers whose occupancy has elapsed.
    for (std::size_t i = 0; i < active_.size();) {
        if (now >= active_[i].endsAt) {
            const Pending done = active_[i].pending;
            active_.erase(active_.begin() +
                          static_cast<std::ptrdiff_t>(i));
            complete(done);
        } else {
            ++i;
        }
    }
    // Grant free channels.
    if (active_.size() < timing_.dataChannels)
        drainReady(now);
    while (active_.size() < timing_.dataChannels) {
        const std::uint32_t slot = pickNext();
        if (slot == kNoSlot)
            break;
        Active a;
        a.pending = takeReady(slot);
        const Cycle occ = timing_.occupancy(a.pending.txn.kind);
        a.endsAt = now + occ;
        stats_.busyCycles += occ;
        const Cycle wait = now - a.pending.readyAt;
        const bool demand =
            a.pending.txn.demandWaiting || !a.pending.txn.isPrefetch;
        if (demand) {
            stats_.queueWaitDemand += wait;
            ++stats_.grantsDemand;
        } else {
            stats_.queueWaitPrefetch += wait;
            ++stats_.grantsPrefetch;
        }
        if (sink_)
            sink_->emit({.kind = obs::EventKind::BusGrant, .cycle = now,
                         .proc = a.pending.txn.requester,
                         .line = a.pending.txn.lineBase, .busId = a.pending.id,
                         .aux = a.pending.readyAt,
                         .arg = static_cast<std::uint32_t>(occ),
                         .demand = demand,
                         .parallel = timing_.dataChannels > 1});
        rr_next_ = (a.pending.txn.requester == kNoProc
                        ? rr_next_
                        : a.pending.txn.requester + 1) %
                   std::max(1u, num_procs_);
        active_.push_back(a);
    }
    PREFSIM_VERIFY_BUS(*this);
    return completed;
}

bool
SplitBus::busy() const
{
    return !active_.empty() || queuedOps() != 0 || !addr_ops_.empty();
}

Cycle
SplitBus::nextCompletionCycle(Cycle now) const
{
    Cycle next = kNoCycle;
    for (const Pending &p : addr_ops_)
        next = std::min(next, p.readyAt);
    for (const Active &a : active_)
        next = std::min(next, a.endsAt);
    // Deadlines in the past fire at the next tick (tick() completes
    // anything with readyAt/endsAt <= now).
    return next == kNoCycle ? kNoCycle : std::max(next, now);
}

Cycle
SplitBus::nextGrantCycle(Cycle now) const
{
    if (active_.size() >= timing_.dataChannels)
        return kNoCycle; // Gated on a completion freeing a channel.
    // A ready op turned ready at or before the last tick, so at or
    // before now; otherwise the heap holds the earliest readyAt.
    if ((demand_mask_ | prefetch_mask_) != 0)
        return now;
    return heap_.empty() ? kNoCycle : std::max(heap_.front().readyAt, now);
}

std::vector<Transaction>
SplitBus::pendingTransactions() const
{
    std::vector<const Pending *> waiting;
    waiting.reserve(queuedOps());
    for (const Slot &s : pool_) {
        if (s.pending.id != 0)
            waiting.push_back(&s.pending);
    }
    std::sort(waiting.begin(), waiting.end(),
              [](const Pending *a, const Pending *b) { return a->id < b->id; });
    std::vector<Transaction> out;
    out.reserve(active_.size() + waiting.size() + addr_ops_.size());
    for (const Active &a : active_)
        out.push_back(a.pending.txn);
    for (const Pending *p : waiting)
        out.push_back(p->txn);
    for (const Pending &p : addr_ops_)
        out.push_back(p.txn);
    return out;
}

bool
SplitBus::checkInvariants(std::string *why) const
{
    auto violate = [&](const std::string &msg) {
        if (why)
            *why = msg;
        return false;
    };
    if (active_.size() > timing_.dataChannels)
        return violate("bus.structure: more transfers in flight than data channels");
    std::vector<std::uint64_t> ids;
    ids.reserve(active_.size() + queuedOps() + addr_ops_.size());
    for (const Active &a : active_)
        ids.push_back(a.pending.id);
    for (const Slot &s : pool_) {
        if (s.pending.id != 0)
            ids.push_back(s.pending.id);
    }
    for (const Pending &p : addr_ops_)
        ids.push_back(p.id);
    std::sort(ids.begin(), ids.end());
    if (std::adjacent_find(ids.begin(), ids.end()) != ids.end())
        return violate("bus.structure: duplicated bus transaction id");
    for (std::uint64_t id : ids) {
        if (id >= next_id_)
            return violate("bus.structure: transaction id from the future");
    }
    for (const Pending &p : addr_ops_) {
        if (!BusTiming::isAddressClass(p.txn.kind))
            return violate("bus.structure: data-carrying op queued on the address bus");
    }
    // The arbiter's bookkeeping: every waiting op sits in exactly one
    // of the heap and its owner's ready queue; queues are in request
    // order and the masks match their classes.
    std::size_t queued = heap_.size();
    for (const Timed &t : heap_) {
        if (t.slot >= pool_.size() || pool_[t.slot].pending.id == 0 ||
            pool_[t.slot].ready)
            return violate("bus.arbiter: heap entry is not a waiting op");
    }
    for (unsigned owner = 0; owner <= num_procs_; ++owner) {
        const std::vector<std::uint32_t> &q = ready_[owner];
        queued += q.size();
        std::uint32_t demand = 0;
        for (std::size_t i = 0; i < q.size(); ++i) {
            const Slot &s = pool_[q[i]];
            if (s.pending.id == 0 || !s.ready ||
                ownerOf(s.pending.txn) != owner)
                return violate("bus.arbiter: ready queue holds a foreign op");
            if (i > 0 && pool_[q[i - 1]].pending.id >= s.pending.id)
                return violate("bus.arbiter: ready queue out of request order");
            demand += isDemand(s.pending.txn) ? 1 : 0;
        }
        const std::uint64_t bit = std::uint64_t{1} << owner;
        if (demand != ready_demand_[owner] ||
            ((demand_mask_ & bit) != 0) != (demand > 0) ||
            ((prefetch_mask_ & bit) != 0) != (q.size() > demand))
            return violate("bus.arbiter: ready masks disagree with the queues");
    }
    if (queued != queuedOps())
        return violate("bus.arbiter: a waiting op is lost or queued twice");
    for (const Slot &s : pool_) {
        if (s.pending.id != 0 &&
            BusTiming::isAddressClass(s.pending.txn.kind))
            return violate("bus.structure: address-class op queued for the data bus");
    }
    return true;
}

} // namespace prefsim
