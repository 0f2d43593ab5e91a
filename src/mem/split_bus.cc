#include "mem/split_bus.hh"

#include <algorithm>

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
    active_.reserve(timing.dataChannels);
}

std::uint64_t
SplitBus::request(const Transaction &t, Cycle now)
{
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
                     .arg = static_cast<std::uint32_t>(waiting_.size())});
    waiting_.push_back(p);
    return p.id;
}

void
SplitBus::promoteToDemand(std::uint64_t id)
{
    for (auto &p : waiting_) {
        if (p.id == id) {
            p.txn.demandWaiting = true;
            return;
        }
    }
    // Already in transfer (or completed): nothing to do — the access will
    // be satisfied when the transfer finishes.
    for (auto &a : active_) {
        if (a.pending.id == id)
            a.pending.txn.demandWaiting = true;
    }
}

int
SplitBus::pickNext(Cycle now)
{
    // Round-robin over processors starting at rr_next_, demand class
    // first (paper: arbitration "favors blocking loads over prefetches").
    //
    // The order is fully determined by (class, processor rank, per-
    // processor program order) and never by the interleaving in which
    // different processors' requests reached request(): distinct
    // processors always have distinct ranks — ownerless transactions
    // rank strictly after every processor, not as processor 0 — and
    // same-rank ties fall back to queue position, which for a single
    // processor is its program order.
    int best = -1;
    bool best_demand = false;
    std::uint32_t best_rank = ~std::uint32_t{0};
    const std::uint32_t base = rr_next_ % num_procs_;
    for (std::size_t i = 0; i < waiting_.size(); ++i) {
        const Pending &p = waiting_[i];
        if (p.readyAt > now)
            continue;
        const bool demand = p.txn.demandWaiting || !p.txn.isPrefetch;
        std::uint32_t rank = num_procs_;
        if (p.txn.requester != kNoProc) {
            // requester and base are both < num_procs_, so the
            // wrap-around distance needs one conditional subtract, not
            // a division (this scan runs for every grant attempt on
            // the critical path of both engines).
            rank = p.txn.requester + num_procs_ - base;
            if (rank >= num_procs_)
                rank -= num_procs_;
        }
        if (best < 0 || (demand && !best_demand) ||
            (demand == best_demand && rank < best_rank)) {
            best = static_cast<int>(i);
            best_demand = demand;
            best_rank = rank;
            if (best_demand && best_rank == 0)
                break; // Unbeatable: demand class at the rotation head
                       // (same-rank ties keep the earliest position).
        }
    }
    return best;
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
    while (active_.size() < timing_.dataChannels) {
        const int idx = pickNext(now);
        if (idx < 0)
            break;
        Active a;
        a.pending = waiting_[static_cast<std::size_t>(idx)];
        waiting_.erase(waiting_.begin() + idx);
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
    return !active_.empty() || !waiting_.empty() || !addr_ops_.empty();
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
    Cycle next = kNoCycle;
    // A queued op can be granted as soon as its memory phase ends.
    for (const Pending &p : waiting_)
        next = std::min(next, p.readyAt);
    return next == kNoCycle ? kNoCycle : std::max(next, now);
}

std::vector<Transaction>
SplitBus::pendingTransactions() const
{
    std::vector<Transaction> out;
    out.reserve(active_.size() + waiting_.size() + addr_ops_.size());
    for (const Active &a : active_)
        out.push_back(a.pending.txn);
    for (const Pending &p : waiting_)
        out.push_back(p.txn);
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
    ids.reserve(active_.size() + waiting_.size() + addr_ops_.size());
    for (const Active &a : active_)
        ids.push_back(a.pending.id);
    for (const Pending &p : waiting_)
        ids.push_back(p.id);
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
    for (const Pending &p : waiting_) {
        if (BusTiming::isAddressClass(p.txn.kind))
            return violate("bus.structure: address-class op queued for the data bus");
    }
    return true;
}

} // namespace prefsim
