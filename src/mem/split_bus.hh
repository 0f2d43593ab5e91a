/**
 * @file
 * The contended interconnect: a split-transaction bus model.
 *
 * A transaction entering the bus first spends its contention-free phase
 * (total latency minus the data-transfer time) in the address/memory
 * pipeline, which the paper assumes has enough bank parallelism never to
 * be the bottleneck. It then queues for the data bus, which serves one
 * operation at a time. Arbitration is round-robin across processors and
 * always favours operations a CPU is blocked on over prefetches (§3.3).
 *
 * Upgrades (invalidations) carry no data; they occupy the contended
 * resource for a small fixed address-slot cost (see DESIGN.md §1,
 * substitution 4). Writebacks occupy it for a full transfer.
 */

#ifndef PREFSIM_MEM_SPLIT_BUS_HH
#define PREFSIM_MEM_SPLIT_BUS_HH

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "common/types.hh"
#include "mem/bus_op.hh"

namespace prefsim
{

namespace obs
{
class Sink;
} // namespace obs

/** Timing parameters of the memory subsystem (paper §3.3). */
struct BusTiming
{
    /** Total uncontended memory latency in CPU cycles. */
    Cycle totalLatency = 100;
    /** Contended data-bus occupancy of one line transfer (4..32). */
    Cycle dataTransfer = 8;
    /** Contended occupancy of an address-only upgrade/invalidate. */
    Cycle upgradeOccupancy = 2;
    /**
     * Parallel data channels. 1 = the paper's single contended bus; a
     * large value approximates the contention-free interconnect of
     * Mowry-Gupta's DASH-cluster model (see 4.2 and the mowry_gupta
     * experiment).
     */
    unsigned dataChannels = 1;

    /** Contention-free phase length of a data-carrying operation. */
    Cycle
    memoryPhase() const
    {
        return totalLatency > dataTransfer ? totalLatency - dataTransfer
                                           : 0;
    }

    /** Data-bus occupancy of @p kind (address-class ops never occupy
     *  the data bus: the paper's address bus is "relatively conflict
     *  free"). */
    Cycle
    occupancy(BusOpKind kind) const
    {
        return isAddressClass(kind) ? upgradeOccupancy : dataTransfer;
    }

    /** Upgrades are pure address traffic and ride the (uncontended)
     *  address bus: fixed latency, no data-bus queueing. Write-update
     *  broadcasts carry the written word, so they stay on the data
     *  bus (with their small occupancy). */
    static constexpr bool
    isAddressClass(BusOpKind kind)
    {
        return kind == BusOpKind::Upgrade;
    }

    /**
     * Request lookahead: the minimum number of cycles between
     * a request entering the bus and the earliest completion callback
     * it can fire, over every operation kind. Address-class ops
     * complete after their fixed occupancy; a writeback (ready
     * immediately) can be granted the same cycle and completes a full
     * transfer later; data fills pay the whole uncontended latency.
     * Any cross-processor influence travels through a completion, so a
     * request issued at cycle t cannot affect another processor before
     * t + requestLookahead(): the contention-free latency floor (the
     * prefetch-quality report's floor bound).
     */
    Cycle
    requestLookahead() const
    {
        return std::min(upgradeOccupancy, dataTransfer);
    }
};

/** Aggregate bus accounting. */
struct BusStats
{
    Cycle busyCycles = 0;       ///< Cycles the *data* bus was occupied
                                ///< (address-class ops excluded).
    std::uint64_t opCount[5] = {0, 0, 0, 0, 0}; ///< Indexed by BusOpKind.
    Cycle queueWaitDemand = 0;  ///< Data-bus queueing of demand ops.
    Cycle queueWaitPrefetch = 0;///< Data-bus queueing of prefetch ops.
    std::uint64_t grantsDemand = 0;
    std::uint64_t grantsPrefetch = 0;

    std::uint64_t
    totalOps() const
    {
        return opCount[0] + opCount[1] + opCount[2] + opCount[3] +
               opCount[4];
    }

    /** Data-bus utilisation over @p cycles (paper Table 2). */
    double
    utilization(Cycle cycles) const
    {
        return cycles ? static_cast<double>(busyCycles) /
                            static_cast<double>(cycles)
                      : 0.0;
    }
};

/**
 * The split-transaction bus scheduler.
 *
 * Owns no coherence logic: callers snoop at request time and register a
 * completion callback to install fills and wake processors.
 *
 * Arbitration runs in constant time per grant. A waiting data operation
 * lives in a slot of a pool; while its contention-free phase runs, the
 * slot sits in a min-heap keyed by readyAt, which also answers
 * nextGrantCycle(). A tick with a free channel moves every slot whose
 * readyAt has come into its owner's ready queue, kept in request (id)
 * order. Two bit masks over the owners (processor ranks, plus one bit
 * after them for ownerless operations) record which owners have a
 * demand-class and which a prefetch-class operation ready. A grant
 * rotates the demand mask (or, when it is empty, the prefetch mask) to
 * the round-robin pointer and takes the owner at countr_zero; within the
 * owner, the earliest ready operation of the class wins. The order is
 * the one a scan of every waiting operation would produce: demand
 * before prefetch, then the owner's rank from the round-robin pointer
 * (ownerless last), then request order. promoteToDemand() scans the
 * pool for its operation.
 */
class SplitBus
{
  public:
    using CompletionFn = std::function<void(const Transaction &, Cycle)>;

    /** A bus for @p num_procs processors (1..kMaxProcs). */
    SplitBus(const BusTiming &timing, unsigned num_procs);

    /** Most processors the ready masks cover (one more bit ranks the
     *  ownerless operations). */
    static constexpr unsigned kMaxProcs = 63;

    /** Install the completion callback (one sink: the memory system). */
    void setCompletion(CompletionFn fn) { completion_ = std::move(fn); }

    /**
     * Enter @p t into the bus system at cycle @p now. The requester is
     * a processor below num_procs or kNoProc.
     * @return an opaque id usable with promoteToDemand().
     */
    std::uint64_t request(const Transaction &t, Cycle now);

    /**
     * Raise a pending prefetch operation to demand priority (a CPU access
     * reached a line whose prefetch is still in flight).
     */
    void promoteToDemand(std::uint64_t id);

    /**
     * Advance to cycle @p now: grant the data bus, fire completions.
     * Cycles never go backwards from one tick to the next.
     * @return the number of completions fired this cycle (the verify
     *         layer steps the machine completion-by-completion).
     */
    unsigned tick(Cycle now);

    /** True if any transaction is pending or in transfer. */
    bool busy() const;

    /**
     * Earliest cycle a completion callback could fire: an address op's
     * fixed latency or an active transfer's occupancy elapsing.
     * Completions install lines and wake processors, so they bound the
     * local-clock core's frontier jumps; grants (nextGrantCycle) do
     * not — they touch only bus-internal queues and statistics, so the
     * core folds them into the jump by ticking the bus mid-gap.
     * @return kNoCycle when nothing is in flight.
     */
    Cycle nextCompletionCycle(Cycle now) const;

    /**
     * Earliest cycle a queued data operation could be granted a
     * channel: the minimum readyAt over the waiting operations while a
     * channel is free. With every channel busy the next grant is gated
     * on a completion, so this returns kNoCycle (the completion bound
     * covers it). A tick at the returned cycle performs the grant(s);
     * the following call then returns a strictly later cycle (or
     * kNoCycle), so grant-folding loops terminate. @p now is at least
     * the cycle of the last tick.
     */
    Cycle nextGrantCycle(Cycle now) const;

    /**
     * Snapshot of every transaction currently owned by the bus, in a
     * deterministic order (in transfer, then the waiting data
     * operations in request order, then address ops). Verification
     * introspection: the model checker encodes this into its state and
     * the invariant suite cross-checks it against the caches' MSHRs
     * (no lost or duplicated transactions).
     */
    std::vector<Transaction> pendingTransactions() const;

    /**
     * Visit every owned transaction without materialising a vector (the
     * runtime invariant hooks call this per protocol step, so a copy
     * was hot-path allocation): the same set as pendingTransactions(),
     * with the waiting data operations in pool order rather than
     * request order.
     */
    template <typename Fn>
    void
    forEachPending(Fn &&fn) const
    {
        for (const Active &a : active_)
            fn(a.pending.txn);
        for (const Slot &s : pool_) {
            if (s.pending.id != 0)
                fn(s.pending.txn);
        }
        for (const Pending &p : addr_ops_)
            fn(p.txn);
    }

    /**
     * Structural bus invariants: transfer count within dataChannels,
     * unique transaction ids, no granted-but-unready operation, and
     * arbiter bookkeeping (heap, ready queues and masks) consistent
     * with the waiting pool. Shared by the verify library and the
     * PREFSIM_VERIFY runtime hooks.
     * @return true when everything holds; otherwise false with an
     *         explanation in @p why (when non-null).
     */
    bool checkInvariants(std::string *why = nullptr) const;

    const BusStats &stats() const { return stats_; }
    const BusTiming &timing() const { return timing_; }

    /** Operations waiting for a data channel right now (includes ops
     *  still in their contention-free memory phase). Interval-sampling
     *  snapshot of arbitration-queue depth. */
    std::size_t queuedOps() const { return pool_.size() - free_.size(); }

    /** Transfers occupying data channels right now. */
    std::size_t activeTransfers() const { return active_.size(); }

    /** Zero the accumulated statistics (warmup exclusion). */
    void resetStats() { stats_ = BusStats{}; }

    /** Attach (or detach, with null) the run's event sink: requests
     *  (queue depth), grants and completions. */
    void setSink(obs::Sink *sink) { sink_ = sink; }

  private:
    static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

    struct Pending
    {
        Transaction txn;
        std::uint64_t id = 0; ///< 0 marks a free pool slot.
        Cycle readyAt = 0;    ///< When the contention-free phase ends.
    };

    struct Active
    {
        Pending pending;
        Cycle endsAt = 0;
    };

    /** A waiting data operation and where the arbiter keeps it. */
    struct Slot
    {
        Pending pending;
        bool ready = false; ///< In its owner's ready queue (else heap).
    };

    /** A heap entry: a slot still in its contention-free phase. */
    struct Timed
    {
        Cycle readyAt;
        std::uint32_t slot;
    };

    /** Demand arbitration class: a blocked CPU or a non-prefetch op. */
    static bool
    isDemand(const Transaction &t)
    {
        return t.demandWaiting || !t.isPrefetch;
    }

    /** Ready-queue index of @p t: its processor, or num_procs_ for an
     *  ownerless operation (ranked after every processor). */
    unsigned
    ownerOf(const Transaction &t) const
    {
        return t.requester == kNoProc ? num_procs_ : t.requester;
    }

    /** Move every heap slot whose readyAt is <= @p now into its
     *  owner's ready queue. */
    void drainReady(Cycle now);

    /** The slot arbitration grants next, or kNoSlot when nothing is
     *  ready. */
    std::uint32_t pickNext() const;

    /** Remove the granted @p slot from its ready queue, the masks and
     *  the pool. */
    Pending takeReady(std::uint32_t slot);

    /** Recompute @p owner's bits of the two ready masks. */
    void updateMasks(unsigned owner);

    BusTiming timing_;
    unsigned num_procs_;
    CompletionFn completion_;

    std::vector<Slot> pool_;           ///< Waiting data ops (by slot).
    std::vector<std::uint32_t> free_;  ///< Free pool slots.
    std::vector<Timed> heap_;          ///< Min-heap on readyAt.
    /** Per owner, ready slots in request (id) order. */
    std::vector<std::vector<std::uint32_t>> ready_;
    /** Per owner, how many of its ready slots are demand-class. */
    std::vector<std::uint32_t> ready_demand_;
    std::uint64_t demand_mask_ = 0;   ///< Owners with a ready demand op.
    std::uint64_t prefetch_mask_ = 0; ///< Owners with a ready prefetch.
    std::uint64_t proc_bits_ = 0;     ///< The num_procs_ processor bits.

    std::vector<Active> active_;   ///< In transfer (<= dataChannels).
    std::vector<Pending> addr_ops_;///< Address-class ops in flight.
    std::uint64_t next_id_ = 1;
    ProcId rr_next_ = 0; ///< Round-robin arbitration pointer.

    BusStats stats_;
    obs::Sink *sink_ = nullptr;
};

} // namespace prefsim

#endif // PREFSIM_MEM_SPLIT_BUS_HH
