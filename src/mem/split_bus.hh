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
 */
class SplitBus
{
  public:
    using CompletionFn = std::function<void(const Transaction &, Cycle)>;

    SplitBus(const BusTiming &timing, unsigned num_procs);

    /** Install the completion callback (one sink: the memory system). */
    void setCompletion(CompletionFn fn) { completion_ = std::move(fn); }

    /**
     * Enter @p t into the bus system at cycle @p now.
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
     * channel: the minimum readyAt over the waiting queue while a
     * channel is free. With every channel busy the next grant is gated
     * on a completion, so this returns kNoCycle (the completion bound
     * covers it). A tick at the returned cycle performs the grant(s);
     * the following call then returns a strictly later cycle (or
     * kNoCycle), so grant-folding loops terminate.
     */
    Cycle nextGrantCycle(Cycle now) const;

    /**
     * Snapshot of every transaction currently owned by the bus, in a
     * deterministic order (in transfer, then data-queue, then address
     * ops). Verification introspection: the model checker encodes this
     * into its state and the invariant suite cross-checks it against
     * the caches' MSHRs (no lost or duplicated transactions).
     */
    std::vector<Transaction> pendingTransactions() const;

    /**
     * Visit every owned transaction in the pendingTransactions() order
     * without materialising a vector (the runtime invariant hooks call
     * this per protocol step, so the copy was hot-path allocation).
     */
    template <typename Fn>
    void
    forEachPending(Fn &&fn) const
    {
        for (const Active &a : active_)
            fn(a.pending.txn);
        for (const Pending &p : waiting_)
            fn(p.txn);
        for (const Pending &p : addr_ops_)
            fn(p.txn);
    }

    /**
     * Structural bus invariants: transfer count within dataChannels,
     * unique transaction ids, no granted-but-unready operation. Shared
     * by the verify library and the PREFSIM_VERIFY runtime hooks.
     * @return true when everything holds; otherwise false with an
     *         explanation in @p why (when non-null).
     */
    bool checkInvariants(std::string *why = nullptr) const;

    const BusStats &stats() const { return stats_; }
    const BusTiming &timing() const { return timing_; }

    /** Operations waiting for a data channel right now (includes ops
     *  still in their contention-free memory phase). Interval-sampling
     *  snapshot of arbitration-queue depth. */
    std::size_t queuedOps() const { return waiting_.size(); }

    /** Transfers occupying data channels right now. */
    std::size_t activeTransfers() const { return active_.size(); }

    /** Zero the accumulated statistics (warmup exclusion). */
    void resetStats() { stats_ = BusStats{}; }

    /** Attach (or detach, with null) the run's event sink: requests
     *  (queue depth), grants and completions. */
    void setSink(obs::Sink *sink) { sink_ = sink; }

  private:
    struct Pending
    {
        Transaction txn;
        std::uint64_t id;
        Cycle readyAt;  ///< When the contention-free phase ends.
    };

    struct Active
    {
        Pending pending;
        Cycle endsAt = 0;
    };

    /** Pick the next ready transaction per arbitration policy. */
    int pickNext(Cycle now);

    BusTiming timing_;
    unsigned num_procs_;
    CompletionFn completion_;

    std::vector<Pending> waiting_; ///< Ready or in memory phase.
    std::vector<Active> active_;   ///< In transfer (<= dataChannels).
    std::vector<Pending> addr_ops_;///< Address-class ops in flight.
    std::uint64_t next_id_ = 1;
    ProcId rr_next_ = 0; ///< Round-robin arbitration pointer.

    BusStats stats_;
    obs::Sink *sink_ = nullptr;
};

} // namespace prefsim

#endif // PREFSIM_MEM_SPLIT_BUS_HH
