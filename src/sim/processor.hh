/**
 * @file
 * The trace-driven processor model.
 *
 * Timing follows the paper (§3.3): one cycle per instruction plus one
 * cycle per data access when it hits; a demand miss blocks the CPU until
 * its fill arrives (the cache is lockup-free for prefetches only). A
 * prefetch instruction costs a single cycle and stalls only when the
 * 16-deep prefetch buffer is full. Locks spin without bus traffic;
 * barriers hold the processor until every processor arrives.
 */

#ifndef PREFSIM_SIM_PROCESSOR_HH
#define PREFSIM_SIM_PROCESSOR_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.hh"
#include "sim/memory_system.hh"
#include "sim/sim_stats.hh"
#include "sim/sync.hh"
#include "trace/trace.hh"

namespace prefsim
{

/** One simulated CPU executing its trace. */
class Processor
{
  public:
    /** Invoked by the last barrier arriver to release the others. */
    using ReleaseAllFn = std::function<void(Cycle)>;

    Processor(ProcId id, const Trace &trace, MemorySystem &mem,
              LockTable &locks, BarrierManager &barriers, ProcStats &stats,
              ReleaseAllFn release_all);

    /** Execute (at most) one cycle of work at cycle @p now. */
    void tick(Cycle now);

    /**
     * Wake from a memory-system stall at cycle @p now.
     * @param retry Re-execute the blocked access (vs. it was satisfied).
     */
    void wake(bool retry, Cycle now);

    /**
     * Release from a barrier (all processors arrived).
     * @param ticked_this_cycle This processor's slot in the service
     *        rotation came before the releasing processor's, i.e. it
     *        already spent cycle @p now waiting (lazy stall accounting
     *        settles waitBarrier here; see docs/simcore.md).
     */
    void barrierRelease(Cycle now, bool ticked_this_cycle);

    /**
     * The cap on inertCycles() and the reach of a walk. A boundary
     * capped here is a safe conservative stand-in for the real one:
     * reaching it catches the processor up and re-walks from the live
     * cursor, at the cost of at most one workless exact cycle per span,
     * while an uncapped walk would traverse a long quiet tail (worst
     * case the rest of the trace) whose far end a snoop is likely to
     * invalidate anyway.
     */
    static constexpr Cycle kLookahead = 4096;

    /**
     * Number of upcoming cycles this processor is *inert* for, capped
     * at kLookahead: ticks that cannot acquire a lock, release one,
     * block, arrive at a barrier, issue a bus operation, or otherwise
     * affect another processor. A Running processor walks its trace:
     * Instr bursts, the instruction cycle of two-phase references,
     * demand accesses that would hit quietly (see
     * MemorySystem::quietHitSlot), and prefetch accesses that would
     * drop quietly (quietPrefetchDrop) are all inert; the walk stops at
     * the first sync record, prefetch that would issue or stall, or
     * access that would miss, upgrade, or swap. Reaching the end of the
     * trace stops the walk too — the cycle count up to Done bounds the
     * window so the final simulated cycle is exact in both engines.
     * Blocked and Done processors return kNoCycle, and so do a spinner
     * on a held lock and a prefetch stalled on a full buffer: they
     * never constrain the fast-forward window (their wake-ups come from
     * bus completions or other processors' ticks, which bound the
     * window separately and expire the cached boundary). 0 means the
     * next tick may have side effects and must execute cycle-exactly.
     *
     * The walk records a *quiet plan* that fastForward() replays: each
     * record's cycle offset and running statistics totals, and each
     * quiet hit's frame slot and word. The plan is tagged with the
     * cache version it was walked under (MemorySystem::cacheVersion)
     * and stays valid until that version moves; until then later
     * queries are O(1). @p now must be the current simulation cycle.
     *
     * The state dispatch is inline: the local-clock core calls this
     * whenever a processor's cached side-effect boundary expires.
     */
    Cycle
    inertCycles(Cycle now) const
    {
        switch (state_) {
          case State::Done:
          case State::WaitMemory:
          case State::WaitBarrier:
            // Woken by a bus completion or another processor's tick;
            // never a constraint on the fast-forward window.
            return kNoCycle;
          case State::SpinLock:
            // While the lock is held, per-cycle retries provably fail:
            // it can only be freed by a LockRelease, which executes in
            // an exact cycle (fastForward() bulk-adds the failed
            // retries). A released lock is grabbed at the very next
            // tick — and the release may have happened after this
            // processor's slot in the releasing cycle's rotation, so
            // it must force an exact cycle *now*, not merely rely on
            // the release cycle being exact.
            return locks_.holder(trace_[index_].sync) == kNoProc
                       ? 0
                       : kNoCycle;
          case State::StallPrefetch:
            // While the buffer is full, per-cycle reissues provably
            // fail: no demand miss is outstanding and remote snoops
            // only remove copies, so only one of this processor's own
            // fills can change the outcome, and every such fill frees
            // a prefetch MSHR. The fill's catch-up hook runs before
            // the MSHR is released, so the refreshed boundary lands on
            // the completion cycle — the first whose reissue succeeds.
            return mem_.cache(id_).prefetchMshrAvailable() ? 0 : kNoCycle;
          case State::Running:
            // Plan fast path inline: most queries re-read a plan no
            // change has touched (see runningInertCycles for the walk).
            // A replay that reached a real boundary leaves 0 here, so
            // the boundary's own exact tick needs no walk.
            if (plan_.valid && plan_.end >= now && planCurrent()) {
                const Cycle left = plan_.end - now;
                if (left >= kLookahead)
                    return kLookahead;
                if (!plan_.capped)
                    return left;
            }
            return runningInertCycles(now);
        }
        return 0;
    }

    /**
     * Retire @p n inert cycles [now, now+n) in one step, with stats
     * identical to n individual tick() calls. Only legal when @p n <=
     * inertCycles(n) for Running processors, which replay their quiet
     * plan: the quiet hits' cache-local side effects go straight to
     * the planned frames (their effects are own-cache-only, so no
     * ordering with other processors' windows arises), the statistics
     * are the difference of the plan's running totals, and the cursor
     * comes from the plan — also when the span ends mid-burst or
     * between a reference's two cycles. Without a current plan the
     * walk runs first. Blocked processors accept any span (their
     * counters are either bulk-added here — SpinLock / StallPrefetch,
     * whose per-cycle retries provably fail during an inert window —
     * or settled lazily at wake).
     */
    void fastForward(Cycle n, Cycle now);

    /** Attach the simulator's finished-processor counter (incremented
     *  once when this processor retires its last record). */
    void setDoneCounter(std::size_t *c) { done_counter_ = c; }

    /**
     * Select eager (per-cycle) stall accounting: every blocked tick
     * increments its bucket immediately and the wake-time settlement
     * adds zero. The CycleLoop oracle enables this so the differential
     * suite verifies the local-clock core's lazy settlement against
     * straightforward counting rather than sharing its arithmetic;
     * results are bit-identical by construction.
     */
    void setEagerStalls(bool eager) { eager_stalls_ = eager; }

    /**
     * Install a hook fired right after this processor executes a
     * LockRelease record, with the released lock's id. The local-clock
     * core uses it to re-arm the spinners parked on that lock: their
     * retries are provably futile while the lock is held, so the
     * engine stops servicing them at exact cycles and the release is
     * the one event that must put them back in the rotation.
     */
    void setLockReleaseHook(std::function<void(SyncId)> fn)
    {
        lock_release_ = std::move(fn);
    }

    bool done() const { return state_ == State::Done; }
    bool waitingAtBarrier() const { return state_ == State::WaitBarrier; }

    /** True while spinning on a held lock (SpinLock state). */
    bool spinning() const { return state_ == State::SpinLock; }

    /** The lock being spun on; only meaningful while spinning(). */
    SyncId spinLockId() const { return trace_[index_].sync; }

    ProcId id() const { return id_; }

    /** Trace records retired plus partial progress (progress monitor). */
    std::uint64_t progress() const { return progress_; }

    /**
     * Statistics view as of the start of cycle @p now, for interval
     * sampling. With lazy stall accounting a blocked processor's bucket
     * lags reality between entry and wake; this settles the open span
     * into a copy (the entering tick pre-counted its own cycle, so the
     * pending amount is `now - stall_anchor_`) without touching the
     * live counters or the anchor. With eager accounting (the
     * CycleLoop oracle) the live counters are already current and the
     * copy is returned unchanged — so both engines sample identical
     * values at identical cycles, which tests/test_timeseries.cc
     * asserts byte-for-byte.
     */
    ProcStats
    sampledStats(Cycle now) const
    {
        ProcStats s = stats_;
        if (!eager_stalls_ && stall_bucket_ != nullptr &&
            (state_ == State::WaitMemory ||
             state_ == State::WaitBarrier) &&
            now > stall_anchor_) {
            // The open bucket is a field of stats_; mirror the pending
            // span onto the same field of the copy by offset.
            const auto off =
                reinterpret_cast<const char *>(stall_bucket_) -
                reinterpret_cast<const char *>(&stats_);
            *reinterpret_cast<Cycle *>(reinterpret_cast<char *>(&s) +
                                       off) += now - stall_anchor_;
        }
        return s;
    }

    /** Human-readable state (deadlock diagnostics). */
    std::string describeState() const;

    /** Attach this run's event sink (null detaches). Every processor
     *  event is an exact-cycle state transition on the engine's main
     *  thread — never inside quiet fast-forward replay. */
    void setSink(obs::Sink *sink) { sink_ = sink; }

  private:
    enum class State : std::uint8_t
    {
        Running,      ///< Executing trace records.
        WaitMemory,   ///< Blocked in the memory system (fill/upgrade).
        SpinLock,     ///< Spinning on a held lock.
        WaitBarrier,  ///< Arrived at a barrier, waiting for the rest.
        StallPrefetch,///< Prefetch buffer full; reissuing each cycle
                      ///< (the local-clock core sleeps until a fill).
        Done,         ///< Trace exhausted.
    };

    /** Advance to the next record. */
    void advance(Cycle now);

    /** Retire the trace: Done, with @p finished_at as the cycle after
     *  the last retired one. */
    void finish(Cycle finished_at);

    /** The Running-state trace walk behind inertCycles(). */
    Cycle runningInertCycles(Cycle now) const;

    /** True when the plan's version is current; otherwise the plan is
     *  dropped. */
    bool
    planCurrent() const
    {
        if (plan_.version == mem_.cacheVersion(id_))
            return true;
        plan_.valid = false;
        return false;
    }

    /** Walk a new plan from the live cursor at cycle @p now until it
     *  reaches cycle @p until or a boundary. */
    void walkPlan(Cycle now, Cycle until) const;

    /** Replay the plan up to offset @p to from its start. */
    void applyPlan(Cycle to);

    /** Arm the lazy stall clock: the entering tick (cycle @p now) has
     *  already counted itself into @p bucket, so the settlement at wake
     *  covers [now + 1, wake). */
    void
    beginLazyStall(Cycle *bucket, Cycle now)
    {
        stall_bucket_ = bucket;
        stall_anchor_ = now + 1;
    }

    /** Execute the data access of the current Read/Write record.
     *  @return true if the record completed. */
    bool executeAccess(Cycle now);

    ProcId id_;
    const Trace &trace_;
    MemorySystem &mem_;
    LockTable &locks_;
    BarrierManager &barriers_;
    ProcStats &stats_;
    ReleaseAllFn release_all_;
    /** Fired after a LockRelease executes (see setLockReleaseHook). */
    std::function<void(SyncId)> lock_release_;

    State state_ = State::Running;
    std::size_t index_ = 0;       ///< Current record.
    std::uint32_t instr_left_ = 0;///< Remaining count of an Instr record.
    bool in_access_phase_ = false;///< Ref record: instruction cycle done.
    std::uint64_t progress_ = 0;

    /** @name Lazy stall accounting (WaitMemory / WaitBarrier).
     * Blocked ticks are no-ops; the time is settled arithmetically at
     * wake as `now - stall_anchor_`. The anchor is entry cycle + 1
     * because the entering tick pre-counts its own cycle. The bucket a
     * WaitMemory stall lands in (demand vs. upgrade) is chosen once at
     * entry from the AccessResult instead of re-deriving it from the
     * cache state every cycle. @{ */
    Cycle stall_anchor_ = 0;
    Cycle *stall_bucket_ = nullptr;
    /** @} */

    /** Simulator's count of Done processors (may be null in unit
     *  tests driving a Processor directly). */
    std::size_t *done_counter_ = nullptr;

    /** Count blocked cycles eagerly (CycleLoop oracle; see
     *  setEagerStalls). */
    bool eager_stalls_ = false;

    /** Statistics a plan accumulates, as running totals. A plan holds
     *  at most kMaxPlanSteps steps, so each fits 16 bits. */
    struct PlanTotals
    {
        std::uint16_t reads = 0;
        std::uint16_t writes = 0;
        std::uint16_t dropsResident = 0;
        std::uint16_t dropsDuplicate = 0;
    };

    /** One record of a plan, the plan's first record plus its
     *  position: an Instr burst (or the rest of one), a reference or a
     *  prefetch. A reference or prefetch takes its two cycles, one when
     *  the plan starts in its access phase, or one when the plan ends
     *  before its access. */
    struct PlanStep
    {
        std::uint32_t end;  ///< Offset just past the step.
        PlanTotals totals;  ///< Through the end of this step.
    };

    /**
     * The quiet plan (see inertCycles): the walked window from cycle
     * start to end, valid while the cache version is current and the
     * live cursor is inside it. Self progression cannot invalidate it
     * (fastForward applies it; an exact tick drops it), and the
     * processor's own walk-ending action expires it by moving past
     * end. capped marks a walk cut short by its lookahead (or its
     * size bounds) rather than a real boundary; the walk starts afresh
     * from the live cursor when a query needs more. Buffers are thus
     * bounded by the lookahead plus one burst.
     */
    struct QuietPlan
    {
        bool valid = false;
        bool capped = false;
        bool startsInAccess = false; ///< Cursor phase at start.
        bool endInAccess = false;    ///< Cursor phase at end.
        std::uint64_t version = 0;
        Cycle start = 0;
        Cycle end = 0;
        std::size_t first = 0;     ///< Trace index of the first step.
        std::size_t endIndex = 0;  ///< Cursor record at end.
        std::vector<PlanStep> steps;
        std::vector<CacheHit> hits;
        /** @name Replay cursor. @{ */
        std::uint32_t at = 0;      ///< Offset the cursor is at.
        std::size_t step = 0;      ///< Steps wholly replayed.
        std::size_t hit = 0;       ///< Hits replayed.
        PlanTotals counted;        ///< Statistics replayed.
        /** @} */
    };
    mutable QuietPlan plan_;

    obs::Sink *sink_ = nullptr;
};

} // namespace prefsim

#endif // PREFSIM_SIM_PROCESSOR_HH
