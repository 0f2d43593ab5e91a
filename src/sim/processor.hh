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
#include "obs/event.hh"
#include "sim/memory_system.hh"
#include "sim/sim_stats.hh"
#include "sim/sync.hh"
#include "trace/trace.hh"
#include "trace/trace_view.hh"

namespace prefsim
{

/**
 * One simulated CPU executing its stream: a base trace with, for an
 * annotation, the prefetches placed into it (trace/trace_view.hh). The
 * cursor walks both at once; a plain trace is a stream with no
 * placements.
 */
class Processor
{
  public:
    /** Invoked by the last barrier arriver to release the others. */
    using ReleaseAllFn = std::function<void(Cycle)>;

    /**
     * @param placements The prefetches placed into @p trace, sorted, or
     * null for none. An Instr record of count 0 takes no cycle, with
     * or without placements, so a non-canonical trace (trace.hh)
     * simulates as its canonical form.
     */
    Processor(ProcId id, const Trace &trace, MemorySystem &mem,
              LockTable &locks, BarrierManager &barriers, ProcStats &stats,
              ReleaseAllFn release_all,
              const PlacementList *placements = nullptr);

    /** Execute (at most) one cycle of work at cycle @p now. */
    void tick(Cycle now);

    /**
     * Wake from a memory-system stall at cycle @p now.
     * @param retry Re-execute the blocked access (vs. it was satisfied).
     */
    void wake(bool retry, Cycle now);

    /** Release from a barrier (all processors arrived) at cycle
     *  @p now. */
    void barrierRelease(Cycle now);

    /**
     * Number of upcoming cycles this processor is *inert* for: ticks
     * that cannot acquire a lock, release one, block, arrive at a
     * barrier, issue a bus operation, or otherwise affect another
     * processor. A Running processor walks its trace: Instr bursts,
     * the instruction cycle of references and prefetches, and demand
     * accesses that would hit quietly (see MemorySystem::quietHitSlot)
     * are inert; the walk stops at the first sync record, prefetch
     * access (it executes cycle-exactly even when it drops), or demand
     * access that would miss, upgrade, or swap. It stops before the
     * stream's final base record too, which always executes
     * cycle-exactly with any placements after it, so a replay never
     * retires a stream, and at the plan's size bounds
     * (0xffff steps, 2^32 - 1 cycles), where the next tick executes
     * exactly like any other boundary's. Blocked and Done processors
     * return kNoCycle, and so do a spinner on a held lock and a
     * prefetch stalled on a full buffer: they never constrain the
     * fast-forward window (their wake-ups come from bus completions or
     * other processors' ticks, which bound the window separately and
     * expire the cached boundary). 0 means the next tick may have side
     * effects and must execute cycle-exactly.
     *
     * The walk records a *quiet plan* that fastForward() replays: each
     * record's cycle offset and running statistics totals, and each
     * quiet hit's frame slot and word. The plan is tagged with the
     * cache version it was walked under (MemorySystem::cacheVersion)
     * and stays valid until that version moves; until then later
     * queries re-read it in O(1), and a replay that reached the
     * boundary answers 0 without a walk. @p now must be the
     * processor's local clock.
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
            return locks_.holder(cur_.sync) == kNoProc
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
            // Most queries re-read a plan no change has touched.
            if (!(plan_.valid && plan_.end >= now && planCurrent()))
                walkPlan(now);
            return plan_.end - now;
        }
        return 0;
    }

    /**
     * Retire @p n inert cycles [now, now+n) in one step, with stats
     * identical to n individual tick() calls. A Running processor
     * replays the quiet plan its last inertCycles(now') query walked
     * or re-read, and @p n must not pass that plan's end: now + n <=
     * now' + inertCycles(now'), else it panics. The quiet hits'
     * cache-local side effects go straight to the planned frames
     * (their effects are own-cache-only, so no ordering with other
     * processors' windows arises), the statistics are the difference
     * of the plan's running totals, and the cursor comes from the plan
     * — also when the span ends mid-burst or between a reference's two
     * cycles. Blocked processors accept any span: its cycles go to the
     * stall bucket chosen when the wait began (a spinner's or a
     * full-buffer prefetch's per-cycle retries provably fail during an
     * inert window), so a processor's statistics are exact as of its
     * local clock.
     */
    void fastForward(Cycle n, Cycle now);

    /** Attach the simulator's finished-processor counter (incremented
     *  once when this processor retires its last record). */
    void setDoneCounter(std::size_t *c) { done_counter_ = c; }

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
    SyncId spinLockId() const { return cur_.sync; }

    ProcId id() const { return id_; }

    /** Trace records retired plus partial progress (progress monitor). */
    std::uint64_t progress() const { return progress_; }

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

    /** Advance to the next record; past the last one, retire the
     *  trace (Done, finished at the cycle after @p now). */
    void advance(Cycle now);

    /** Load the record at the cursor into cur_ (and an Instr burst's
     *  count into instr_left_), skipping empty bursts. @return false
     *  past the stream's last record. */
    bool seek();

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

    /** Walk a new plan from the live cursor at cycle @p now to the
     *  next boundary (see inertCycles). */
    void walkPlan(Cycle now) const;

    /** Replay the plan up to offset @p to from its start. */
    void applyPlan(Cycle to);

    /** Enter blocked state @p s at cycle @p now, counting this cycle
     *  and every later blocked one into @p bucket. */
    void beginStall(State s, Cycle *bucket, Cycle now, obs::Stall why);

    /** Execute the data access of the current Read/Write record.
     *  @return true if the record completed. */
    bool executeAccess(Cycle now);

    /** No record or placement. */
    static constexpr std::size_t kNoIndex = ~std::size_t{0};

    ProcId id_;
    const Trace &trace_;
    /** The placements merged into trace_. */
    const Placement *places_;
    std::size_t num_places_;
    MemorySystem &mem_;
    LockTable &locks_;
    BarrierManager &barriers_;
    ProcStats &stats_;
    ReleaseAllFn release_all_;
    /** Fired after a LockRelease executes (see setLockReleaseHook). */
    std::function<void(SyncId)> lock_release_;

    State state_ = State::Running;
    /** @name The cursor: the current record is placement next_ when
     *  on_placement_, else base record index_ from emitted_ on. @{ */
    std::size_t index_ = 0;       ///< Current base record.
    std::size_t next_ = 0;        ///< First placement not yet retired.
    std::size_t next_record_ = kNoIndex; ///< Its base record.
    std::uint32_t emitted_ = 0;   ///< Instr cycles of index_ before cur_.
    bool on_placement_ = false;
    TraceRecord cur_;             ///< The current record.
    /** @} */
    std::uint32_t instr_left_ = 0;///< Remaining count of an Instr record.
    bool in_access_phase_ = false;///< Ref record: instruction cycle done.
    std::uint64_t progress_ = 0;
    /** The last base record the stream keeps (trailing empty bursts
     *  drop out); kNoIndex when it keeps none. */
    std::size_t final_ = kNoIndex;

    /** The statistics field every blocked cycle of the current wait
     *  goes to, chosen once at entry (a WaitMemory stall's demand vs.
     *  upgrade bucket comes from the AccessResult instead of being
     *  re-derived from the cache state every cycle). */
    Cycle *stall_bucket_ = nullptr;

    /** Simulator's count of Done processors (may be null in unit
     *  tests driving a Processor directly). */
    std::size_t *done_counter_ = nullptr;

    /** Statistics a plan accumulates, as running totals. A plan holds
     *  at most kMaxPlanSteps steps, so each fits 16 bits. */
    struct PlanTotals
    {
        std::uint16_t reads = 0;
        std::uint16_t writes = 0;
    };

    /** One record of a plan: an Instr burst (or the rest of one, or
     *  the part before a placement), a reference, or the instruction
     *  cycle of a prefetch, which ends the plan. Step k covers base
     *  record first + k, except a placement's step, which shares its
     *  base record with the burst before it. A reference takes its two
     *  cycles, one when the plan starts in its access phase, or one
     *  when the plan ends before its access. An empty burst is a step
     *  of no cycles. */
    struct PlanStep
    {
        std::uint32_t end;  ///< Offset just past the step.
        PlanTotals totals;  ///< Through the end of this step.
    };
    static_assert(sizeof(PlanStep) == 8);

    /**
     * The quiet plan (see inertCycles): the walked window from cycle
     * start to end, valid while the cache version is current and the
     * live cursor is inside it. Self progression cannot invalidate it
     * (fastForward applies it; an exact tick drops it), and the
     * processor's own walk-ending action expires it by moving past
     * end. A walk ends at a boundary, which may be one of the plan's
     * size bounds; its buffers hold at most kMaxPlanSteps steps and
     * one hit per step.
     */
    struct QuietPlan
    {
        bool valid = false;
        bool startsInAccess = false; ///< Cursor phase at start.
        bool endInAccess = false;    ///< Cursor phase at end.
        std::uint64_t version = 0;
        Cycle start = 0;
        Cycle end = 0;
        std::size_t first = 0;     ///< Base record of the first step.
        std::uint32_t firstEmitted = 0; ///< Cursor's emitted_ at start.
        std::size_t endIndex = 0;  ///< Cursor record at end.
        std::uint32_t endEmitted = 0;   ///< Cursor's emitted_ at end.
        /** The placement's step, when the walk ended on one. */
        std::size_t placeStep = kNoIndex;
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
