#include "sim/processor.hh"

#include <algorithm>

#include "common/log.hh"
#include "obs/event.hh"

namespace prefsim
{

Processor::Processor(ProcId id, const Trace &trace, MemorySystem &mem,
                     LockTable &locks, BarrierManager &barriers,
                     ProcStats &stats, ReleaseAllFn release_all)
    : id_(id), trace_(trace), mem_(mem), locks_(locks),
      barriers_(barriers), stats_(stats),
      release_all_(std::move(release_all))
{
    if (trace_.empty()) {
        state_ = State::Done;
        stats_.finishedAt = 0;
    } else if (trace_[0].kind == RecordKind::Instr) {
        instr_left_ = trace_[0].count;
    }
}

void
Processor::advance(Cycle now)
{
    ++index_;
    ++progress_;
    in_access_phase_ = false;
    if (index_ >= trace_.size()) {
        state_ = State::Done;
        stats_.finishedAt = now + 1; // This cycle was the last retired.
        if (done_counter_)
            ++*done_counter_;
        return;
    }
    if (trace_[index_].kind == RecordKind::Instr)
        instr_left_ = trace_[index_].count;
}

bool
Processor::executeAccess(Cycle now)
{
    const TraceRecord &r = trace_[index_];
    const bool is_write = r.kind == RecordKind::Write;
    const AccessResult res = mem_.demandAccess(id_, r.addr, is_write, now);
    Cycle *bucket = &stats_.stallDemand;
    obs::Stall why = obs::Stall::Miss;
    switch (res) {
      case AccessResult::Hit:
        ++stats_.busy;
        return true;
      case AccessResult::VictimHit:
        // The line was swapped in from the victim buffer; the access
        // re-executes next cycle and hits (one-cycle penalty).
        ++stats_.stallDemand;
        return false;
      case AccessResult::MissWait:
        break;
      case AccessResult::UpgradeWait:
        bucket = &stats_.stallUpgrade;
        why = obs::Stall::Upgrade;
        break;
      case AccessResult::InProgressWait:
        why = obs::Stall::InflightPrefetch;
        break;
    }
    state_ = State::WaitMemory;
    ++*bucket;
    beginLazyStall(bucket, now);
    if (sink_)
        sink_->emit({.kind = obs::EventKind::StallBegin, .cycle = now,
                     .proc = id_, .stall = why});
    return false;
}

void
Processor::tick(Cycle now)
{
    switch (state_) {
      case State::Done:
        return;
      case State::WaitMemory:
      case State::WaitBarrier:
        // Reference (eager) accounting: count each blocked cycle as it
        // passes and advance the anchor with it, so the settlement at
        // wake()/barrierRelease() degenerates to adding zero. The
        // CycleLoop oracle runs this mode so differential tests check
        // the local-clock core's lazy settlement arithmetic against simple
        // per-cycle counting instead of sharing it.
        if (eager_stalls_) {
            ++*stall_bucket_;
            ++stall_anchor_;
            return;
        }
        // Lazy stall accounting: blocked ticks are no-ops; the stalled
        // span is settled in one subtraction at wake()/barrierRelease()
        // against the bucket chosen at entry. (Skipping the per-cycle
        // cache stateOf() probe the old bucket attribution needed is a
        // large share of the local-clock core's speedup.)
        return;
      case State::SpinLock: {
        const TraceRecord &r = trace_[index_];
        if (locks_.tryAcquire(r.sync, id_)) {
            ++stats_.busy;
            state_ = State::Running;
            if (sink_)
                sink_->emit({.kind = obs::EventKind::LockAcquire, .cycle = now,
                             .proc = id_, .arg = r.sync});
            advance(now);
        } else {
            ++stats_.spinLock;
        }
        return;
      }
      case State::StallPrefetch: {
        const TraceRecord &r = trace_[index_];
        const PrefetchResult res = mem_.prefetchAccess(
            id_, r.addr, r.kind == RecordKind::PrefetchExcl, now);
        if (res == PrefetchResult::BufferFull) {
            ++stats_.stallPrefetchQueue;
        } else {
            // The stalled prefetch instruction finally issues: this
            // cycle retires it.
            ++stats_.busy;
            ++stats_.prefetchesExecuted;
            state_ = State::Running;
            if (sink_)
                sink_->emit({.kind = obs::EventKind::PrefetchStallEnd,
                             .cycle = now, .proc = id_});
            advance(now);
        }
        return;
      }
      case State::Running:
        break;
    }

    const TraceRecord &r = trace_[index_];
    switch (r.kind) {
      case RecordKind::Instr:
        ++stats_.busy;
        if (instr_left_ > 1) {
            --instr_left_;
        } else {
            instr_left_ = 0;
            advance(now);
        }
        return;

      case RecordKind::Read:
      case RecordKind::Write:
        if (!in_access_phase_) {
            // Cycle 1: the instruction itself.
            ++stats_.busy;
            ++stats_.demandRefs;
            if (r.kind == RecordKind::Read)
                ++stats_.reads;
            else
                ++stats_.writes;
            in_access_phase_ = true;
            return;
        }
        // Cycle 2(+): the data access.
        if (executeAccess(now))
            advance(now);
        return;

      case RecordKind::Prefetch:
      case RecordKind::PrefetchExcl: {
        // Paper 3.1: the overhead is "a single instruction and the
        // prefetch access itself" — one instruction cycle, then one
        // cycle issuing the access (the fill is asynchronous).
        if (!in_access_phase_) {
            ++stats_.busy;
            in_access_phase_ = true;
            return;
        }
        const PrefetchResult res = mem_.prefetchAccess(
            id_, r.addr, r.kind == RecordKind::PrefetchExcl, now);
        if (res == PrefetchResult::BufferFull) {
            ++stats_.stallPrefetchQueue;
            state_ = State::StallPrefetch;
            if (sink_)
                sink_->emit({.kind = obs::EventKind::StallBegin, .cycle = now,
                             .proc = id_,
                             .stall = obs::Stall::PrefetchBuffer});
        } else {
            ++stats_.busy;
            ++stats_.prefetchesExecuted;
            advance(now);
        }
        return;
      }

      case RecordKind::LockAcquire:
        if (locks_.tryAcquire(r.sync, id_)) {
            ++stats_.busy;
            if (sink_)
                sink_->emit({.kind = obs::EventKind::LockAcquire, .cycle = now,
                             .proc = id_, .arg = r.sync});
            advance(now);
        } else {
            ++stats_.spinLock;
            state_ = State::SpinLock;
            if (sink_)
                sink_->emit({.kind = obs::EventKind::StallBegin, .cycle = now,
                             .proc = id_, .stall = obs::Stall::Lock});
        }
        return;

      case RecordKind::LockRelease:
        ++stats_.busy;
        locks_.release(r.sync, id_);
        if (sink_)
            sink_->emit({.kind = obs::EventKind::LockRelease, .cycle = now,
                         .proc = id_, .arg = r.sync});
        if (lock_release_)
            lock_release_(r.sync);
        advance(now);
        return;

      case RecordKind::Barrier: {
        ++stats_.busy;
        const bool last = barriers_.arrive(r.sync, id_);
        // Emitted before the release below: the critical-path recorder
        // learns the episode's last arriver before the waiters leave.
        if (sink_)
            sink_->emit({.kind = obs::EventKind::BarrierArrive, .cycle = now,
                         .proc = id_, .arg = r.sync, .last = last});
        if (last) {
            // Last arrival: everyone proceeds.
            advance(now);
            if (release_all_)
                release_all_(now);
        } else {
            state_ = State::WaitBarrier;
            beginLazyStall(&stats_.waitBarrier, now);
        }
        return;
      }
    }
    prefsim_panic("unknown record kind");
}

void
Processor::wake(bool retry, Cycle now)
{
    prefsim_assert(state_ == State::WaitMemory,
                   "wake() on proc ", id_, " in state ", describeState());
    state_ = State::Running;
    if (sink_)
        sink_->emit({.kind = obs::EventKind::Wake, .cycle = now, .proc = id_});
    // Settle the blocked span [anchor, now) into the bucket chosen at
    // entry. Completions fire from the bus tick, which runs before the
    // processor rotation, so this processor never ticks at `now` while
    // still blocked — exactly the cycles the eager loop counted.
    *stall_bucket_ += now - stall_anchor_;
    ++progress_;
    if (!retry) {
        // The blocked access was satisfied by the completing operation.
        advance(now);
    }
    // Otherwise stay on the current record in its access phase; the next
    // tick re-executes the access (same cycle: the bus ticks first).
}

void
Processor::barrierRelease(Cycle now, bool ticked_this_cycle)
{
    prefsim_assert(state_ == State::WaitBarrier,
                   "barrierRelease() on proc ", id_, " in state ",
                   describeState());
    state_ = State::Running;
    if (sink_)
        sink_->emit({.kind = obs::EventKind::BarrierRelease, .cycle = now,
                     .proc = id_});
    // Settle the waiting span. Releases happen mid-rotation (the last
    // arriver executes its Barrier record), so processors whose service
    // slot preceded the releaser's already spent cycle `now` waiting
    // and are owed one extra cycle; later processors get released
    // before their slot and tick as Running this very cycle.
    stats_.waitBarrier += (now - stall_anchor_) + (ticked_this_cycle ? 1 : 0);
    ++progress_;
    advance(now);
}

Cycle
Processor::runningInertCycles(Cycle now, Cycle limit) const
{
    const std::uint64_t version = mem_.cacheVersion(id_);
    if (inert_valid_ && inert_version_ == version && inert_until_ > now) {
        // Still on a previously walked inert run.
        const Cycle left = inert_until_ - now;
        if (left >= limit)
            return limit;
        if (!inert_capped_)
            return left;
        // The cached walk hit its lookahead cap short of what this
        // window could use: extend by re-walking from the live cursor.
    }

    // Walk the trace from the live cursor, counting consecutive cycles
    // whose tick() provably has no cross-processor effect. Quiet-hit
    // and quiet-drop predictions stay valid for the whole window:
    // nothing another processor does during it can evict or invalidate
    // a line (those require a bus operation or an exact cycle), and
    // this processor's own quiet hits never change line residency
    // either. Look some distance beyond the requested limit so the
    // memoized end point survives several windows.
    static constexpr Cycle kLookahead = 4096;
    const Cycle cap = std::max(limit, kLookahead);
    Cycle n = 0;
    std::size_t idx = index_;
    bool access_phase = in_access_phase_;
    bool capped = true; // Set false when a real boundary is found.
    while (n < cap) {
        if (idx >= trace_.size()) {
            // Trace exhausted n cycles from now: the window may extend
            // exactly to the completion cycle, no further, so the final
            // retirement lands cycle_ on the same value the cycle loop
            // ends with.
            capped = false;
            break;
        }
        const TraceRecord &r = trace_[idx];
        if (r.kind == RecordKind::Instr) {
            const std::uint32_t left =
                idx == index_ ? instr_left_ : r.count;
            // A count of zero still costs the one cycle tick() charges.
            n += std::max<Cycle>(left, 1);
            ++idx;
            access_phase = false;
            continue;
        }
        if (r.kind == RecordKind::Read || r.kind == RecordKind::Write) {
            if (!access_phase) {
                // The instruction cycle only charges local counters.
                ++n;
                access_phase = true;
                continue;
            }
            if (!mem_.wouldHitQuietly(id_, r.addr,
                                      r.kind == RecordKind::Write)) {
                // Would stall, swap, promote, or issue a bus op:
                // cycle-exact territory.
                capped = false;
                break;
            }
            ++n;
            ++idx;
            access_phase = false;
            continue;
        }
        if (r.kind == RecordKind::Prefetch ||
            r.kind == RecordKind::PrefetchExcl) {
            if (!access_phase) {
                ++n;
                access_phase = true;
                continue;
            }
            if (!mem_.wouldPrefetchDropQuietly(id_, r.addr)) {
                // Would issue a bus operation or stall on the MSHR
                // pool: execute it exactly.
                capped = false;
                break;
            }
            ++n;
            ++idx;
            access_phase = false;
            continue;
        }
        // Sync records always execute cycle-exactly.
        capped = false;
        break;
    }
    inert_valid_ = true;
    inert_version_ = version;
    inert_until_ = now + n;
    inert_capped_ = capped;
    return std::min(n, limit);
}

void
Processor::fastForward(Cycle n, Cycle now)
{
    switch (state_) {
      case State::Done:
      case State::WaitMemory:
      case State::WaitBarrier:
        return; // Settled lazily at wake.
      case State::SpinLock:
        stats_.spinLock += n;
        return;
      case State::StallPrefetch:
        stats_.stallPrefetchQueue += n;
        return;
      case State::Running:
        break;
    }
    // Replay the cycles runningInertCycles() promised, record by
    // record. Quiet hits run through the real memory system — same
    // call, same cycle stamp as the cycle loop — so every cache-local
    // side effect (LRU, access masks, the silent E->M upgrade) lands
    // identically.
    const Cycle end = now + n;
    Cycle t = now;
    while (t < end) {
        prefsim_assert(state_ == State::Running,
                       "fastForward() on proc ", id_,
                       " left the Running state mid-window");
        const TraceRecord &r = trace_[index_];
        switch (r.kind) {
          case RecordKind::Instr: {
            const Cycle burst = std::max<Cycle>(instr_left_, 1);
            const Cycle take = std::min(burst, end - t);
            stats_.busy += take;
            if (take < burst) {
                instr_left_ -= static_cast<std::uint32_t>(take);
            } else {
                // The burst's last cycle is t + take - 1, where tick()
                // would have called advance().
                instr_left_ = 0;
                advance(t + take - 1);
            }
            t += take;
            break;
          }
          case RecordKind::Read:
          case RecordKind::Write:
            if (!in_access_phase_) {
                ++stats_.busy;
                ++stats_.demandRefs;
                if (r.kind == RecordKind::Read)
                    ++stats_.reads;
                else
                    ++stats_.writes;
                in_access_phase_ = true;
            } else {
                const bool completed = executeAccess(t);
                prefsim_assert(completed && state_ == State::Running,
                               "proc ", id_, " access at cycle ", t,
                               " was predicted to hit quietly but did "
                               "not complete");
                advance(t);
            }
            ++t;
            break;
          case RecordKind::Prefetch:
          case RecordKind::PrefetchExcl:
            if (!in_access_phase_) {
                ++stats_.busy;
                in_access_phase_ = true;
            } else {
                const PrefetchResult res = mem_.prefetchAccess(
                    id_, r.addr, r.kind == RecordKind::PrefetchExcl, t);
                prefsim_assert(
                    res == PrefetchResult::DroppedResident ||
                        res == PrefetchResult::DroppedDuplicate,
                    "proc ", id_, " prefetch at cycle ", t,
                    " was predicted to drop quietly but did not");
                ++stats_.busy;
                ++stats_.prefetchesExecuted;
                advance(t);
            }
            ++t;
            break;
          case RecordKind::LockAcquire:
          case RecordKind::LockRelease:
          case RecordKind::Barrier:
            prefsim_panic("fastForward() reached a sync record on proc ",
                          id_);
        }
        if (state_ == State::Done)
            return; // Only at t == end: the walk stops at completion.
    }
}

std::string
Processor::describeState() const
{
    switch (state_) {
      case State::Running:
        return "Running";
      case State::WaitMemory:
        return "WaitMemory";
      case State::SpinLock:
        return "SpinLock";
      case State::WaitBarrier:
        return "WaitBarrier";
      case State::StallPrefetch:
        return "StallPrefetch";
      case State::Done:
        return "Done";
    }
    return "?";
}

} // namespace prefsim
