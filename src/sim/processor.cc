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

namespace
{

/// Bounds of one plan: its statistics totals are 16-bit and its cycle
/// offsets 32-bit. A walk that reaches either stops as if capped.
constexpr std::size_t kMaxPlanSteps = 0xffff;
constexpr Cycle kMaxPlanCycles = 0xffff'ffff;

} // namespace

void
Processor::advance(Cycle now)
{
    ++index_;
    ++progress_;
    in_access_phase_ = false;
    if (index_ >= trace_.size()) {
        finish(now + 1); // This cycle was the last retired.
        return;
    }
    if (trace_[index_].kind == RecordKind::Instr)
        instr_left_ = trace_[index_].count;
}

void
Processor::finish(Cycle finished_at)
{
    state_ = State::Done;
    stats_.finishedAt = finished_at;
    if (done_counter_)
        ++*done_counter_;
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

    // An exact tick moves the cursor off the plan's path bookkeeping.
    plan_.valid = false;
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
Processor::runningInertCycles(Cycle now) const
{
    walkPlan(now, now + kLookahead);
    return std::min(plan_.end - now, kLookahead);
}

void
Processor::walkPlan(Cycle now, Cycle until) const
{
    // Walk the trace from the live cursor, counting consecutive cycles
    // whose tick() provably has no cross-processor effect. Quiet-hit
    // and quiet-drop predictions stay valid for the whole window:
    // nothing another processor does during it can evict or invalidate
    // a line (those require a bus operation or an exact cycle, and
    // bump the cache version), and this processor's own quiet hits
    // never change line residency either.
    QuietPlan &p = plan_;
    p.valid = true;
    p.startsInAccess = in_access_phase_;
    p.version = mem_.cacheVersion(id_);
    p.start = now;
    p.first = index_;
    p.steps.clear();
    p.hits.clear();
    p.at = 0;
    p.step = 0;
    p.hit = 0;
    p.counted = PlanTotals{};
    const CacheGeometry &geom = mem_.geometry();
    const std::vector<TraceRecord> &records = trace_.records();
    const Cycle cap = std::min(until - now, kMaxPlanCycles);
    Cycle n = 0;
    std::size_t idx = index_;
    bool access_phase = in_access_phase_;
    PlanTotals totals;
    const auto push = [&] {
        p.steps.push_back({static_cast<std::uint32_t>(n), totals});
    };
    bool capped = true; // Set false when a real boundary is found.
    while (n < cap && p.steps.size() < kMaxPlanSteps) {
        if (idx >= records.size()) {
            // Trace exhausted n cycles from the start: the window may
            // extend exactly to the completion cycle, no further, so
            // the final retirement lands cycle_ on the same value the
            // cycle loop ends with.
            capped = false;
            break;
        }
        const TraceRecord &r = records[idx];
        if (r.kind == RecordKind::Instr) {
            const std::uint32_t left = idx == index_ ? instr_left_ : r.count;
            // A count of zero still costs the one cycle tick() charges.
            const Cycle burst = std::max<Cycle>(left, 1);
            if (burst > kMaxPlanCycles - n)
                break; // A later plan starts at the burst.
            n += burst;
            push();
            ++idx;
            access_phase = false;
            continue;
        }
        const bool read = r.kind == RecordKind::Read;
        const bool write = r.kind == RecordKind::Write;
        if (!read && !write && r.kind != RecordKind::Prefetch &&
            r.kind != RecordKind::PrefetchExcl) {
            // Sync records always execute cycle-exactly.
            capped = false;
            break;
        }
        const bool took_instr = !access_phase;
        if (took_instr) {
            // The instruction cycle only charges local counters.
            ++n;
            totals.reads += read ? 1 : 0;
            totals.writes += write ? 1 : 0;
            access_phase = true;
        }
        bool quiet;
        if (read || write) {
            const std::uint32_t slot = mem_.quietHitSlot(id_, r.addr, write);
            quiet = slot != DataCache::kNoFrame;
            if (quiet)
                p.hits.push_back({static_cast<std::uint32_t>(n), slot,
                                  static_cast<std::uint8_t>(
                                      geom.wordInLine(r.addr)),
                                  write});
        } else {
            const PrefetchResult drop = mem_.quietPrefetchDrop(id_, r.addr);
            totals.dropsResident +=
                drop == PrefetchResult::DroppedResident ? 1 : 0;
            totals.dropsDuplicate +=
                drop == PrefetchResult::DroppedDuplicate ? 1 : 0;
            quiet = drop == PrefetchResult::DroppedResident ||
                    drop == PrefetchResult::DroppedDuplicate;
        }
        if (!quiet) {
            // Would stall, swap, promote, issue a bus op or wait for an
            // MSHR: cycle-exact territory. An instruction cycle taken
            // here is the plan's last step.
            if (took_instr)
                push();
            capped = false;
            break;
        }
        ++n;
        push();
        ++idx;
        access_phase = false;
    }
    p.end = p.start + n;
    p.endIndex = idx;
    p.endInAccess = access_phase;
    p.capped = capped;
}

void
Processor::applyPlan(Cycle to)
{
    QuietPlan &p = plan_;
    // Where the replay stops: the first step and hit it does not wholly
    // replay (steps are consecutive records from the plan's first). A
    // replay to the plan's end, the common case, needs no search.
    std::size_t k = p.steps.size();
    std::size_t hit_end = p.hits.size();
    if (p.start + to != p.end) {
        const auto from_step =
            p.steps.begin() + static_cast<std::ptrdiff_t>(p.step);
        k = static_cast<std::size_t>(
            std::upper_bound(from_step, p.steps.end(), to,
                             [](Cycle t, const PlanStep &s) {
                                 return t < s.end;
                             }) -
            p.steps.begin());
        const auto from_hit =
            p.hits.begin() + static_cast<std::ptrdiff_t>(p.hit);
        hit_end = static_cast<std::size_t>(
            std::lower_bound(from_hit, p.hits.end(), to,
                             [](const CacheHit &h, Cycle t) {
                                 return h.at < t;
                             }) -
            p.hits.begin());
    }
    // Quiet hits: the cache-local side effects, in order, at their
    // cycles.
    if (hit_end > p.hit)
        mem_.applyQuietHits(id_, p.hits.data() + p.hit,
                            p.hits.data() + hit_end, p.start);
    p.hit = hit_end;

    // The counters reached at offset to: the totals of the steps
    // before step k, plus the instruction cycle of a reference the
    // replay stops inside. The cursor comes from the same step.
    const std::size_t from = index_;
    PlanTotals reached = k > 0 ? p.steps[k - 1].totals : PlanTotals{};
    if (k < p.steps.size()) {
        index_ = p.first + k;
        const TraceRecord &r = trace_[index_];
        const Cycle start = k > 0 ? p.steps[k - 1].end : 0;
        const bool started = k == 0 && p.startsInAccess;
        if (r.kind == RecordKind::Instr) {
            // A burst the replay stops inside keeps its rest; a fresh
            // one its count (zero included).
            instr_left_ = r.count != 0
                              ? static_cast<std::uint32_t>(p.steps[k].end - to)
                              : 0;
            in_access_phase_ = false;
        } else {
            in_access_phase_ = started || to > start;
            if (to > start && !started) {
                reached.reads += r.kind == RecordKind::Read ? 1 : 0;
                reached.writes += r.kind == RecordKind::Write ? 1 : 0;
            }
        }
    } else {
        index_ = p.endIndex;
        in_access_phase_ = p.endInAccess;
        if (index_ < trace_.size() &&
            trace_[index_].kind == RecordKind::Instr)
            instr_left_ = trace_[index_].count;
    }
    const std::uint64_t reads = reached.reads - p.counted.reads;
    const std::uint64_t writes = reached.writes - p.counted.writes;
    const std::uint64_t resident =
        reached.dropsResident - p.counted.dropsResident;
    const std::uint64_t duplicate =
        reached.dropsDuplicate - p.counted.dropsDuplicate;
    // Every quiet cycle retires an instruction, a reference phase or a
    // prefetch phase.
    stats_.busy += to - p.at;
    stats_.reads += reads;
    stats_.writes += writes;
    stats_.demandRefs += reads + writes;
    stats_.prefetchesDroppedResident += resident;
    stats_.prefetchesDroppedDuplicate += duplicate;
    stats_.prefetchesExecuted += resident + duplicate;
    p.counted = reached;
    p.step = k;
    p.at = static_cast<std::uint32_t>(to);
    progress_ += index_ - from;
    if (index_ >= trace_.size())
        finish(p.start + to); // Only at the plan's end.
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
        // Only a full buffer makes the skipped reissues fail.
        prefsim_assert(!mem_.cache(id_).prefetchMshrAvailable(), "proc ",
                       id_, " replayed a prefetch stall at ", now,
                       " with a free prefetch MSHR");
        stats_.stallPrefetchQueue += n;
        return;
      case State::Running:
        break;
    }
    if (!(plan_.valid && now + n <= plan_.end && planCurrent())) {
        // No current plan covers the span: walk one from the live
        // cursor.
        walkPlan(now, now + std::max(n, kLookahead));
        prefsim_assert(now + n <= plan_.end, "proc ", id_, " was asked to ",
                       "replay ", n, " cycles at ", now, " but only ",
                       plan_.end - now, " are quiet");
    }
    prefsim_assert(now == plan_.start + plan_.at, "proc ", id_,
                   " replay at cycle ", now, " is off its plan's cursor");
    applyPlan(now + n - plan_.start);
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
