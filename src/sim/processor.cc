#include "sim/processor.hh"

#include <algorithm>

#include "common/log.hh"
#include "obs/event.hh"

namespace prefsim
{

Processor::Processor(ProcId id, const Trace &trace, MemorySystem &mem,
                     LockTable &locks, BarrierManager &barriers,
                     ProcStats &stats, ReleaseAllFn release_all,
                     const PlacementList *placements)
    : id_(id), trace_(trace),
      places_(placements ? placements->data() : nullptr),
      num_places_(placements ? placements->size() : 0), mem_(mem),
      locks_(locks), barriers_(barriers), stats_(stats),
      release_all_(std::move(release_all))
{
    const std::vector<TraceRecord> &records = trace_.records();
    for (std::size_t i = 0; i < num_places_; ++i) {
        const Placement &pl = places_[i];
        const bool in_burst = pl.record < records.size() &&
                              records[pl.record].kind == RecordKind::Instr &&
                              pl.offset < records[pl.record].count;
        prefsim_assert(pl.record <= records.size() &&
                           (pl.offset == 0 || in_burst),
                       "proc ", id_, " placement ", i, " (record ",
                       pl.record, ", offset ", pl.offset,
                       ") does not fit its trace");
        prefsim_assert(i == 0 || places_[i - 1].record < pl.record ||
                           (places_[i - 1].record == pl.record &&
                            places_[i - 1].offset <= pl.offset),
                       "proc ", id_, " placements are not sorted at ", i);
    }
    for (std::size_t i = records.size(); i-- > 0;) {
        const TraceRecord &r = records[i];
        if (r.kind != RecordKind::Instr || r.count != 0) {
            final_ = i;
            break;
        }
    }
    if (num_places_ != 0)
        next_record_ = places_[0].record;
    if (!seek()) {
        state_ = State::Done;
        stats_.finishedAt = 0;
    }
}

namespace
{

/// Bounds of one plan: its statistics totals are 16-bit and its cycle
/// offsets 32-bit. A walk that reaches either stops there, and the
/// next tick executes exactly.
constexpr std::size_t kMaxPlanSteps = 0xffff;
constexpr Cycle kMaxPlanCycles = 0xffff'ffff;

} // namespace

bool
Processor::seek()
{
    const std::vector<TraceRecord> &records = trace_.records();
    for (;;) {
        // A placement runs before the rest of the record it lands in.
        on_placement_ =
            index_ == next_record_ && emitted_ == places_[next_].offset;
        if (on_placement_) {
            cur_ = places_[next_].toRecord();
            return true;
        }
        if (index_ == records.size())
            return false;
        cur_ = records[index_];
        if (cur_.kind != RecordKind::Instr)
            return true;
        // A burst runs to the next placement inside it, or to its end.
        instr_left_ =
            (index_ == next_record_ ? places_[next_].offset : cur_.count) -
            emitted_;
        if (instr_left_ != 0)
            return true;
        ++index_; // An empty burst takes no cycle.
        emitted_ = 0;
    }
}

void
Processor::advance(Cycle now)
{
    ++progress_;
    in_access_phase_ = false;
    if (on_placement_) {
        ++next_;
        next_record_ = next_ < num_places_ ? places_[next_].record : kNoIndex;
    } else if (cur_.kind == RecordKind::Instr && index_ == next_record_) {
        emitted_ = places_[next_].offset; // The burst split here.
    } else {
        ++index_;
        emitted_ = 0;
    }
    if (seek())
        return;
    state_ = State::Done;
    stats_.finishedAt = now + 1; // This cycle was the last retired.
    if (done_counter_)
        ++*done_counter_;
}

bool
Processor::executeAccess(Cycle now)
{
    const bool is_write = cur_.kind == RecordKind::Write;
    const AccessResult res =
        mem_.demandAccess(id_, cur_.addr, is_write, now);
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
    beginStall(State::WaitMemory, bucket, now, why);
    return false;
}

void
Processor::beginStall(State s, Cycle *bucket, Cycle now, obs::Stall why)
{
    state_ = s;
    stall_bucket_ = bucket;
    ++*bucket;
    if (sink_)
        sink_->emit({.kind = obs::EventKind::StallBegin, .cycle = now,
                     .proc = id_, .stall = why});
}

void
Processor::tick(Cycle now)
{
    switch (state_) {
      case State::Done:
        return;
      case State::WaitMemory:
      case State::WaitBarrier:
        // Only the cycle loop ticks a blocked processor; the local-clock
        // core bulk-adds the same cycles in fastForward().
        ++*stall_bucket_;
        return;
      case State::SpinLock: {
        const TraceRecord r = cur_;
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
        const TraceRecord r = cur_;
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
    const TraceRecord r = cur_;
    switch (r.kind) {
      case RecordKind::Instr:
        ++stats_.busy;
        if (--instr_left_ == 0) // seek() skips empty bursts.
            advance(now);
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
            beginStall(State::StallPrefetch, &stats_.stallPrefetchQueue, now,
                       obs::Stall::PrefetchBuffer);
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
            beginStall(State::SpinLock, &stats_.spinLock, now,
                       obs::Stall::Lock);
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
            // The arriving cycle counts as busy; the wait starts next.
            state_ = State::WaitBarrier;
            stall_bucket_ = &stats_.waitBarrier;
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
    ++progress_;
    if (!retry) {
        // The blocked access was satisfied by the completing operation.
        advance(now);
    }
    // Otherwise stay on the current record in its access phase; the next
    // tick re-executes the access (same cycle: the bus ticks first).
}

void
Processor::barrierRelease(Cycle now)
{
    prefsim_assert(state_ == State::WaitBarrier,
                   "barrierRelease() on proc ", id_, " in state ",
                   describeState());
    state_ = State::Running;
    if (sink_)
        sink_->emit({.kind = obs::EventKind::BarrierRelease, .cycle = now,
                     .proc = id_});
    ++progress_;
    advance(now);
}

void
Processor::walkPlan(Cycle now) const
{
    // Walk the stream from the live cursor, counting consecutive cycles
    // whose tick() provably has no cross-processor effect. Quiet-hit
    // predictions stay valid for the whole window: nothing another
    // processor does during it can evict or invalidate a line (those
    // require a bus operation or an exact cycle, and bump the cache
    // version), and this processor's own quiet hits never change line
    // residency either.
    QuietPlan &p = plan_;
    p.valid = true;
    p.startsInAccess = in_access_phase_;
    p.version = mem_.cacheVersion(id_);
    p.start = now;
    p.first = index_;
    p.firstEmitted = emitted_;
    p.placeStep = kNoIndex;
    p.steps.clear();
    p.hits.clear();
    p.at = 0;
    p.step = 0;
    p.hit = 0;
    p.counted = PlanTotals{};
    const CacheGeometry &geom = mem_.geometry();
    const std::vector<TraceRecord> &records = trace_.records();
    // The walk's one test per record: it stops at the next placement's
    // record or at the final record, whichever comes first.
    const std::size_t stop = std::min(next_record_, final_);
    Cycle n = 0;
    std::size_t idx = index_;
    std::uint32_t emitted = emitted_;
    bool access_phase = in_access_phase_;
    PlanTotals totals;
    const auto push = [&] {
        p.steps.push_back({static_cast<std::uint32_t>(n), totals});
    };
    // A reference step takes at most two cycles, so every offset
    // stays within kMaxPlanCycles.
    while (n + 1 < kMaxPlanCycles && p.steps.size() < kMaxPlanSteps) {
        if (idx >= stop) {
            if (idx >= final_) {
                // The final record executes in exact ticks, as a sync
                // record does, so a replay never retires the stream.
                break;
            }
            // The next placement: the Instr cycles before it in its
            // record, then its instruction cycle, which ends the walk.
            const std::uint32_t offset = places_[next_].offset;
            if (emitted < offset) {
                const Cycle burst =
                    idx == index_ ? instr_left_ : offset - emitted;
                if (burst > kMaxPlanCycles - n)
                    break;
                n += burst;
                push();
                emitted = offset;
                continue;
            }
            if (!access_phase) {
                ++n;
                access_phase = true;
                p.placeStep = p.steps.size();
                push();
            }
            break;
        }
        const TraceRecord &r = records[idx];
        if (r.kind == RecordKind::Instr) {
            const Cycle burst = idx == index_ ? instr_left_ : r.count;
            if (burst > kMaxPlanCycles - n)
                break; // A later plan starts at the burst.
            n += burst;
            push();
            ++idx;
            emitted = 0;
            access_phase = false;
            continue;
        }
        const bool read = r.kind == RecordKind::Read;
        const bool write = r.kind == RecordKind::Write;
        if (!read && !write && r.kind != RecordKind::Prefetch &&
            r.kind != RecordKind::PrefetchExcl) {
            // Sync records always execute cycle-exactly.
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
        // A prefetch access always executes cycle-exactly, even one
        // that drops (prefetchAccess counts the drop). A reference is
        // quiet when it would hit quietly.
        const std::uint32_t slot =
            read || write ? mem_.quietHitSlot(id_, r.addr, write)
                          : DataCache::kNoFrame;
        if (slot == DataCache::kNoFrame) {
            // Would stall, swap, promote, issue a bus op, wait for an
            // MSHR or execute a prefetch: cycle-exact territory. An
            // instruction cycle taken here is the plan's last step.
            if (took_instr)
                push();
            break;
        }
        p.hits.push_back({static_cast<std::uint32_t>(n), slot,
                          static_cast<std::uint8_t>(geom.wordInLine(r.addr)),
                          write});
        ++n;
        push();
        ++idx;
        emitted = 0;
        access_phase = false;
    }
    p.end = p.start + n;
    p.endIndex = idx;
    p.endEmitted = emitted;
    p.endInAccess = access_phase;
}

void
Processor::applyPlan(Cycle to)
{
    QuietPlan &p = plan_;
    // Where the replay stops: the first step and hit it does not wholly
    // replay (steps are consecutive records from the plan's first),
    // scanned forward from the replay cursor. A replay to the plan's
    // end, the common case, needs no scan.
    std::size_t k = p.steps.size();
    std::size_t hit_end = p.hits.size();
    if (p.start + to != p.end) {
        // The last step ends at the plan's end, past to.
        k = p.step;
        while (p.steps[k].end <= to)
            ++k;
        hit_end = p.hit;
        while (hit_end < p.hits.size() && p.hits[hit_end].at < to)
            ++hit_end;
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
        if (k == p.placeStep) {
            index_ = p.endIndex;
            emitted_ = p.endEmitted;
        } else {
            index_ = p.first + k;
            emitted_ = k == 0 ? p.firstEmitted : 0;
        }
        seek();
        const Cycle start = k > 0 ? p.steps[k - 1].end : 0;
        const bool started = k == 0 && p.startsInAccess;
        if (cur_.kind == RecordKind::Instr) {
            // A burst the replay stops inside keeps its rest.
            instr_left_ = static_cast<std::uint32_t>(p.steps[k].end - to);
            in_access_phase_ = false;
        } else {
            in_access_phase_ = started || to > start;
            if (to > start && !started) {
                reached.reads += cur_.kind == RecordKind::Read ? 1 : 0;
                reached.writes += cur_.kind == RecordKind::Write ? 1 : 0;
            }
        }
    } else {
        index_ = p.endIndex;
        emitted_ = p.endEmitted;
        seek();
        in_access_phase_ = p.endInAccess;
    }
    const std::uint64_t reads = reached.reads - p.counted.reads;
    const std::uint64_t writes = reached.writes - p.counted.writes;
    // Every quiet cycle retires an instruction, a reference phase or a
    // prefetch's instruction cycle.
    stats_.busy += to - p.at;
    stats_.reads += reads;
    stats_.writes += writes;
    stats_.demandRefs += reads + writes;
    p.counted = reached;
    p.step = k;
    p.at = static_cast<std::uint32_t>(to);
    progress_ += index_ - from;
}

void
Processor::fastForward(Cycle n, Cycle now)
{
    switch (state_) {
      case State::Done:
        return;
      case State::StallPrefetch:
        // Only a full buffer makes the skipped reissues fail.
        prefsim_assert(!mem_.cache(id_).prefetchMshrAvailable(), "proc ",
                       id_, " replayed a prefetch stall at ", now,
                       " with a free prefetch MSHR");
        [[fallthrough]];
      case State::WaitMemory:
      case State::WaitBarrier:
      case State::SpinLock:
        *stall_bucket_ += n;
        return;
      case State::Running:
        break;
    }
    prefsim_assert(plan_.valid && now + n <= plan_.end && planCurrent(),
                   "proc ", id_, " was asked to replay ", n, " cycles at ",
                   now, " past the end of its quiet plan");
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
