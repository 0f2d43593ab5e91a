#include "sim/simulator.hh"

#include <algorithm>
#include <bit>
#include <sstream>

#include "common/log.hh"

namespace prefsim
{

namespace
{

/// Cycles without any processor or bus progress before the simulator
/// declares a deadlock and panics with a state dump.
constexpr Cycle kDeadlockWindow = 2'000'000;

} // namespace

Simulator::Simulator(const ParallelTrace &trace, const SimConfig &config)
    : trace_(trace), config_(config),
      proc_stats_(trace.numProcs()),
      locks_(trace.numLocks),
      barriers_(static_cast<unsigned>(trace.numProcs()))
{
    if (trace.numProcs() == 0)
        prefsim_fatal("cannot simulate a trace with zero processors");
    if (trace.numProcs() > 32)
        prefsim_fatal("at most 32 processors supported (word masks)");

    mem_ = std::make_unique<MemorySystem>(
        static_cast<unsigned>(trace.numProcs()), config.geometry,
        config.timing, config.prefetchBufferDepth, proc_stats_,
        config.victimEntries, config.prefetchDataBufferEntries,
        config.protocol);

    const bool local = config.engine == SimEngine::LocalClock;

    mem_->setWake([this, local](ProcId p, bool retry) {
        procs_[p]->wake(retry, cycle_);
        if (local) {
            // The woken processor is current as of the frontier (its
            // blocked span just settled) and must tick this very cycle
            // (completions fire before the rotation, as ever).
            local_[p] = cycle_;
            dirty_mask_ |= std::uint32_t{1} << p;
        }
    });

    auto release_all = [this, local](Cycle now) {
        // The release happens mid-rotation, from the last arriver's
        // tick: waiters whose service slot this cycle preceded the
        // releaser's have already spent the cycle waiting (lazy stall
        // accounting settles that in barrierRelease).
        const auto n = static_cast<unsigned>(procs_.size());
        const unsigned start = static_cast<unsigned>(now % n);
        const unsigned releaser_pos = (ticking_ + n - start) % n;
        for (auto &pr : procs_) {
            if (pr && pr->waitingAtBarrier()) {
                const unsigned pos = (pr->id() + n - start) % n;
                const bool before = pos < releaser_pos;
                pr->barrierRelease(now, before);
                if (local) {
                    // A waiter released before its slot resumes this
                    // very cycle; one whose slot already passed spent
                    // cycle `now` waiting (settled above) and resumes
                    // at now + 1.
                    local_[pr->id()] = before ? now + 1 : now;
                    dirty_mask_ |= std::uint32_t{1} << pr->id();
                }
            }
        }
        if (!warmup_done_ && config_.warmupEpisodes > 0 &&
            barriers_.episodes() >= config_.warmupEpisodes) {
            warmup_end_ = now + 1;
            resetStatsForWarmup();
        }
    };

    // The reference loop services every processor every cycle with
    // eager per-cycle stall counting; the local-clock core skips
    // blocked processors and settles their stalls arithmetically at
    // wake. Both produce bit-identical statistics — deliberately via
    // different code paths, so the differential suite actually checks
    // the lazy arithmetic against the straightforward accounting.
    if (local) {
        local_.assign(trace.numProcs(), 0);
        eff_.assign(trace.numProcs(), 0);
        dirty_mask_ =
            trace.numProcs() >= 32
                ? ~std::uint32_t{0}
                : (std::uint32_t{1} << trace.numProcs()) - 1;
        eff_active_ = dirty_mask_;
        const auto np = static_cast<unsigned>(trace.numProcs());
        if ((np & (np - 1)) == 0)
            proc_mask_ = np - 1; // Rotation start by mask, not modulo.
        mem_->setCatchUp([this](ProcId p) { hookTouch(p); });
    }
    procs_.reserve(trace.numProcs());
    for (ProcId p = 0; p < trace.numProcs(); ++p) {
        procs_.push_back(std::make_unique<Processor>(
            p, trace.procs[p], *mem_, locks_, barriers_, proc_stats_[p],
            release_all));
        procs_.back()->setDoneCounter(&done_count_);
        procs_.back()->setEagerStalls(!local);
        if (local) {
            // A spinner on a held lock is dropped from the exact-cycle
            // rotation entirely (eff_ kNoCycle: its retries provably
            // fail); the release is the one event that must put it
            // back. The hook fires mid-tick of the releaser, so
            // hookTouch's slot-order rule decides whether each
            // spinner's cycle_-cycle retry precedes or follows the
            // release — and the rotation's dirty fold services the
            // followers this very cycle, first in slot order winning
            // the acquisition race exactly as the cycle loop resolves
            // it.
            procs_.back()->setLockReleaseHook([this](SyncId lock) {
                const auto np = static_cast<ProcId>(procs_.size());
                for (ProcId q = 0; q < np; ++q) {
                    if (q != ticking_ && procs_[q]->spinning() &&
                        procs_[q]->spinLockId() == lock)
                        hookTouch(q);
                }
            });
        }
        if (procs_.back()->done())
            ++done_count_; // Empty trace: Done at construction.
    }

    if (config.obs) {
        // beginSession returns null when tracing is disabled or the
        // session budget is spent; metrics attach either way.
        const auto np = static_cast<unsigned>(trace.numProcs());
        const std::string label =
            config.traceLabel.empty() ? "run" : config.traceLabel;
        sink_ = std::make_unique<obs::Sink>(
            config.obs->metrics, config.obs->tracer.beginSession(np, label),
            config.profile
                ? std::make_unique<obs::AttributionProfiler>(np, label)
                : nullptr,
            config.critpath
                ? std::make_unique<obs::CritPathRecorder>(np, label)
                : nullptr);
        mem_->setSink(sink_.get());
        for (auto &pr : procs_)
            pr->setSink(sink_.get());
        if (config.sampleInterval > 0) {
            sampler_ = std::make_unique<obs::IntervalSampler>(
                config.sampleInterval, np, label);
            next_sample_ = sampler_->nextSampleCycle();
        }
    }
}

void
Simulator::resetStatsForWarmup()
{
    warmup_done_ = true;
    for (auto &ps : proc_stats_)
        ps = ProcStats{};
    mem_->resetBusStats();
    // Rebase the differencing so the reset does not show up as a huge
    // negative delta. The reset runs at the same mid-cycle point in
    // both engines (a barrier release is always cycle-exact), so the
    // baseline frame is identical too. Counters the reset does not
    // zero (prefetch first uses) are carried at their running values.
    if (sampler_)
        sampler_->rebase(captureSampleFrame(warmup_end_), warmup_end_);
    // The profile covers the measured window only. The reset runs with
    // every processor caught up to the barrier release in both engines,
    // so the discarded warmup attribution is identical too.
    if (sink_)
        sink_->emit({.kind = obs::EventKind::Warmup, .cycle = warmup_end_});
}

obs::SampleFrame
Simulator::captureSampleFrame(Cycle at) const
{
    obs::SampleFrame f;
    f.cycle = at;
    const SplitBus &bus = mem_->bus();
    f.busBusy = bus.stats().busyCycles;
    f.busQueueDepth = bus.queuedOps();
    f.busActive = bus.activeTransfers();
    f.mshrs = mem_->outstandingMshrs();
    f.procs.reserve(procs_.size());
    for (ProcId p = 0; p < procs_.size(); ++p) {
        const ProcStats s = procs_[p]->sampledStats(at);
        const MissBreakdown &m = s.misses;
        f.missNonSharing += m.nonSharing();
        f.missInvalidation += m.invalidation();
        f.missFalseSharing += m.falseSharing;
        f.pfIssued += s.prefetchMisses;
        f.pfDropped += s.prefetchesDroppedResident +
                       s.prefetchesDroppedDuplicate;
        f.pfUseful += mem_->prefetchFirstUses(p);
        f.pfLate += m.prefetchInProgress;
        f.pfUseless += m.nonSharingPrefetched;
        f.pfCancelled += m.invalPrefetched;
        obs::SampleFrame::Proc pc;
        pc.busy = s.busy;
        pc.stallDemand = s.stallDemand;
        pc.stallUpgrade = s.stallUpgrade;
        pc.stallPrefetchQueue = s.stallPrefetchQueue;
        pc.spinLock = s.spinLock;
        pc.waitBarrier = s.waitBarrier;
        f.procs.push_back(pc);
    }
    return f;
}

std::uint64_t
Simulator::progressSum() const
{
    std::uint64_t sum =
        mem_->bus().stats().grantsDemand + mem_->bus().stats().grantsPrefetch;
    for (const auto &p : procs_)
        sum += p->progress();
    return sum;
}

void
Simulator::runExactCycle()
{
    mem_->tick(cycle_);
    // Rotate the processor service order so no processor systematically
    // wins same-cycle races for locks. Every live processor is ticked;
    // blocked ones count their stall cycle eagerly.
    const auto n = static_cast<unsigned>(procs_.size());
    unsigned idx = static_cast<unsigned>(cycle_ % n);
    for (unsigned i = 0; i < n; ++i) {
        Processor &p = *procs_[idx];
        if (!p.done()) {
            ticking_ = idx;
            p.tick(cycle_);
        }
        if (++idx == n)
            idx = 0;
    }
    ticking_ = kNoProc;
    closeExactCycle();
}

void
Simulator::closeExactCycle()
{
    ++cycle_;
    if (cycle_ - last_progress_check_ >= kDeadlockWindow) {
        const std::uint64_t p = progressSum();
        if (p == last_progress_value_) {
            std::ostringstream os;
            os << "no progress for " << kDeadlockWindow << " cycles";
            reportDeadlock(os.str());
        }
        last_progress_value_ = p;
        last_progress_check_ = cycle_;
    }
}

bool
Simulator::stepCycle()
{
    prefsim_assert(local_.empty(),
                   "stepCycle() requires SimEngine::CycleLoop");
    if (allDone())
        return false;
    // A sample at cycle X captures state at the start of X, before the
    // bus tick and the processor rotation.
    maybeSample();
    runExactCycle();
    return !allDone();
}

void
Simulator::refreshEff(ProcId p)
{
    const std::uint32_t bit = std::uint32_t{1} << p;
    dirty_mask_ &= ~bit;
    const Cycle inert = procs_[p]->inertCycles(local_[p]);
    if (inert == kNoCycle) {
        eff_[p] = kNoCycle;
        eff_active_ &= ~bit;
    } else {
        eff_[p] = local_[p] + inert;
        eff_active_ |= bit;
    }
}

void
Simulator::catchUp(ProcId p, Cycle to)
{
    if (to <= local_[p])
        return;
    // Blocked and done processors settle their stall spans lazily at
    // wake (fastForward returns at once); spin/stall retries bulk-add
    // and Running quiet work replays its plan.
    procs_[p]->fastForward(to - local_[p], local_[p]);
    local_[p] = to;
    // An advanced replay may have retired the trace's final record
    // (Done) or consumed part of the quiet plan; either way the cached
    // boundary is stale. (Skipping this lets a retirement keep a stale
    // finite eff_ and pin the frontier minimum below where it is.)
    dirty_mask_ |= std::uint32_t{1} << p;
}

void
Simulator::catchUpAll(Cycle to)
{
    const auto n = static_cast<ProcId>(procs_.size());
    for (ProcId p = 0; p < n; ++p)
        catchUp(p, to);
}

void
Simulator::hookTouch(ProcId p)
{
    Cycle to = cycle_;
    if (ticking_ != kNoProc && ticking_ != p) {
        // Mid-rotation mutation from another processor's tick. When
        // p's service slot this cycle preceded the mutator's, p's
        // cycle-`cycle_` quiet work came first in cycle-loop order and
        // must be replayed against the pre-mutation cache state — and
        // the catch-up through cycle_ is legal precisely because p was
        // skipped at its slot as provably quiet past the frontier.
        // When p's slot is still to come, its cycle-`cycle_` work
        // follows the mutation, so the replay stops at the frontier.
        const auto n = static_cast<unsigned>(procs_.size());
        unsigned pos_p = static_cast<unsigned>(p) + n - rot_start_;
        if (pos_p >= n)
            pos_p -= n;
        unsigned pos_t = ticking_ + n - rot_start_;
        if (pos_t >= n)
            pos_t -= n;
        if (pos_p < pos_t)
            to = cycle_ + 1;
    }
    catchUp(p, to);
    // Even a zero-length catch-up expires the cached quiet promise:
    // the mutation may turn a promised quiet hit into a miss.
    dirty_mask_ |= std::uint32_t{1} << p;
}

bool
Simulator::serviceSlot(unsigned idx)
{
    const std::uint32_t bit = std::uint32_t{1} << idx;
    // A boundary invalidated since its last refresh (wakes, hook
    // touches, an earlier slot's tick) must be recomputed before the
    // due test: the mutation may have created business at this very
    // cycle.
    if (dirty_mask_ & bit)
        refreshEff(idx);
    // Woken or touched processors and due local-clock boundaries land
    // exactly on cycle_.
    if (eff_[idx] > cycle_)
        return false;
    catchUp(idx, cycle_);
    Processor &p = *procs_[idx];
    if (p.done())
        return false;
    ticking_ = idx;
    p.tick(cycle_);
    local_[idx] = cycle_ + 1;
    dirty_mask_ |= bit;
    return true;
}

void
Simulator::runExactCycleLocal(bool bus_may_act)
{
    if (bus_may_act)
        mem_->tick(cycle_);
    const auto n = static_cast<unsigned>(procs_.size());
    const unsigned idx =
        proc_mask_ != 0 ? static_cast<unsigned>(cycle_) & proc_mask_
                        : static_cast<unsigned>(cycle_ % n);
    rot_start_ = idx; // hookTouch derives slot positions from this.
    // Visit set: every processor whose boundary may be due this cycle.
    // A clean boundary answers the due test in the branchless build
    // below; a dirty one is stale (the bus tick above may have woken
    // or touched its owner), so dirty processors are visited
    // unconditionally and recomputed at their slot. The rotation then
    // services only the visited slots — on the contended fig2 run
    // fewer than two per exact cycle — instead of walking all n, which
    // is the engine's edge over runExactCycle: a lagging processor
    // past the frontier is skipped without even loading its state.
    std::uint32_t visit = dirty_mask_;
    for (std::uint32_t m = eff_active_ & ~dirty_mask_; m != 0; m &= m - 1) {
        const auto p = static_cast<unsigned>(std::countr_zero(m));
        if (eff_[p] <= cycle_)
            visit |= std::uint32_t{1} << p;
    }
    // Slots idx..n-1, then 0..idx-1: ascending bit order within each
    // half is exactly rotation order. A serviced tick can invalidate
    // boundaries ahead of it in the rotation (snoop hook touches, a
    // barrier release); folding dirty_mask_ into the not-yet-serviced
    // remainder after every tick reruns those due tests against the
    // refreshed boundary, as the cycle loop's in-order walk would.
    const std::uint32_t lo_mask = (std::uint32_t{1} << idx) - 1;
    std::uint32_t hi = visit & ~lo_mask;
    std::uint32_t lo = visit & lo_mask;
    while (hi != 0) {
        const auto p = static_cast<unsigned>(std::countr_zero(hi));
        hi &= hi - 1;
        if (serviceSlot(p)) {
            hi |= dirty_mask_ & ~lo_mask & ~((std::uint32_t{2} << p) - 1);
            lo |= dirty_mask_ & lo_mask;
        }
    }
    while (lo != 0) {
        const auto p = static_cast<unsigned>(std::countr_zero(lo));
        lo &= lo - 1;
        if (serviceSlot(p))
            lo |= dirty_mask_ & lo_mask & ~((std::uint32_t{2} << p) - 1);
    }
    ticking_ = kNoProc;
    closeExactCycle();
}

bool
Simulator::stepLocal()
{
    prefsim_assert(!local_.empty(),
                   "stepLocal() requires SimEngine::LocalClock");
    if (allDone())
        return false;

    // The previous step may have left cycle_ exactly on a sample
    // boundary. The frame must capture every processor's state as of
    // the frontier, so lagging clocks settle first; a catch-up that
    // retires the last trace ends the run un-sampled, mirroring the
    // oracle (finish() emits the final frame).
    if (cycle_ == next_sample_) {
        catchUpAll(cycle_);
        if (allDone())
            return false;
        maybeSample();
    }

    // Advance the frontier to the next cycle that must execute
    // exactly, chaining consecutive inert windows: the earliest bus
    // *completion* (fills and wakes touch processors, so it bounds the
    // window) or the first cycle some processor could have a side
    // effect (its local-clock boundary, from inertCycles()). Everything
    // in between is provably inert (docs/simcore.md). Processors are
    // NOT fast-forwarded as the frontier moves — their local clocks lag
    // until a completion, a snoop or a sample boundary forces the quiet
    // replay (fastForward, via catchUp).
    const auto n = static_cast<ProcId>(procs_.size());
    bool bus_due = true;
    for (;;) {
        const Cycle bus_comp = mem_->nextCompletionCycle(cycle_);
        if (bus_comp == cycle_)
            break; // A completion is due this very cycle.
        const Cycle bus_grant = mem_->nextGrantCycle(cycle_);
        if (bus_grant == cycle_) {
            // Grant-only cycle: tick the bus (no completion can fire —
            // the earliest is bus_comp) and re-derive the bounds.
            // Grants touch only bus-internal queues and statistics —
            // nothing a processor can observe before the completion
            // they schedule — so lagging clocks are safe.
            mem_->tick(cycle_);
            continue;
        }
        // Lazily refresh the invalidated side-effect boundaries, then
        // take the frontier bound E = min over processors in one tight
        // pass (eff_ is kNoCycle for every processor that cannot
        // constrain the window: blocked, done, or retrying in vain).
        for (std::uint32_t m = dirty_mask_; m != 0; m &= m - 1)
            refreshEff(static_cast<ProcId>(std::countr_zero(m)));
        Cycle e = kNoCycle;
        for (ProcId p = 0; p < n; ++p)
            e = std::min(e, eff_[p]);
        prefsim_assert(e >= cycle_,
                       "local-clock boundary regressed past the frontier");
        if (e == cycle_) {
            // A boundary is due at the frontier. Catch the due
            // processors up; a walk that ended at the trace's final
            // record retires here with no exact cycle — the frontier
            // is then the finish cycle, exactly as in the oracle —
            // while a genuine side effect demands exactness.
            bool exact = false;
            for (ProcId p = 0; p < n; ++p) {
                if (eff_[p] != cycle_)
                    continue;
                catchUp(p, cycle_);
                if (!procs_[p]->done())
                    exact = true;
            }
            if (allDone())
                return false;
            if (!exact)
                continue; // Pure retirements; re-derive the bounds.
            // Neither a completion nor a grant is due this cycle (both
            // were ruled out above): the bus provably does nothing.
            bus_due = false;
            break;
        }
        Cycle target = std::min(bus_comp, e);
        if (target == kNoCycle && bus_grant == kNoCycle) {
            // Every processor is blocked and the bus is idle: nothing
            // can ever wake anyone. The cycle loop would spin to the
            // watchdog window and conclude the same.
            reportDeadlock("no progress possible: every processor is "
                           "blocked and the bus is idle");
        }
        // A sample boundary bounds the frontier jump too: the frame
        // must be captured at its exact cycle, never skipped. Clamped
        // after the deadlock check above — a boundary is not progress,
        // and letting it rescue a dead machine would sample the same
        // frame forever.
        if (next_sample_ < target)
            target = next_sample_;
        // Fold grant cycles inside the window: each grant schedules a
        // completion (no earlier than grant + occupancy), which may
        // tighten the window end. nextGrantCycle() advances strictly
        // after a tick performs the grants, so this terminates; it
        // also rescues the target == kNoCycle case (all processors
        // blocked, grants pending): the first folded grant schedules
        // the completion that bounds the window.
        Cycle bus_next = bus_comp;
        for (Cycle g = bus_grant; g < target;
             g = mem_->nextGrantCycle(g)) {
            mem_->tick(g);
            bus_next = std::min(bus_next, mem_->nextCompletionCycle(g));
            target = std::min(target, bus_next);
        }
        cycle_ = target;
        if (cycle_ == next_sample_) {
            catchUpAll(cycle_);
            if (allDone())
                return false;
            maybeSample();
        }
        // Frontier landed on the completion bound: a completion is due
        // this very cycle, so skip the re-derivation pass (due
        // boundaries that coincide with it are picked up by the
        // rotation's due test, and catch-up dirt refreshes at its
        // slot). A boundary- or sample-bound jump re-enters the loop.
        if (cycle_ == bus_next)
            break;
    }
    runExactCycleLocal(bus_due);
    return !allDone();
}

SimStats
Simulator::run()
{
    if (config_.engine == SimEngine::CycleLoop) {
        while (stepCycle()) {
        }
    } else {
        while (stepLocal()) {
        }
    }
    const Cycle done_at = cycle_;
    // Close the time series before the drain below mutates the bus
    // statistics: the final partial row covers the tail of the run
    // proper. Every lazy stall has settled (all processors are Done),
    // so the frame needs no special casing.
    if (sampler_) {
        sampler_->finish(captureSampleFrame(done_at));
        config_.obs->timeseries.commit(sampler_->take());
        sampler_.reset();
        next_sample_ = kNoCycle;
    }
    // Drain in-flight writebacks so bus accounting is complete. These
    // cycles do not extend the measured execution time.
    Cycle drain = cycle_;
    while (mem_->busBusy()) {
        mem_->tick(drain);
        ++drain;
        if (drain - done_at > 10 * config_.timing.totalLatency + 10000)
            prefsim_panic("bus failed to drain after completion");
    }
    if (!locks_.allFree())
        prefsim_panic("locks still held at end of simulation");
    if (config_.warmupEpisodes > 0 && !warmup_done_) {
        prefsim_warn("trace ended before the configured warmup (",
                     config_.warmupEpisodes,
                     " barrier episodes); statistics cover the full run");
    }

    SimStats stats;
    // The measured window starts when warmup ended.
    stats.cycles = done_at - warmup_end_;
    stats.procs = proc_stats_;
    for (auto &ps : stats.procs) {
        ps.finishedAt =
            ps.finishedAt > warmup_end_ ? ps.finishedAt - warmup_end_ : 0;
    }
    stats.bus = mem_->bus().stats();
    // Commit the views after the drain above: the drained writebacks'
    // grants attributed their occupancy, so the per-line bus cycles sum
    // exactly to the final BusStats::busyCycles.
    if (sink_) {
        sink_->commitMetrics();
        if (obs::AttributionProfiler *p = sink_->profile())
            config_.obs->profile.commit(p->take(warmup_end_));
        // The critical-path walk wants absolute retirement cycles (the
        // recorder clamps everything to the measured window itself, so
        // pre-warmup pieces simply clip away).
        if (obs::CritPathRecorder *c = sink_->critpath()) {
            std::vector<Cycle> finished(proc_stats_.size());
            for (std::size_t p = 0; p < proc_stats_.size(); ++p)
                finished[p] = proc_stats_[p].finishedAt;
            config_.obs->critpath.commit(
                c->take(warmup_end_, done_at, finished));
        }
        if (std::unique_ptr<obs::TraceBuffer> t = sink_->takeTrace()) {
            // Ring-buffer eviction is otherwise silent; the counter
            // makes truncated traces detectable in the telemetry.
            config_.obs->metrics.counter("trace.dropped_events")
                .inc(t->dropped());
            config_.obs->tracer.commit(std::move(t));
        }
    }
    return stats;
}

void
Simulator::reportDeadlock(const std::string &headline) const
{
    std::ostringstream os;
    os << headline << " at cycle " << cycle_ << "\n";
    for (ProcId p = 0; p < procs_.size(); ++p) {
        os << "  proc " << p << ": " << procs_[p]->describeState()
           << " progress=" << procs_[p]->progress() << "\n";
    }
    os << "  barrier arrivals: " << barriers_.arrivedCount()
       << ", episodes: " << barriers_.episodes();
    prefsim_panic(os.str());
}

SimStats
simulate(const ParallelTrace &trace, const SimConfig &config)
{
    Simulator sim(trace, config);
    return sim.run();
}

} // namespace prefsim
