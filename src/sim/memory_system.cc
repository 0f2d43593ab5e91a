#include "sim/memory_system.hh"

#include <algorithm>
#include <bit>

#include "common/log.hh"
#include "obs/event.hh"
#include "verify/runtime.hh"

namespace prefsim
{

namespace
{

/** The bit of processor @p p in a holder mask. */
constexpr std::uint32_t
holderBit(ProcId p)
{
    return std::uint32_t{1} << p;
}

/** The lowest processor in the non-empty holder mask @p mask. */
ProcId
lowestHolder(std::uint32_t mask)
{
    return static_cast<ProcId>(std::countr_zero(mask));
}

/** True when @p c holds something a snoop of @p line_base acts on: a
 *  valid frame or victim copy, a valid parked line, or a live MSHR
 *  (one whose fill has not already been killed in flight). */
bool
holdsLine(const DataCache &c, Addr line_base)
{
    if (isValid(c.stateAnywhere(line_base)) ||
        c.findParked(line_base) != nullptr)
        return true;
    const Mshr *m = c.findMshr(line_base);
    return m != nullptr && !m->arriveInvalid;
}

} // namespace

MemorySystem::MemorySystem(unsigned num_procs, const CacheGeometry &geom,
                           const BusTiming &timing,
                           unsigned prefetch_buffer_depth,
                           std::vector<ProcStats> &proc_stats,
                           unsigned victim_entries,
                           unsigned prefetch_data_buffer_entries,
                           CoherenceProtocol protocol)
    : geom_(geom), bus_(timing, num_procs),
      pdb_entries_(prefetch_data_buffer_entries), protocol_(protocol),
      stats_(proc_stats), pending_upgrade_(num_procs, kNoAddr),
      cache_version_(num_procs, 0), prefetch_first_use_(num_procs, 0)
{
    prefsim_assert(proc_stats.size() == num_procs,
                   "proc stats size mismatch");
    prefsim_assert(num_procs <= 32, "holder masks cover 32 caches, not ",
                   num_procs);
    caches_.reserve(num_procs);
    for (ProcId p = 0; p < num_procs; ++p) {
        caches_.push_back(std::make_unique<DataCache>(
            p, geom, prefetch_buffer_depth, victim_entries));
        if (pdb_entries_ > 0)
            caches_.back()->configurePrefetchDataBuffer(pdb_entries_);
    }
    bus_.setCompletion(
        [this](const Transaction &t, Cycle now) { onBusComplete(t, now); });
}

void
MemorySystem::setSink(obs::Sink *sink)
{
    sink_ = sink;
    bus_.setSink(sink);
    for (auto &c : caches_)
        c->setSink(sink);
}

MemorySystem::SnoopSummary
MemorySystem::probeOthers(ProcId requester, Addr line_base)
{
    SnoopSummary s;
    std::uint32_t empty = 0;
    for (std::uint32_t rest = holders(line_base) & ~holderBit(requester);
         rest != 0; rest &= rest - 1) {
        const ProcId p = lowestHolder(rest);
        // The real buffer is non-snooping, but the neutralisation model
        // keeps parked copies downgradable — so the requester's state
        // choice must count them (holdsLine does), or it takes
        // Exclusive beside a parked copy that a later promotion
        // silently makes resident.
        if (holdsLine(*caches_[p], line_base)) {
            s.anyCopy = true;
            break;
        }
        empty |= holderBit(p);
    }
    pruneHolders(line_base, empty);
    return s;
}

void
MemorySystem::downgradeOthers(ProcId requester, Addr line_base, Cycle now)
{
    if (mutation_ == ProtocolMutation::SkipDowngrade)
        return; // Seeded bug (verification only): remote reads ignored.
    // Iterate a copy of the mask: the catch-ups below run while it is
    // walked, so no reference into the directory is held across them.
    std::uint32_t empty = 0;
    for (std::uint32_t rest = holders(line_base) & ~holderBit(requester);
         rest != 0; rest &= rest - 1) {
        const ProcId p = lowestHolder(rest);
        DataCache &c = *caches_[p];
        CacheFrame *f = c.findAny(line_base);
        CacheFrame *parked = c.findParked(line_base);
        Mshr *m = c.findMshr(line_base);
        if (!(f && isValid(f->state)) && parked == nullptr &&
            !(m && !m->arriveInvalid)) {
            empty |= holderBit(p); // Nothing left to snoop: prune.
            continue;
        }
        // Replay p's pending quiet work before mutating its cache: the
        // quiet hits logically precede this bus-ordered event. The
        // lookups above survive the catch-up — quiet work never
        // changes residency, parked entries, or MSHRs.
        if (catch_up_)
            catch_up_(p);
        if (f != nullptr) {
            if (isValid(f->state)) {
                if (isPrivate(f->state)) {
                    // Losing M/E shrinks the owner's quiet-write set.
                    ++cache_version_[p];
                    if (sink_)
                        sink_->emit({.kind = obs::EventKind::Downgrade,
                                     .cycle = now, .proc = p,
                                     .peer = requester, .line = line_base});
                }
                // Illinois: an M owner flushes while supplying the line;
                // the transfer itself is the requester's bus operation.
                f->state = LineState::Shared;
            }
        }
        if (parked != nullptr) {
            // A non-snooping buffer would not see this downgrade; count
            // the hazard and neutralise the entry to keep the simulated
            // machine coherent.
            parked->state = LineState::Shared;
            ++stats_[p].bufferProtectionEvents;
        }
        if (m && !m->arriveInvalid &&
            m->targetState != LineState::Shared &&
            mutation_ != ProtocolMutation::KeepStaleMshrTarget) {
            // An in-flight private fill loses exclusivity; a fill headed
            // for Modified retries its write through the upgrade path.
            m->targetState = LineState::Shared;
        }
    }
    pruneHolders(line_base, empty);
}

void
MemorySystem::invalidateOthers(ProcId requester, Addr line_base,
                               std::uint32_t word, Cycle now)
{
    if (mutation_ == ProtocolMutation::SkipInvalidate)
        return; // Seeded bug (verification only): remote copies survive.
    // Iterate a copy of the mask: the catch-ups below run while it is
    // walked, so no reference into the directory is held across them.
    std::uint32_t empty = 0;
    for (std::uint32_t rest = holders(line_base) & ~holderBit(requester);
         rest != 0; rest &= rest - 1) {
        const ProcId p = lowestHolder(rest);
        DataCache &c = *caches_[p];
        CacheFrame *f = c.findAny(line_base);
        CacheFrame *parked = c.findParked(line_base);
        Mshr *m = c.findMshr(line_base);
        if (!(f && isValid(f->state)) && parked == nullptr &&
            !(m && !m->arriveInvalid)) {
            empty |= holderBit(p); // Nothing left to snoop: prune.
            continue;
        }
        // Replay p's pending quiet work before mutating its cache (and
        // before the access-mask read below: false-sharing attribution
        // depends on the words p touched *up to* this invalidation).
        // The lookups survive the catch-up — quiet work never changes
        // residency, parked entries, or MSHRs.
        if (catch_up_)
            catch_up_(p);
        if (f != nullptr) {
            if (isValid(f->state)) {
                ++cache_version_[p]; // The copy stops hitting quietly.
                // False sharing: the invalidating write targets a word
                // this processor never touched in the residency (§4.4).
                f->invalFalseSharing = (f->accessMask >> word & 1u) == 0;
                const bool unused =
                    f->broughtByPrefetch && !f->usedSinceFill;
                if (unused)
                    c.markPrefetchLost(line_base);
                if (sink_)
                    sink_->emit({.kind = obs::EventKind::Invalidate,
                                 .cycle = now, .proc = p, .peer = requester,
                                 .line = line_base,
                                 .falseSharing = f->invalFalseSharing,
                                 .killedPrefetch = unused});
                f->state = LineState::Invalid;
            }
        }
        if (parked != nullptr) {
            // A non-snooping buffer would have served this stale line;
            // count the hazard and kill the entry (see 3.1).
            parked->state = LineState::Invalid;
            c.markPrefetchLost(line_base);
            if (sink_)
                sink_->emit({.kind = obs::EventKind::ParkedKill, .cycle = now,
                             .proc = p, .peer = requester, .line = line_base});
            ++stats_[p].bufferProtectionEvents;
        }
        if (m && !m->arriveInvalid) {
            m->arriveInvalid = true;
            // No word of the in-flight line has been accessed yet; the
            // only local interest we know of is a blocked demand access
            // to demandWord.
            m->invalFalseSharing =
                !(m->demandWaiting && m->demandWord == word);
            if (sink_)
                sink_->emit({.kind = obs::EventKind::InflightKill,
                             .cycle = now, .proc = p, .peer = requester,
                             .line = line_base,
                             .killedPrefetch = m->isPrefetch});
        }
    }
    pruneHolders(line_base, empty);
}

AccessResult
MemorySystem::demandAccess(ProcId proc, Addr addr, bool is_write, Cycle now)
{
    DataCache &c = *caches_[proc];
    const Addr base = geom_.lineBase(addr);
    const std::uint32_t word = geom_.wordInLine(addr);

    // The hit path, shared by genuine hits and victim-buffer swaps. The
    // cache-local side is a quiet hit's, including the Illinois
    // private-clean silent upgrade of a write to Exclusive.
    auto complete_hit = [&](CacheFrame &f) -> AccessResult {
        const CacheHit hit{0, c.slotOf(f), static_cast<std::uint8_t>(word),
                           is_write};
        applyQuietHits(proc, &hit, &hit + 1, now);
        if (!is_write || f.state == LineState::Modified)
            return AccessResult::Hit;
        // Write hit on Shared. Write-invalidate kills the other
        // copies with an address-only upgrade; write-update broadcasts
        // the word and every copy stays valid (no future invalidation
        // miss — and no silence either: every such write is a bus op).
        Transaction t;
        t.requester = proc;
        t.lineBase = base;
        t.word = word;
        t.demandWaiting = true;
        t.issuedAt = now;
        if (protocol_ == CoherenceProtocol::WriteInvalidate) {
            t.kind = BusOpKind::Upgrade;
            invalidateOthers(proc, base, word, now);
        } else {
            t.kind = BusOpKind::WriteUpdate;
            // Receivers keep their copies; memory is updated by the
            // broadcast, so the line stays clean-shared everywhere.
        }
        const std::uint64_t up_id = bus_.request(t, now);
        if (sink_)
            sink_->emit({.kind = obs::EventKind::UpgradeIssue, .cycle = now,
                         .proc = proc, .line = base, .busId = up_id,
                         .data = t.kind == BusOpKind::WriteUpdate});
        ++stats_[proc].upgradesIssued;
        prefsim_assert(pending_upgrade_[proc] == kNoAddr,
                       "overlapping upgrades on proc ", proc);
        pending_upgrade_[proc] = base;
        return AccessResult::UpgradeWait;
    };

    if (CacheFrame *f = c.findFrame(addr); f && isValid(f->state))
        return complete_hit(*f);

    if (Mshr *m = c.findMshr(addr)) {
        // Prefetch (or, after an in-flight invalidation, a refetch)
        // still in progress: wait for the residual latency only.
        prefsim_assert(m->isPrefetch || m->arriveInvalid || m->demandWaiting,
                       "demand access found foreign demand MSHR");
        if (!m->demandWaiting) {
            ++stats_[proc].misses.prefetchInProgress;
            m->demandWaiting = true;
            m->demandWord = word;
            m->demandAttachedAt = now;
            bus_.promoteToDemand(m->busId, proc);
            if (sink_)
                sink_->emit({.kind = obs::EventKind::LateAttach, .cycle = now,
                             .proc = proc, .line = base, .busId = m->busId});
        }
        return AccessResult::InProgressWait;
    }

    // Victim-buffer probe: a conflict evictee swaps back for a one-cycle
    // penalty instead of a bus transaction (§4.3's suggestion).
    if (c.victimEntries() > 0) {
        if (CacheFrame *f = c.swapFromVictim(addr)) {
            ++stats_[proc].victimHits;
            const AccessResult res = complete_hit(*f);
            // The swap penalty replaces the plain-hit timing; upgrades
            // already stall for far longer.
            return res == AccessResult::Hit ? AccessResult::VictimHit
                                            : res;
        }
    }

    // Prefetch-data-buffer probe: a parked prefetched line promotes
    // into the cache for a one-cycle penalty (buffer-target mode).
    if (pdb_entries_ > 0) {
        EvictedLine evicted;
        if (CacheFrame *f = c.promoteParked(addr, evicted)) {
            ++stats_[proc].prefetchBufferHits;
            if (evicted.dirty) {
                Transaction wb;
                wb.kind = BusOpKind::WriteBack;
                wb.requester = proc;
                wb.lineBase = evicted.lineBase;
                wb.issuedAt = now;
                bus_.request(wb, now);
            }
            const AccessResult res = complete_hit(*f);
            return res == AccessResult::Hit ? AccessResult::VictimHit
                                            : res;
        }
    }

    // A real CPU miss: classify it against the tag-matching frame —
    // which, with a victim buffer, may be an invalidated buffer entry.
    const bool lost = c.consumePrefetchLost(base);
    const CacheFrame *matching = c.findFrame(addr);
    if (matching == nullptr)
        matching = c.findVictim(addr);
    const bool inval_miss = classifyMiss(proc, matching, base, lost);

    const SnoopSummary snoop = probeOthers(proc, base);
    Transaction t;
    t.requester = proc;
    t.lineBase = base;
    t.word = word;
    t.demandWaiting = true;
    t.issuedAt = now;
    LineState target;
    if (is_write && protocol_ == CoherenceProtocol::WriteInvalidate) {
        t.kind = BusOpKind::ReadExclusive;
        target = LineState::Modified;
        invalidateOthers(proc, base, word, now);
    } else if (is_write) {
        // Write-update: fetch the line shared; the retried write then
        // upgrades silently (alone) or broadcasts an update (shared).
        t.kind = BusOpKind::ReadShared;
        target = snoop.anyCopy ? LineState::Shared : LineState::Modified;
        downgradeOthers(proc, base, now);
    } else {
        t.kind = BusOpKind::ReadShared;
        target = snoop.anyCopy ? LineState::Shared : LineState::Exclusive;
        downgradeOthers(proc, base, now);
    }
    Mshr &m = c.allocateMshr(base, target, /*is_prefetch=*/false);
    holders(base) |= holderBit(proc);
    m.demandWaiting = true;
    m.demandWord = word;
    m.busId = bus_.request(t, now);
    if (sink_)
        sink_->emit({.kind = obs::EventKind::Miss, .cycle = now, .proc = proc,
                     .line = base, .busId = m.busId,
                     .invalidation = inval_miss, .prefetchLost = lost,
                     .falseSharing =
                         inval_miss && matching->invalFalseSharing});
    PREFSIM_VERIFY_MEM_LINE(*this, base);
    return AccessResult::MissWait;
}

PrefetchResult
MemorySystem::prefetchAccess(ProcId proc, Addr addr, bool exclusive,
                             Cycle now)
{
    DataCache &c = *caches_[proc];
    const Addr base = geom_.lineBase(addr);

    // "If the prefetch hits in the cache, no bus operation is initiated,
    // even if the cache line is in the shared state" (§4.1).
    if (c.resident(addr)) {
        ++stats_[proc].prefetchesDroppedResident;
        return PrefetchResult::DroppedResident;
    }
    if (c.findMshr(addr)) {
        ++stats_[proc].prefetchesDroppedDuplicate;
        return PrefetchResult::DroppedDuplicate;
    }
    // A victim-buffer occupant satisfies the prefetch by swapping back.
    if (c.victimEntries() > 0 && c.swapFromVictim(addr)) {
        ++stats_[proc].prefetchesDroppedResident;
        return PrefetchResult::DroppedResident;
    }
    // Already parked in the prefetch data buffer: nothing to do.
    if (pdb_entries_ > 0 && c.findParked(addr) != nullptr) {
        ++stats_[proc].prefetchesDroppedResident;
        return PrefetchResult::DroppedResident;
    }
    if (!c.prefetchMshrAvailable())
        return PrefetchResult::BufferFull;

    const std::uint32_t word = geom_.wordInLine(addr);
    const SnoopSummary snoop = probeOthers(proc, base);
    Transaction t;
    t.requester = proc;
    t.lineBase = base;
    t.word = word;
    t.isPrefetch = true;
    t.issuedAt = now;
    LineState target;
    if (exclusive && protocol_ == CoherenceProtocol::WriteInvalidate) {
        // Exclusive prefetch: read-for-ownership, installing in the
        // Illinois private-clean state (§3.3).
        t.kind = BusOpKind::ReadExclusive;
        target = LineState::Exclusive;
        invalidateOthers(proc, base, word, now);
    } else {
        t.kind = BusOpKind::ReadShared;
        target = snoop.anyCopy ? LineState::Shared : LineState::Exclusive;
        downgradeOthers(proc, base, now);
    }
    Mshr &m = c.allocateMshr(base, target, /*is_prefetch=*/true);
    holders(base) |= holderBit(proc);
    m.busId = bus_.request(t, now);
    PREFSIM_VERIFY_MEM_LINE(*this, base);
    ++stats_[proc].prefetchMisses;
    if (sink_)
        sink_->emit({.kind = obs::EventKind::PrefetchIssue, .cycle = now,
                     .proc = proc, .line = base, .busId = m.busId,
                     .exclusive = exclusive});
    return PrefetchResult::Issued;
}

void
MemorySystem::noteFirstUse(ProcId proc, Addr line_base, Cycle now)
{
    ++prefetch_first_use_[proc]; // Prefetch proved useful.
    if (sink_)
        sink_->emit({.kind = obs::EventKind::PrefetchUseful, .cycle = now,
                     .proc = proc, .line = line_base});
}

bool
MemorySystem::classifyMiss(ProcId proc, const CacheFrame *frame,
                           Addr line_base, bool prefetched_lost)
{
    MissBreakdown &m = stats_[proc].misses;
    const bool invalidation =
        frame != nullptr && frame->tag == line_base &&
        frame->state == LineState::Invalid;
    if (invalidation) {
        if (frame->invalFalseSharing)
            ++m.falseSharing;
        if (prefetched_lost)
            ++m.invalPrefetched;
        else
            ++m.invalNotPrefetched;
    } else {
        if (prefetched_lost)
            ++m.nonSharingPrefetched;
        else
            ++m.nonSharingNotPrefetched;
    }
    return invalidation;
}

void
MemorySystem::onBusComplete(const Transaction &txn, Cycle now)
{
    // Everything but a writeback mutates the requester's cache (or its
    // pending-upgrade slot) and may wake it: replay its pending quiet
    // work first. A running requester (pure prefetch fill) executed
    // those quiet cycles strictly before this completion; the install
    // below may evict the very line they hit in.
    if (catch_up_ && txn.kind != BusOpKind::WriteBack)
        catch_up_(txn.requester);
    switch (txn.kind) {
      case BusOpKind::WriteBack:
        return; // Fire-and-forget.
      case BusOpKind::WriteUpdate: {
        // The broadcast is serialised; the write is done. All copies
        // (including ours) remain valid and clean-shared.
        prefsim_assert(pending_upgrade_[txn.requester] == txn.lineBase,
                       "update completion mismatch");
        pending_upgrade_[txn.requester] = kNoAddr;
        if (wake_)
            wake_(txn.requester, /*retry=*/false);
        return;
      }
      case BusOpKind::Upgrade: {
        DataCache &c = *caches_[txn.requester];
        prefsim_assert(pending_upgrade_[txn.requester] == txn.lineBase,
                       "upgrade completion mismatch");
        pending_upgrade_[txn.requester] = kNoAddr;
        CacheFrame *f = c.findFrame(txn.lineBase);
        if (f && f->state == LineState::Shared) {
            // The write is ordered at the upgrade's request time. If a
            // remote read slipped in since (it saw our copy and took
            // Shared), the written line was flushed and stays Shared;
            // otherwise we own it dirty.
            f->state = probeOthers(txn.requester, txn.lineBase).anyCopy
                           ? LineState::Shared
                           : LineState::Modified;
            PREFSIM_VERIFY_MEM_LINE(*this, txn.lineBase);
            if (wake_)
                wake_(txn.requester, /*retry=*/false);
            return;
        }
        // The line was invalidated while the upgrade was queued: the
        // write retries and takes the miss path (an invalidation miss).
        if (wake_)
            wake_(txn.requester, /*retry=*/true);
        return;
      }
      case BusOpKind::ReadShared:
      case BusOpKind::ReadExclusive: {
        DataCache &c = *caches_[txn.requester];
        const Mshr m = c.releaseMshr(txn.lineBase);
        // For a late prefetch (a demand access blocked on this fill
        // since demandAttachedAt) now - aux is the residual latency
        // prefetching failed to hide.
        if (sink_)
            sink_->emit({.kind = obs::EventKind::Fill, .cycle = now,
                         .proc = txn.requester, .line = txn.lineBase,
                         .busId = m.busId, .aux = m.demandAttachedAt,
                         .demand = m.demandWaiting, .prefetch = m.isPrefetch,
                         .dead = m.arriveInvalid});
        if (pdb_entries_ > 0 && m.isPrefetch && !m.demandWaiting) {
            // Buffer-target mode: the prefetched line parks beside the
            // cache instead of filling it (3.1). Dead arrivals are
            // simply wasted.
            if (m.arriveInvalid)
                c.markPrefetchLost(txn.lineBase);
            else
                c.parkPrefetchedLine(txn.lineBase, m.targetState);
            return;
        }
        // The install below, live or dead, may evict a line and changes
        // what the requester's quietHitSlot answers. A park does
        // neither: parked lines never hit quietly.
        ++cache_version_[txn.requester];
        EvictedLine evicted;
        const LineState install_state =
            m.arriveInvalid ? LineState::Invalid : m.targetState;
        CacheFrame &f = c.install(txn.lineBase, install_state,
                                  m.isPrefetch, evicted);
        if (m.arriveInvalid) {
            f.invalFalseSharing = m.invalFalseSharing;
            if (m.isPrefetch && !m.demandWaiting)
                c.markPrefetchLost(txn.lineBase);
            if (!m.isPrefetch) {
                // The blocked access consumed the fill data before the
                // invalidation logically applied; record its word for
                // the false-sharing attribution of the next miss.
                f.accessMask |= 1u << m.demandWord;
            }
        }
        if (evicted.dirty) {
            Transaction wb;
            wb.kind = BusOpKind::WriteBack;
            wb.requester = txn.requester;
            wb.lineBase = evicted.lineBase;
            wb.issuedAt = now;
            bus_.request(wb, now);
        }
        PREFSIM_VERIFY_MEM_LINE(*this, txn.lineBase);
        if (m.demandWaiting && wake_) {
            // A demand fill satisfies its blocked access even when the
            // line arrives dead: the fill's address phase ordered the
            // access before the invalidating write, so refetching is
            // unnecessary — and skipping it guarantees forward
            // progress. Everything else re-executes: a live fill turns
            // the retry into a hit; a killed prefetch fill refetches as
            // an ordinary demand miss.
            const bool satisfied = !m.isPrefetch && m.arriveInvalid;
            wake_(txn.requester, /*retry=*/!satisfied);
        }
        return;
      }
    }
    prefsim_panic("unknown bus op in completion");
}

bool
MemorySystem::checkLineInvariant(Addr addr) const
{
    const Addr base = geom_.lineBase(addr);
    unsigned valid = 0;
    unsigned exclusive = 0;
    for (const auto &cp : caches_) {
        const LineState s = cp->stateAnywhere(base);
        if (isValid(s))
            ++valid;
        if (isPrivate(s))
            ++exclusive;
    }
    if (exclusive > 1)
        return false;
    if (exclusive == 1 && valid > 1)
        return false;
    return true;
}

bool
MemorySystem::checkLineInvariantDetail(Addr addr, std::string *why) const
{
    const Addr base = geom_.lineBase(addr);
    auto violate = [&](std::string msg) {
        if (why)
            *why = std::move(msg);
        return false;
    };

    // SWMR over resident copies (cache proper + victim buffer + parked
    // prefetch-data-buffer lines: parked copies become resident by a
    // silent promotion, so they must already obey SWMR).
    unsigned valid = 0;
    unsigned modified = 0;
    unsigned privately_held = 0;
    for (const auto &cp : caches_) {
        LineState s = cp->stateAnywhere(base);
        if (!isValid(s)) {
            if (const CacheFrame *parked = cp->findParked(base))
                s = parked->state;
        }
        if (isValid(s))
            ++valid;
        if (s == LineState::Modified)
            ++modified;
        if (isPrivate(s))
            ++privately_held;
    }
    if (modified > 1)
        return violate("coherence.swmr: " + std::to_string(modified) +
                       " Modified copies of one line");
    if (privately_held > 1)
        return violate(
            "coherence.swmr: multiple private (M/E) copies of one line");
    if (privately_held == 1 && valid > 1)
        return violate("coherence.swmr: a private (M/E) copy coexists "
                       "with another valid copy");

    // In-flight fills: at most one live private-target fill, and it
    // excludes every resident copy and every other live fill; a cache
    // never holds both a valid copy and an outstanding fill.
    unsigned live_fills = 0;
    unsigned live_private_fills = 0;
    for (ProcId p = 0; p < caches_.size(); ++p) {
        const Mshr *m = caches_[p]->findMshr(base);
        if (!m)
            continue;
        if (isValid(caches_[p]->stateAnywhere(base)))
            return violate("coherence.inflight_exclusivity: cache " +
                           std::to_string(p) +
                           " holds both a valid copy and an outstanding "
                           "fill of one line");
        if (!m->arriveInvalid) {
            ++live_fills;
            if (isPrivate(m->targetState))
                ++live_private_fills;
        }
    }
    if (live_private_fills > 1)
        return violate("coherence.inflight_exclusivity: two live "
                       "in-flight fills both target a private (M/E) "
                       "state");
    if (live_private_fills == 1 && (valid > 0 || live_fills > 1))
        return violate("coherence.inflight_exclusivity: a live "
                       "in-flight private fill coexists with a valid "
                       "copy or another live fill");
    if (live_fills > 0 && privately_held > 0)
        return violate("coherence.inflight_exclusivity: a live "
                       "in-flight fill coexists with a private (M/E) "
                       "copy");

    // MSHR <-> bus-transaction bijection: every outstanding fill MSHR
    // has exactly one fill transaction on the bus and vice versa (no
    // lost or duplicated transactions); pending upgrades match their
    // address-bus operations the same way.
    for (ProcId p = 0; p < caches_.size(); ++p) {
        unsigned fills = 0;
        unsigned upgrades = 0;
        // Iterate the bus queues in place: this predicate runs per
        // protocol step under PREFSIM_VERIFY, so a snapshot copy of
        // every pending transaction was hot-path allocation.
        bus_.forEachPending([&](const Transaction &t) {
            if (t.lineBase != base || t.requester != p)
                return;
            if (transfersData(t.kind))
                ++fills;
            else if (t.kind == BusOpKind::Upgrade ||
                     t.kind == BusOpKind::WriteUpdate)
                ++upgrades;
        });
        const bool has_mshr = caches_[p]->findMshr(base) != nullptr;
        if (has_mshr && fills != 1)
            return violate("bus.mshr_bijection: cache " +
                           std::to_string(p) + " MSHR has " +
                           std::to_string(fills) +
                           " bus fill transactions (want exactly 1)");
        if (!has_mshr && fills != 0)
            return violate("bus.mshr_bijection: bus fill transaction for "
                           "cache " + std::to_string(p) +
                           " without an MSHR");
        const bool upgrade_pending = pending_upgrade_[p] == base;
        if (upgrade_pending && upgrades != 1)
            return violate("bus.upgrade_consistency: pending upgrade on "
                           "cache " + std::to_string(p) + " has " +
                           std::to_string(upgrades) +
                           " bus operations (want exactly 1)");
        if (!upgrade_pending && upgrades != 0)
            return violate("bus.upgrade_consistency: bus upgrade for "
                           "cache " + std::to_string(p) +
                           " without a pending upgrade");
    }

    // Holder-directory coverage: snoops visit only the caches in the
    // line's holder mask, so every cache a snoop must act on has its
    // bit set there.
    const std::uint32_t mask = holderMask(base);
    for (ProcId p = 0; p < caches_.size(); ++p) {
        if (holdsLine(*caches_[p], base) && (mask & holderBit(p)) == 0)
            return violate("coherence.holder_directory: cache " +
                           std::to_string(p) +
                           " holds the line but is not in its holder "
                           "mask");
    }
    return true;
}

} // namespace prefsim
