#include "mem/data_cache.hh"

#include <algorithm>

#include "common/log.hh"
#include "obs/event.hh"

namespace prefsim
{

std::string
lineStateName(LineState s)
{
    switch (s) {
      case LineState::Invalid:
        return "I";
      case LineState::Shared:
        return "S";
      case LineState::Exclusive:
        return "E";
      case LineState::Modified:
        return "M";
    }
    prefsim_panic("unknown line state");
}

DataCache::DataCache(ProcId owner, const CacheGeometry &geom,
                     unsigned max_prefetch_mshrs, unsigned victim_entries)
    : owner_(owner), geom_(geom), max_prefetch_(max_prefetch_mshrs),
      victim_entries_(victim_entries), frames_(geom.numFrames()),
      last_use_(geom.numFrames(), 0), victim_(victim_entries),
      victim_use_(victim_entries, 0)
{}

CacheFrame *
DataCache::findVictim(Addr addr)
{
    const Addr tag = geom_.lineBase(addr);
    for (auto &v : victim_) {
        if (v.tag == tag)
            return &v;
    }
    return nullptr;
}

CacheFrame *
DataCache::findAny(Addr addr)
{
    if (CacheFrame *f = findFrame(addr))
        return f;
    return findVictim(addr);
}

LineState
DataCache::stateOf(Addr addr) const
{
    const CacheFrame *f = findFrame(addr);
    return f ? f->state : LineState::Invalid;
}

LineState
DataCache::stateAnywhere(Addr addr) const
{
    if (const CacheFrame *f = findFrame(addr))
        return f->state;
    const CacheFrame *v =
        const_cast<DataCache *>(this)->findVictim(addr);
    return v ? v->state : LineState::Invalid;
}

void
DataCache::touch(Addr addr)
{
    if (const CacheFrame *f = findFrame(addr))
        last_use_[slotOf(*f)] = ++use_clock_;
}

Mshr *
DataCache::findMshr(Addr addr)
{
    const Addr base = geom_.lineBase(addr);
    for (auto &m : mshrs_) {
        if (m.lineBase == base)
            return &m;
    }
    return nullptr;
}

const Mshr *
DataCache::findMshr(Addr addr) const
{
    return const_cast<DataCache *>(this)->findMshr(addr);
}

bool
DataCache::prefetchMshrAvailable() const
{
    return prefetch_mshrs_ < max_prefetch_;
}

Mshr &
DataCache::allocateMshr(Addr line_base, LineState target, bool is_prefetch)
{
    prefsim_assert(findMshr(line_base) == nullptr,
                   "duplicate MSHR for line ", line_base);
    if (is_prefetch) {
        prefsim_assert(prefetchMshrAvailable(),
                       "prefetch MSHR overflow on proc ", owner_);
    }
    Mshr m;
    m.lineBase = line_base;
    m.targetState = target;
    m.isPrefetch = is_prefetch;
    prefetch_mshrs_ += is_prefetch ? 1 : 0;
    mshrs_.push_back(m);
    return mshrs_.back();
}

Mshr
DataCache::releaseMshr(Addr line_base)
{
    for (auto it = mshrs_.begin(); it != mshrs_.end(); ++it) {
        if (it->lineBase == line_base) {
            Mshr m = *it;
            mshrs_.erase(it);
            prefetch_mshrs_ -= m.isPrefetch ? 1 : 0;
            return m;
        }
    }
    prefsim_panic("releaseMshr: no MSHR for line ", line_base, " on proc ",
                  owner_);
}

std::uint32_t
DataCache::victimWay(Addr addr) const
{
    const std::uint32_t base = geom_.frameBase(addr);
    std::uint32_t best = 0;
    std::uint64_t best_use = ~std::uint64_t{0};
    for (std::uint32_t w = 0; w < geom_.ways(); ++w) {
        const CacheFrame &f = frames_[base + w];
        if (f.tag == kNoAddr)
            return w; // Never-filled frame: free.
        if (!isValid(f.state))
            return w; // Invalid occupant: free (keeps its tag though).
        if (last_use_[base + w] < best_use) {
            best_use = last_use_[base + w];
            best = w;
        }
    }
    return best;
}

void
DataCache::noteDisplaced(const CacheFrame &frame, EvictedLine &evicted)
{
    if (frame.tag == kNoAddr || !isValid(frame.state))
        return;
    const bool dirty = frame.state == LineState::Modified;
    if (dirty) {
        evicted.lineBase = frame.tag;
        evicted.dirty = true;
    }
    const bool unused = frame.broughtByPrefetch && !frame.usedSinceFill;
    if (unused) {
        // Prefetched data displaced before use: remember so the next
        // miss on it is classified "non-sharing, prefetched".
        markPrefetchLost(frame.tag);
    }
    if (sink_)
        sink_->emit({.kind = obs::EventKind::Evict, .proc = owner_,
                     .line = frame.tag, .prefetch = unused, .dirty = dirty});
}

void
DataCache::pushToVictim(const CacheFrame &frame, EvictedLine &evicted)
{
    // Find the LRU victim-buffer slot (empty slots first).
    std::size_t slot = 0;
    std::uint64_t best_use = ~std::uint64_t{0};
    for (std::size_t i = 0; i < victim_.size(); ++i) {
        if (victim_[i].tag == kNoAddr || !isValid(victim_[i].state)) {
            slot = i;
            best_use = 0;
            break;
        }
        if (victim_use_[i] < best_use) {
            best_use = victim_use_[i];
            slot = i;
        }
    }
    noteDisplaced(victim_[slot], evicted);
    victim_[slot] = frame;
    victim_use_[slot] = ++use_clock_;
}

CacheFrame &
DataCache::install(Addr line_base, LineState state, bool by_prefetch,
                   EvictedLine &evicted)
{
    evicted = EvictedLine{};
    // Re-use a frame already tagged with this line (e.g. one holding it
    // in the Invalid state) so a tag never appears in two ways.
    std::uint32_t idx;
    if (CacheFrame *existing = findFrame(line_base)) {
        idx = static_cast<std::uint32_t>(existing - frames_.data());
    } else {
        idx = geom_.frameBase(line_base) + victimWay(line_base);
    }
    CacheFrame &f = frames_[idx];

    if (f.tag != kNoAddr && f.tag != line_base && isValid(f.state)) {
        if (victim_entries_ > 0)
            pushToVictim(f, evicted);
        else
            noteDisplaced(f, evicted);
    }
    f.beginResidency(line_base, state, by_prefetch);
    last_use_[idx] = ++use_clock_;
    return f;
}

CacheFrame *
DataCache::swapFromVictim(Addr addr)
{
    CacheFrame *v = findVictim(addr);
    if (v == nullptr || !isValid(v->state))
        return nullptr;

    std::uint32_t idx;
    if (CacheFrame *existing = findFrame(addr)) {
        // A stale (necessarily invalid) frame with this tag: reuse it.
        idx = static_cast<std::uint32_t>(existing - frames_.data());
    } else {
        idx = geom_.frameBase(addr) + victimWay(addr);
    }
    CacheFrame &f = frames_[idx];
    const CacheFrame incoming = *v;
    if (f.tag != kNoAddr && isValid(f.state)) {
        // True swap: the displaced set occupant takes the buffer slot.
        *v = f;
    } else {
        v->tag = kNoAddr;
        v->state = LineState::Invalid;
    }
    f = incoming;
    last_use_[idx] = ++use_clock_;
    return &f;
}

void
DataCache::configurePrefetchDataBuffer(unsigned entries)
{
    pdb_.assign(entries, CacheFrame{});
    pdb_use_.assign(entries, 0);
}

void
DataCache::parkPrefetchedLine(Addr line_base, LineState state)
{
    prefsim_assert(!pdb_.empty(), "prefetch data buffer not configured");
    // LRU slot (empties first).
    std::size_t slot = 0;
    std::uint64_t best_use = ~std::uint64_t{0};
    for (std::size_t i = 0; i < pdb_.size(); ++i) {
        if (pdb_[i].tag == kNoAddr || !isValid(pdb_[i].state)) {
            slot = i;
            best_use = 0;
            break;
        }
        if (pdb_use_[i] < best_use) {
            best_use = pdb_use_[i];
            slot = i;
        }
    }
    if (pdb_[slot].tag != kNoAddr && isValid(pdb_[slot].state)) {
        // A parked line pushed out unused was a wasted prefetch. Parked
        // lines are clean by construction (never written while parked),
        // so no writeback is needed.
        markPrefetchLost(pdb_[slot].tag);
        if (sink_)
            sink_->emit({.kind = obs::EventKind::ParkedDisplace,
                         .proc = owner_, .line = pdb_[slot].tag});
    }
    pdb_[slot].beginResidency(line_base, state, /*by_prefetch=*/true);
    pdb_use_[slot] = ++use_clock_;
}

CacheFrame *
DataCache::findParked(Addr addr)
{
    const Addr tag = geom_.lineBase(addr);
    for (auto &e : pdb_) {
        if (e.tag == tag && isValid(e.state))
            return &e;
    }
    return nullptr;
}

const CacheFrame *
DataCache::findParked(Addr addr) const
{
    return const_cast<DataCache *>(this)->findParked(addr);
}

CacheFrame *
DataCache::promoteParked(Addr addr, EvictedLine &evicted)
{
    evicted = EvictedLine{};
    CacheFrame *parked = findParked(addr);
    if (parked == nullptr)
        return nullptr;
    const CacheFrame incoming = *parked;
    parked->tag = kNoAddr;
    parked->state = LineState::Invalid;
    CacheFrame &f =
        install(incoming.tag, incoming.state, /*by_prefetch=*/true,
                evicted);
    return &f;
}

std::size_t
DataCache::victimValidLines() const
{
    return static_cast<std::size_t>(std::count_if(
        victim_.begin(), victim_.end(),
        [](const CacheFrame &f) { return isValid(f.state); }));
}

std::size_t
DataCache::validLines() const
{
    return static_cast<std::size_t>(std::count_if(
        frames_.begin(), frames_.end(),
        [](const CacheFrame &f) { return isValid(f.state); }));
}

} // namespace prefsim
