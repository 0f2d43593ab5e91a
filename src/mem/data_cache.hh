/**
 * @file
 * The per-processor data cache: set-associative (direct-mapped in the
 * paper's configuration), copy-back, lockup-free, with an optional
 * victim cache.
 *
 * Mechanism only — all protocol *decisions* (what state a fill installs
 * in, who gets invalidated) are made by the snooping memory system that
 * owns all the caches. The cache tracks frames, outstanding misses
 * (MSHRs, up to one demand plus a bounded number of prefetches), and the
 * "prefetched-but-lost" side table that classification uses to recognise
 * misses whose prefetched data disappeared before use.
 *
 * The victim cache (Jouppi) is the paper's own §4.3 suggestion for the
 * conflict misses prefetching introduces: a small fully-associative
 * buffer holding recently evicted lines, swapped back on a miss for a
 * one-cycle penalty instead of a bus transaction. It sits beside the
 * cache and is snooped with it.
 */

#ifndef PREFSIM_MEM_DATA_CACHE_HH
#define PREFSIM_MEM_DATA_CACHE_HH

#include <cstdint>
#include <optional>
#include <unordered_set>
#include <vector>

#include "common/cache_geometry.hh"
#include "common/types.hh"
#include "mem/bus_op.hh"
#include "mem/cache_line.hh"

namespace prefsim
{

namespace obs
{
class Sink;
} // namespace obs

/** An outstanding miss (fill in flight on the bus). */
struct Mshr
{
    Addr lineBase = kNoAddr;
    /** State the fill will install in; may be downgraded (E->S) or
     *  killed (->I) by remote operations while in flight. */
    LineState targetState = LineState::Shared;
    bool isPrefetch = false;
    /** A CPU access is blocked on this fill. */
    bool demandWaiting = false;
    /** Word index of the blocked access (valid when demandWaiting). */
    std::uint32_t demandWord = 0;
    /** A remote invalidation hit the fill in flight: the line arrives
     *  dead (installs Invalid). */
    bool arriveInvalid = false;
    /** False-sharing attribution if arriveInvalid (word untouched). */
    bool invalFalseSharing = false;
    /** Bus transaction id (for priority promotion). */
    std::uint64_t busId = 0;
    /** Cycle a blocked demand access attached itself to this (prefetch)
     *  fill; valid when demandWaiting. The fill-completion-minus-attach
     *  gap is the prefetch's *lateness* — the residual latency the
     *  prefetch failed to hide. */
    Cycle demandAttachedAt = 0;
};

/** A hit on a frame of the cache proper, as DataCache::applyHits()
 *  takes it: a demand access's, or a quiet hit a walk planned. */
struct CacheHit
{
    std::uint32_t at;   ///< Cycle of the access, relative to a base.
    std::uint32_t slot; ///< Frame slot (DataCache::slotOf).
    std::uint8_t word;  ///< Word index within the line.
    bool write;
};

/** A dirty line displaced out of the cache+victim pair (needs a bus
 *  writeback). */
struct EvictedLine
{
    Addr lineBase = kNoAddr;
    bool dirty = false;
};

/**
 * Set-associative copy-back data cache with MSHRs and an optional
 * victim buffer.
 */
class DataCache
{
  public:
    DataCache(ProcId owner, const CacheGeometry &geom,
              unsigned max_prefetch_mshrs = 16,
              unsigned victim_entries = 0);

    const CacheGeometry &geometry() const { return geom_; }
    ProcId owner() const { return owner_; }

    /** @name Frame lookup. @{ */
    /** Frame in the cache proper whose tag matches @p addr's line
     *  (any state, including Invalid), or nullptr. Inline: every
     *  access, walk step and snoop starts here. */
    CacheFrame *
    findFrame(Addr addr)
    {
        const Addr tag = geom_.lineBase(addr);
        CacheFrame *set = frames_.data() + geom_.frameBase(addr);
        for (std::uint32_t w = 0; w < geom_.ways(); ++w) {
            if (set[w].tag == tag)
                return &set[w];
        }
        return nullptr;
    }

    const CacheFrame *
    findFrame(Addr addr) const
    {
        return const_cast<DataCache *>(this)->findFrame(addr);
    }

    /** Victim-buffer entry for @p addr's line, or nullptr. */
    CacheFrame *findVictim(Addr addr);

    /** Cache-proper frame or victim entry (a line is never in both). */
    CacheFrame *findAny(Addr addr);

    /** True iff the line is resident and valid in the cache proper. */
    bool
    resident(Addr addr) const
    {
        const CacheFrame *f = findFrame(addr);
        return f != nullptr && isValid(f->state);
    }

    /** State of the line in the cache proper (Invalid if absent). */
    LineState stateOf(Addr addr) const;

    /** State of the line anywhere (cache proper or victim buffer). */
    LineState stateAnywhere(Addr addr) const;

    /** Record an LRU touch on the frame holding @p addr. */
    void touch(Addr addr);

    /** No frame (a slot lookup that found none). */
    static constexpr std::uint32_t kNoFrame = ~std::uint32_t{0};

    /** Slot of @p f, a frame of the cache proper: its index, stable
     *  for the cache's lifetime (a walk records it, a replay uses it). */
    std::uint32_t
    slotOf(const CacheFrame &f) const
    {
        return static_cast<std::uint32_t>(&f - frames_.data());
    }

    /**
     * The cache-local side effects of the hits [@p hit, @p end), in
     * order: the word joins the frame's access mask, the frame counts
     * as used (a prefetched line's first use calls @p first_use with
     * the line and base + at), the LRU touch, the stale
     * prefetched-but-lost marker is consumed, and a write to an
     * Exclusive line upgrades it silently to Modified.
     */
    template <typename FirstUse>
    void
    applyHits(const CacheHit *hit, const CacheHit *end, Cycle base,
              FirstUse &&first_use)
    {
        // Nothing below marks a line lost, so an empty table stays
        // empty; the clock lives in a register for the run.
        const bool lost = !lost_prefetch_.empty();
        std::uint64_t clock = use_clock_;
        for (; hit != end; ++hit) {
            CacheFrame &f = frames_[hit->slot];
            f.accessMask |= 1u << hit->word;
            if (f.broughtByPrefetch && !f.usedSinceFill)
                first_use(f.tag, base + hit->at);
            f.usedSinceFill = true;
            last_use_[hit->slot] = ++clock;
            if (lost)
                lost_prefetch_.erase(f.tag);
            if (hit->write && f.state == LineState::Exclusive)
                f.state = LineState::Modified;
        }
        use_clock_ = clock;
    }
    /** @} */

    /** @name MSHRs. @{ */
    Mshr *findMshr(Addr addr);
    const Mshr *findMshr(Addr addr) const;

    /** True if a new prefetch MSHR may be allocated. */
    bool prefetchMshrAvailable() const;

    /** Allocate an MSHR (panics on duplicates / prefetch overflow). */
    Mshr &allocateMshr(Addr line_base, LineState target, bool is_prefetch);

    /** Remove the MSHR for @p line_base and return it by value. */
    Mshr releaseMshr(Addr line_base);

    std::size_t numMshrs() const { return mshrs_.size(); }
    const std::vector<Mshr> &mshrs() const { return mshrs_; }
    unsigned maxPrefetchMshrs() const { return max_prefetch_; }
    /** @} */

    /** @name Prefetched-but-lost side table. @{ */
    void markPrefetchLost(Addr line_base) { lost_prefetch_.insert(line_base); }
    bool
    consumePrefetchLost(Addr line_base)
    {
        return lost_prefetch_.erase(line_base) != 0;
    }
    std::size_t prefetchLostEntries() const { return lost_prefetch_.size(); }
    /** @} */

    /**
     * Install a fill into its set, evicting the LRU occupant (invalid
     * ways are preferred victims). With a victim buffer, the evictee
     * moves there and @p evicted reports whatever the buffer displaced;
     * without one, @p evicted reports the evictee itself.
     *
     * @return the frame the line was installed into.
     */
    CacheFrame &install(Addr line_base, LineState state, bool by_prefetch,
                        EvictedLine &evicted);

    /**
     * Victim-buffer swap: if @p addr's line sits in the victim buffer,
     * move it back into its set (the set's victim drops into the
     * buffer — a true swap, so nothing is displaced).
     * @return the reinstated frame, or nullptr if not in the buffer.
     */
    CacheFrame *swapFromVictim(Addr addr);

    unsigned victimEntries() const { return victim_entries_; }
    std::size_t victimValidLines() const;

    /** @name Non-snooping prefetch data buffer (§3.1 alternative).
     * A Klaiber-Levy-style prefetch buffer beside the cache: prefetch
     * fills park here instead of the cache, and a demand access that
     * finds its line promotes it into the cache. The buffer does NOT
     * participate in snooping — which is exactly why shared data must
     * not be prefetched into it; the memory system counts (and
     * neutralises) any coherence violation that would result.
     * @{ */
    /** Enable the buffer with @p entries slots (0 disables). */
    void configurePrefetchDataBuffer(unsigned entries);
    unsigned prefetchDataBufferEntries() const { return pdb_.size(); }

    /** Park a prefetched line; the LRU occupant is discarded (and, if
     *  it was never used, marked prefetched-but-lost). */
    void parkPrefetchedLine(Addr line_base, LineState state);

    /** The buffered entry for @p addr, or nullptr. */
    CacheFrame *findParked(Addr addr);
    const CacheFrame *findParked(Addr addr) const;

    /**
     * Promote a parked line into the cache proper.
     * @return the installed frame, or nullptr if not parked;
     *         @p evicted reports any displaced dirty line.
     */
    CacheFrame *promoteParked(Addr addr, EvictedLine &evicted);
    /** @} */

    /** Count of valid lines in the cache proper (tests/invariants). */
    std::size_t validLines() const;

    /** Attach (or detach, with null) the run's event sink: evictions
     *  and displaced parked prefetches. Evictions only happen on
     *  fill/install paths, which are never replayed quietly. */
    void setSink(obs::Sink *sink) { sink_ = sink; }

  private:
    /** Pick the victim way in @p addr's set (invalid before LRU). */
    std::uint32_t victimWay(Addr addr) const;

    /** Push @p frame's contents into the victim buffer; report what the
     *  buffer displaced (possibly nothing) via @p evicted. */
    void pushToVictim(const CacheFrame &frame, EvictedLine &evicted);

    /** Account an eviction (prefetch-lost marking, dirty reporting). */
    void noteDisplaced(const CacheFrame &frame, EvictedLine &evicted);

    ProcId owner_;
    CacheGeometry geom_;
    unsigned max_prefetch_;
    unsigned victim_entries_;
    std::vector<CacheFrame> frames_;
    std::vector<std::uint64_t> last_use_; ///< Per frame, for LRU.
    std::uint64_t use_clock_ = 0;

    /** Victim buffer entries (kNoAddr tag = empty) + LRU clocks. */
    std::vector<CacheFrame> victim_;
    std::vector<std::uint64_t> victim_use_;

    /** Non-snooping prefetch data buffer + LRU clocks. */
    std::vector<CacheFrame> pdb_;
    std::vector<std::uint64_t> pdb_use_;

    std::vector<Mshr> mshrs_;
    unsigned prefetch_mshrs_ = 0; ///< MSHRs of mshrs_ with isPrefetch.
    std::unordered_set<Addr> lost_prefetch_;
    obs::Sink *sink_ = nullptr;
};

} // namespace prefsim

#endif // PREFSIM_MEM_DATA_CACHE_HH
