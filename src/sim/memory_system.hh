/**
 * @file
 * The snooping coherent memory system.
 *
 * Owns every processor's data cache and the split-transaction bus, and
 * implements the Illinois write-invalidate protocol across them:
 *
 *  - read miss: sourced cache-to-cache when any copy exists (requester
 *    installs Shared, remote M/E copies downgrade to Shared); otherwise
 *    installs Exclusive (private clean);
 *  - write miss / exclusive prefetch: ReadExclusive invalidates every
 *    other copy; a demand write installs Modified, an exclusive prefetch
 *    installs Exclusive (the Illinois private-clean state, §3.3);
 *  - write hit on Shared: an address-only Upgrade invalidates the other
 *    copies; the writer stalls until it is granted;
 *  - prefetch hit (any state): dropped, no bus operation (§4.1).
 *
 * Snooping happens at request time; fills that are invalidated while in
 * flight arrive dead (install Invalid), which is how "prefetched data
 * invalidated before use" becomes observable. A snoop visits only the
 * caches in the line's holder mask (see holders_), not every cache.
 * Miss classification — the paper's Figure 3 taxonomy plus per-word
 * false-sharing attribution — is performed here, at the moment each
 * CPU miss is discovered.
 */

#ifndef PREFSIM_SIM_MEMORY_SYSTEM_HH
#define PREFSIM_SIM_MEMORY_SYSTEM_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/cache_geometry.hh"
#include "common/flat_table.hh"
#include "common/types.hh"
#include "mem/data_cache.hh"
#include "mem/split_bus.hh"
#include "sim/sim_stats.hh"

namespace prefsim
{

namespace obs
{
class Sink;
} // namespace obs

/**
 * Coherence protocol family.
 *
 * The paper assumes write-invalidate (Illinois); the write-update
 * variant (Firefly-style: writes to shared lines broadcast the word and
 * update memory, copies stay valid) exists as an ablation — it removes
 * invalidation misses entirely, at the price of an update operation on
 * every write to shared data.
 */
enum class CoherenceProtocol
{
    WriteInvalidate, ///< Illinois/MESI: the paper's protocol.
    WriteUpdate,     ///< Firefly-style broadcast updates.
};

/**
 * Deliberately seeded protocol bugs, used by the verification layer to
 * prove the model checker actually catches violations (a checker that
 * never fires is indistinguishable from one that checks nothing). The
 * default None is the shipped protocol; the mutations exist only so
 * tests and tools/prefsim_verify can demonstrate detection.
 */
enum class ProtocolMutation : std::uint8_t
{
    None,           ///< The shipped (correct) protocol.
    SkipInvalidate, ///< Bus writes do not invalidate remote copies.
    SkipDowngrade,  ///< Remote reads leave private (M/E) copies intact.
    KeepStaleMshrTarget, ///< In-flight private fills keep exclusivity
                         ///< when a remote read should downgrade them.
};

/** Outcome of a demand access. */
enum class AccessResult
{
    Hit,              ///< Completed this cycle.
    VictimHit,        ///< Swapped in from the victim buffer: one extra
                      ///< cycle, no bus operation.
    MissWait,         ///< Blocked on a fill.
    UpgradeWait,      ///< Write hit on Shared: blocked on the upgrade.
    InProgressWait,   ///< Blocked on a prefetch already in flight.
};

/** Outcome of executing a prefetch instruction. */
enum class PrefetchResult
{
    Issued,           ///< Went to the bus.
    DroppedResident,  ///< Line already cached: no bus operation.
    DroppedDuplicate, ///< A fill for the line is already outstanding.
    BufferFull,       ///< Prefetch buffer full: the CPU must stall.
};

/**
 * Coherent caches + bus. Processors call demandAccess()/prefetchAccess();
 * the Simulator ticks the bus and receives wake callbacks.
 */
class MemorySystem
{
  public:
    /**
     * Called when the operation a processor was blocked on completes.
     * When @c retry is true the processor must re-execute the blocked
     * access (it may hit, upgrade, or miss again); when false the access
     * was satisfied by the completing operation and the processor moves
     * on. Demand fills always satisfy their access — their address phase
     * ordered them before any in-flight invalidation — which guarantees
     * forward progress (no refetch livelock).
     */
    using WakeFn = std::function<void(ProcId, bool retry)>;

    MemorySystem(unsigned num_procs, const CacheGeometry &geom,
                 const BusTiming &timing, unsigned prefetch_buffer_depth,
                 std::vector<ProcStats> &proc_stats,
                 unsigned victim_entries = 0,
                 unsigned prefetch_data_buffer_entries = 0,
                 CoherenceProtocol protocol =
                     CoherenceProtocol::WriteInvalidate);

    void setWake(WakeFn fn) { wake_ = std::move(fn); }

    /**
     * Invoked just *before* anything outside a processor's own
     * cycle-exact execution mutates its cache: a remote invalidation
     * or downgrade reaching one of its lines, parked entries, or
     * in-flight fills, and a fill completion installing into it. The
     * local-clock core uses this to replay the processor's pending
     * quiet work against the pre-mutation cache state (its quiet hits
     * logically precede the mutation; see docs/simcore.md). Left unset
     * (the CycleLoop oracle), it costs one null-check branch per site.
     */
    using CatchUpFn = std::function<void(ProcId)>;
    void setCatchUp(CatchUpFn fn) { catch_up_ = std::move(fn); }

    /** Attach (or detach, with null) the run's event sink here, on the
     *  bus and on every cache (see obs/event.hh). */
    void setSink(obs::Sink *sink);

    /**
     * Execute a demand reference for @p proc at cycle @p now.
     * Classification counters are updated on the first encounter of each
     * miss; a retry after wake re-runs the access and may hit, upgrade,
     * or (rarely, after an in-flight invalidation) miss again.
     */
    AccessResult demandAccess(ProcId proc, Addr addr, bool is_write,
                              Cycle now);

    /** Execute a prefetch instruction for @p proc. */
    PrefetchResult prefetchAccess(ProcId proc, Addr addr, bool exclusive,
                                  Cycle now);

    /**
     * Advance the bus one cycle (completions fire wake callbacks).
     * @return the number of bus completions fired (verification).
     */
    unsigned tick(Cycle now) { return bus_.tick(now); }

    /** Zero the bus statistics (warmup exclusion). */
    void resetBusStats() { bus_.resetStats(); }

    /** True while any bus operation is outstanding. */
    bool busBusy() const { return bus_.busy(); }

    /** Earliest future completion (wakes processors / installs lines;
     *  bounds frontier jumps — see SplitBus::nextCompletionCycle). */
    Cycle
    nextCompletionCycle(Cycle now) const
    {
        return bus_.nextCompletionCycle(now);
    }

    /** Earliest future data-bus grant (bounds frontier jumps: the
     *  local-clock core runs a grant cycle exactly — see
     *  SplitBus::nextGrantCycle). */
    Cycle
    nextGrantCycle(Cycle now) const
    {
        return bus_.nextGrantCycle(now);
    }

    /**
     * The frame slot of a *quiet hit*: a demandAccess() that would
     * return Hit without any bus interaction — a read hit on any valid
     * line, or a write hit on a Modified or Exclusive line (the
     * Illinois silent upgrade). DataCache::kNoFrame for everything
     * that stalls, swaps from the victim buffer or prefetch data
     * buffer, promotes an in-flight prefetch, or issues a bus
     * operation (write hit on Shared). A quiet hit mutates only the
     * owning cache's local bookkeeping, so the local-clock core may
     * replay it while the processor lags (applyQuietHit): nothing
     * another processor or the bus does is affected by it, and —
     * because quiet hits never evict or change line residency — the
     * slot and its own later quiet-hit predictions stay valid too.
     */
    std::uint32_t
    quietHitSlot(ProcId proc, Addr addr, bool is_write) const
    {
        const DataCache &c = *caches_[proc];
        const CacheFrame *f = c.findFrame(addr);
        if (f == nullptr || !isValid(f->state) ||
            (is_write && !isPrivate(f->state)))
            return DataCache::kNoFrame;
        return c.slotOf(*f);
    }

    /**
     * Replay the quiet hits [@p hit, @p end) of @p proc, each found by
     * quietHitSlot() and made at cycle @p base + at: the same
     * cache-local side effects as demandAccess()'s hit — access mask,
     * first use of a prefetched line, LRU touch, the stale
     * prefetched-but-lost marker, the silent E->M upgrade — applied
     * straight to the frames (DataCache::applyHits).
     */
    void
    applyQuietHits(ProcId proc, const CacheHit *hit, const CacheHit *end,
                   Cycle base)
    {
        caches_[proc]->applyHits(hit, end, base,
                                 [&](Addr line_base, Cycle at) {
                                     noteFirstUse(proc, line_base, at);
                                 });
    }

    /**
     * Version of @p proc's cache contents as seen by quietHitSlot().
     * Bumped whenever anything *other than this processor's own
     * cycle-exact execution* changes the answer it could give: a
     * remote invalidation of a valid line or downgrade of a private
     * one, and every fill that installs into the cache, live or dead
     * (an install may evict). A fill parked in the prefetch data
     * buffer and a parked line's kill need no bump: parked lines never
     * hit quietly. The processor's own misses, swaps and prefetches
     * need none either: they execute in cycle-exact territory at the
     * point its quiet plan already ends, so the plan expires by
     * construction. A quiet plan is tagged with the version it was
     * walked under and dropped once it moves (Processor::inertCycles).
     */
    std::uint64_t cacheVersion(ProcId proc) const
    {
        return cache_version_[proc];
    }

    /** Outstanding MSHRs across every cache right now (interval
     *  sampling snapshot). */
    std::uint64_t
    outstandingMshrs() const
    {
        std::uint64_t n = 0;
        for (const auto &c : caches_)
            n += c->numMshrs();
        return n;
    }

    /**
     * Cumulative count of prefetched lines whose data was used at least
     * once (the complement of the useless/cancelled outcomes, counted at
     * the moment of first use rather than at loss). Survives warmup
     * statistics resets: the interval sampler differences it, so the
     * rebase just carries the running value.
     */
    std::uint64_t
    prefetchFirstUses(ProcId proc) const
    {
        return prefetch_first_use_[proc];
    }

    const SplitBus &bus() const { return bus_; }
    const DataCache &cache(ProcId p) const { return *caches_[p]; }
    DataCache &cache(ProcId p) { return *caches_[p]; }
    unsigned numProcs() const
    {
        return static_cast<unsigned>(caches_.size());
    }
    const CacheGeometry &geometry() const { return geom_; }

    /** Coherence invariant: at most one M/E copy of any line, and no
     *  valid copy elsewhere when one exists (testing support). Returns
     *  true when the invariant holds for @p addr's line. */
    bool checkLineInvariant(Addr addr) const;

    /**
     * The full single-line invariant suite shared by the verify library
     * and the PREFSIM_VERIFY runtime hooks: SWMR (at most one Modified
     * copy, no private copy coexisting with any other valid copy or
     * live in-flight fill), at most one live exclusive intent counting
     * in-flight private fills, MSHR/bus-transaction bijection (no lost
     * or duplicated fills), pending-upgrade/bus consistency, and
     * holder-directory coverage (every cache a snoop must act on is in
     * the line's holder mask).
     * @return true when every predicate holds; otherwise false with the
     *         first violated predicate described in @p why (non-null).
     */
    bool checkLineInvariantDetail(Addr addr,
                                  std::string *why = nullptr) const;

    /** Holder mask of @p addr's line: bit p is set when cache p may
     *  hold the line (testing support; see holders_). */
    std::uint32_t
    holderMask(Addr addr) const
    {
        const std::uint32_t *mask = holders_.find(geom_.lineBase(addr));
        return mask != nullptr ? *mask : 0;
    }

    /** Pending write-upgrade line of @p proc (kNoAddr when none). */
    Addr pendingUpgrade(ProcId proc) const
    {
        return pending_upgrade_[proc];
    }

    /**
     * Seed a deliberate protocol bug (verification only; see
     * ProtocolMutation). Never set in simulation paths.
     */
    void setProtocolMutation(ProtocolMutation m) { mutation_ = m; }
    ProtocolMutation protocolMutation() const { return mutation_; }

  private:
    /** Result of probing the other holders of a line. */
    struct SnoopSummary
    {
        bool anyCopy = false; ///< Valid copy or in-flight fill elsewhere.
    };

    /** Probe the other holders of @p line_base (frames, victim and
     *  parked entries, MSHRs); prunes the holders it finds empty. */
    SnoopSummary probeOthers(ProcId requester, Addr line_base);

    /** Downgrade every other copy to Shared (remote ReadShared). */
    void downgradeOthers(ProcId requester, Addr line_base, Cycle now);

    /**
     * Invalidate every other copy / in-flight fill of @p line_base.
     * @p word is the word index the invalidating access targets, for
     * false-sharing attribution.
     */
    void invalidateOthers(ProcId requester, Addr line_base,
                          std::uint32_t word, Cycle now);

    /** The holder mask of @p line_base (zero for a line never
     *  missed on). */
    std::uint32_t &
    holders(Addr line_base)
    {
        return holders_.get(line_base, [](std::uint32_t &) {});
    }

    /** Clear @p empty's bits from @p line_base's holder mask: caches a
     *  snoop visited and found holding nothing of the line. */
    void
    pruneHolders(Addr line_base, std::uint32_t empty)
    {
        if (empty != 0)
            holders(line_base) &= ~empty;
    }

    /** A prefetched line's first use: count it and tell the sink. */
    void noteFirstUse(ProcId proc, Addr line_base, Cycle now);

    /** Bus completion dispatcher. */
    void onBusComplete(const Transaction &txn, Cycle now);

    /** Classify and count a CPU miss discovered on @p frame (the
     *  tag-matching frame, possibly nullptr). Returns true when the
     *  miss is an invalidation miss (the critical-path recorder files
     *  its refetch latency under coherence, not raw memory latency). */
    bool classifyMiss(ProcId proc, const CacheFrame *frame, Addr line_base,
                      bool prefetched_lost);

    CacheGeometry geom_;
    SplitBus bus_;
    /** Prefetch fills park in a non-snooping buffer when non-zero. */
    unsigned pdb_entries_ = 0;
    CoherenceProtocol protocol_ = CoherenceProtocol::WriteInvalidate;
    ProtocolMutation mutation_ = ProtocolMutation::None;
    std::vector<std::unique_ptr<DataCache>> caches_;
    std::vector<ProcStats> &stats_;
    WakeFn wake_;
    CatchUpFn catch_up_;
    obs::Sink *sink_ = nullptr;

    /**
     * Holder directory: per line base, a mask of the caches that may
     * hold the line (bit p = processor p). A cache's bit is set where
     * it allocates an MSHR for the line, the only way a line enters a
     * cache; a snoop clears it once the cache holds no valid frame or
     * victim copy, no valid parked line and no live MSHR of the line.
     * The mask is thus a superset of the caches a snoop acts on, and
     * snoops visit only its bits.
     */
    FlatTable<Addr, std::uint32_t, AddrHash> holders_;

    /** Pending upgrade per processor (line base; kNoAddr when none). */
    std::vector<Addr> pending_upgrade_;

    /** See cacheVersion(). */
    std::vector<std::uint64_t> cache_version_;

    /** See prefetchFirstUses(). */
    std::vector<std::uint64_t> prefetch_first_use_;
};

} // namespace prefsim

#endif // PREFSIM_SIM_MEMORY_SYSTEM_HH
