/**
 * @file
 * A trace as a view: a shared base ParallelTrace plus, per processor,
 * the prefetches placed into it, read in place instead of copied.
 *
 * The prefetch pass decides where each prefetch goes (a Placement);
 * the simulator walks the base records and the placements together,
 * so an annotation costs its placements, not a second copy of the
 * trace. materialize() writes the same stream out as a plain
 * ParallelTrace, which is what annotateTrace returns.
 */

#ifndef PREFSIM_TRACE_TRACE_VIEW_HH
#define PREFSIM_TRACE_TRACE_VIEW_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hh"
#include "trace/trace.hh"

namespace prefsim
{

/**
 * One prefetch placed into a base trace: before base record @c record,
 * or inside it when it is an Instr burst and @c offset is non-zero
 * (the burst is split after @c offset instructions). A record index
 * equal to the trace's size places the prefetch after its last record.
 */
struct Placement
{
    std::size_t record = 0;
    /** Word address prefetched (the simulator attributes per word). */
    Addr addr = kNoAddr;
    /** Instructions of the Instr record @c record that run before the
     *  prefetch: below its count, and 0 for any other record. */
    std::uint32_t offset = 0;
    bool exclusive = false;

    TraceRecord
    toRecord() const
    {
        return TraceRecord::prefetch(addr, exclusive);
    }

    bool
    operator==(const Placement &o) const
    {
        return record == o.record && addr == o.addr && offset == o.offset &&
               exclusive == o.exclusive;
    }
};

/** One processor's placements, sorted by (record, offset); placements
 *  at the same position run in list order. */
using PlacementList = std::vector<Placement>;

/**
 * Write @p base with @p placements inserted to @p out, through
 * Trace::append: adjacent Instr records fold and Instr records of
 * count 0 are dropped. A view's stream is this one.
 * base.size() + 2 * placements.size() records bound the output (each
 * placement adds itself and at most one split-off Instr record), so a
 * caller can reserve them.
 */
void emitPlaced(const Trace &base, const PlacementList &placements,
                Trace &out);

/**
 * A workload as the simulator reads it: a shared base trace plus the
 * prefetches placed into each processor's stream. It simulates exactly
 * as materialize() would (an empty Instr burst takes no cycle, and
 * folding adjacent bursts changes no statistic).
 */
struct TraceView
{
    std::shared_ptr<const ParallelTrace> base;
    /** One list per processor, or none when nothing is placed. */
    std::vector<PlacementList> placements;

    /** A view of @p trace that borrows it: the caller keeps @p trace
     *  alive while the view is used. */
    static TraceView
    borrow(const ParallelTrace &trace,
           std::vector<PlacementList> placements = {})
    {
        return {std::shared_ptr<const ParallelTrace>(
                    std::shared_ptr<const ParallelTrace>(), &trace),
                std::move(placements)};
    }

    std::size_t numProcs() const { return base->numProcs(); }

    /** Prefetch records of the base plus every placement. */
    std::uint64_t totalPrefetches() const;

    /**
     * Records in processor @p p's materialized stream, counted from
     * the placements alone: the base's records, plus each placement,
     * plus each Instr burst a placement splits off. Exact for a
     * canonical base (trace.hh).
     */
    std::size_t streamSize(std::size_t p) const;

    /** The view written out as a plain trace: each processor with
     *  placements through emitPlaced, the others as copies of the
     *  base (the same stream for a canonical base). */
    ParallelTrace materialize() const;
};

} // namespace prefsim

#endif // PREFSIM_TRACE_TRACE_VIEW_HH
