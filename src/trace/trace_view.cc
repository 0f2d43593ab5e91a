#include "trace/trace_view.hh"

#include "common/log.hh"
#include "common/thread_pool.hh"

namespace prefsim
{

void
emitPlaced(const Trace &base, const PlacementList &placements, Trace &out)
{
    std::size_t next = 0;
    for (std::size_t i = 0; i < base.size(); ++i) {
        const TraceRecord &r = base[i];
        std::uint32_t emitted = 0; // Instr cycles of record i emitted.
        while (next < placements.size() && placements[next].record == i) {
            const Placement &p = placements[next];
            if (p.offset > emitted) {
                prefsim_assert(r.kind == RecordKind::Instr,
                               "split offset in non-instr record");
                out.appendInstrs(p.offset - emitted);
                emitted = p.offset;
            }
            out.append(p.toRecord());
            ++next;
        }
        if (r.kind == RecordKind::Instr) {
            prefsim_assert(emitted <= r.count, "instr split overflow");
            // appendInstrs would re-coalesce the tail with the head if
            // no prefetch separated them; emitting the remainder keeps
            // the total count intact either way.
            out.appendInstrs(r.count - emitted);
        } else {
            out.append(r);
        }
    }
    for (; next < placements.size(); ++next)
        out.append(placements[next].toRecord());
}

std::uint64_t
TraceView::totalPrefetches() const
{
    std::uint64_t n = base->totalPrefetches();
    for (const PlacementList &l : placements)
        n += l.size();
    return n;
}

std::size_t
TraceView::streamSize(std::size_t p) const
{
    std::size_t n = base->procs[p].size();
    if (placements.empty())
        return n;
    // Each placement adds itself, and each distinct split point inside
    // an Instr burst adds the head it splits off.
    const PlacementList &l = placements[p];
    n += l.size();
    for (std::size_t i = 0; i < l.size(); ++i) {
        if (l[i].offset != 0 &&
            (i == 0 || l[i].record != l[i - 1].record ||
             l[i].offset != l[i - 1].offset))
            ++n;
    }
    return n;
}

ParallelTrace
TraceView::materialize() const
{
    ParallelTrace out;
    out.name = base->name;
    out.numLocks = base->numLocks;
    out.numBarriers = base->numBarriers;
    // This thread allocates every output buffer, so the traces do not
    // land in the helper threads' malloc arenas (memory a thread frees
    // into its own arena is not reused by the others); each helper
    // fills a local and stores it once.
    const std::size_t n = numProcs();
    out.procs.resize(n);
    const auto placed = [&](std::size_t p) {
        return placements.empty() ? 0 : placements[p].size();
    };
    for (std::size_t p = 0; p < n; ++p)
        out.procs[p].reserve(base->procs[p].size() + 2 * placed(p));
    parallelFor(n, [&](std::size_t p) {
        Trace mine = std::move(out.procs[p]);
        if (placed(p) != 0)
            emitPlaced(base->procs[p], placements[p], mine);
        else
            mine.records() = base->procs[p].records();
        out.procs[p] = std::move(mine);
    });
    return out;
}

} // namespace prefsim
