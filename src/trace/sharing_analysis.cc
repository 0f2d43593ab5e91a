#include "trace/sharing_analysis.hh"

#include <bit>
#include <utility>
#include <vector>

#include "common/intmath.hh"
#include "common/log.hh"
#include "common/thread_pool.hh"

namespace prefsim
{

namespace
{

/** One processor's demand references to one line. */
struct ProcLine
{
    bool written = false;
    std::uint64_t refs = 0;
};

using ProcLines = FlatTable<Addr, ProcLine, AddrHash>;

} // namespace

SharingAnalysis::SharingAnalysis(const ParallelTrace &trace,
                                 unsigned line_bytes)
    : line_bytes_(line_bytes)
{
    prefsim_assert(isPowerOf2(line_bytes), "line size must be a power of 2");
    prefsim_assert(trace.numProcs() <= 32,
                   "sharing analysis supports at most 32 processors");

    // One table per processor of the lines it touches, built
    // concurrently, then merged in processor order: each table keeps
    // its lines in first-use order, so the merge keys the lines in the
    // order one pass over the processors in turn would.
    const std::size_t n = trace.numProcs();
    std::vector<ProcLines> procs(n);
    parallelFor(n, [&](std::size_t p) {
        // Built on this thread's stack, away from the other tables.
        ProcLines mine;
        for (const auto &r : trace.procs[p].records()) {
            if (!isDemandRef(r.kind))
                continue;
            ProcLine &pl = mine.get(roundDown(r.addr, line_bytes_),
                                    [](ProcLine &) {});
            if (r.kind == RecordKind::Write)
                pl.written = true;
            ++pl.refs;
        }
        procs[p] = std::move(mine);
    });
    for (std::size_t p = 0; p < n; ++p) {
        const auto bit = std::uint32_t{1} << p;
        const std::vector<Addr> &keys = procs[p].keys();
        const std::vector<ProcLine> &recs = procs[p].records();
        for (std::size_t i = 0; i < keys.size(); ++i) {
            LineInfo &li = lines_.get(keys[i], [](LineInfo &) {});
            li.toucher_mask |= bit;
            li.written = li.written || recs[i].written;
            li.refs += recs[i].refs;
        }
    }

    // Classify lines.
    for (LineInfo &li : lines_.records()) {
        total_refs_ += li.refs;
        if (std::popcount(li.toucher_mask) <= 1) {
            ++num_private_;
        } else if (!li.written) {
            li.cls = SharingClass::ReadShared;
            ++num_read_shared_;
        } else {
            li.cls = SharingClass::WriteShared;
            ++num_write_shared_;
            write_shared_refs_ += li.refs;
        }
    }
}

SharingClass
SharingAnalysis::classOf(Addr addr) const
{
    const LineInfo *li = lines_.find(roundDown(addr, line_bytes_));
    return li ? li->cls : SharingClass::Private;
}

bool
SharingAnalysis::isWriteShared(Addr addr) const
{
    return classOf(addr) == SharingClass::WriteShared;
}

double
SharingAnalysis::writeSharedRefFraction() const
{
    return total_refs_ == 0
               ? 0.0
               : static_cast<double>(write_shared_refs_) /
                     static_cast<double>(total_refs_);
}

} // namespace prefsim
