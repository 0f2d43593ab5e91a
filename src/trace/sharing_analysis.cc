#include "trace/sharing_analysis.hh"

#include <bit>

#include "common/intmath.hh"
#include "common/log.hh"

namespace prefsim
{

SharingAnalysis::SharingAnalysis(const ParallelTrace &trace,
                                 unsigned line_bytes)
    : line_bytes_(line_bytes)
{
    prefsim_assert(isPowerOf2(line_bytes), "line size must be a power of 2");
    prefsim_assert(trace.numProcs() <= 32,
                   "sharing analysis supports at most 32 processors");

    // One pass: record which processors touch / write each line and
    // how often it is referenced.
    for (std::size_t p = 0; p < trace.numProcs(); ++p) {
        const auto bit = std::uint32_t{1} << p;
        for (const auto &r : trace.procs[p].records()) {
            if (!isDemandRef(r.kind))
                continue;
            LineInfo &li = lines_.get(roundDown(r.addr, line_bytes_),
                                      [](LineInfo &) {});
            li.toucher_mask |= bit;
            if (r.kind == RecordKind::Write)
                li.written = true;
            ++li.refs;
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
