#include "trace/trace.hh"

namespace prefsim
{

std::uint64_t
Trace::demandRefs() const
{
    std::uint64_t n = 0;
    for (const auto &r : records_)
        n += isDemandRef(r.kind) ? 1 : 0;
    return n;
}

std::uint64_t
Trace::prefetches() const
{
    std::uint64_t n = 0;
    for (const auto &r : records_)
        n += isPrefetch(r.kind) ? 1 : 0;
    return n;
}

std::uint64_t
Trace::instructions() const
{
    std::uint64_t n = 0;
    for (const auto &r : records_)
        n += r.kind == RecordKind::Instr ? r.count : 1;
    return n;
}

std::uint64_t
ParallelTrace::totalDemandRefs() const
{
    std::uint64_t n = 0;
    for (const auto &t : procs)
        n += t.demandRefs();
    return n;
}

std::uint64_t
ParallelTrace::totalPrefetches() const
{
    std::uint64_t n = 0;
    for (const auto &t : procs)
        n += t.prefetches();
    return n;
}

} // namespace prefsim
