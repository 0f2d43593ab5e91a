/**
 * @file
 * Per-processor traces and the multi-processor ParallelTrace bundle.
 */

#ifndef PREFSIM_TRACE_TRACE_HH
#define PREFSIM_TRACE_TRACE_HH

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/types.hh"
#include "trace/trace_record.hh"

namespace prefsim
{

/** Largest instruction count one Instr record holds. */
inline constexpr std::uint32_t kMaxInstrCount =
    std::numeric_limits<std::uint32_t>::max();

/** True when @p count more instructions fold into a trailing Instr
 *  record of @p tail without overflowing its 32-bit count. */
constexpr bool
foldsInstrs(std::uint32_t tail, std::uint32_t count)
{
    return tail <= kMaxInstrCount - count;
}

/** Most processors a trace may have (readers reject more). */
inline constexpr std::size_t kMaxTraceProcs = 32;

/**
 * The event stream of a single simulated processor.
 *
 * Thin wrapper over a vector of TraceRecord with convenience counters,
 * so the prefetch pass and the simulator share one representation.
 *
 * A trace is *canonical* when it holds no Instr record of count 0 and
 * no two adjacent Instr records that fold (foldsInstrs). append() and
 * appendInstrs() keep a trace canonical, and every trace enters prefsim
 * that way: the generators and the prefetch pass append, and both
 * readers (trace_io.hh, trace_io_binary.hh) fold and drop as they
 * parse. Only records written through records() directly can be
 * otherwise; the simulator runs such a trace as its canonical form.
 */
class Trace
{
  public:
    Trace() = default;

    /** Append a record. Adjacent Instr records are coalesced. */
    void
    append(const TraceRecord &rec)
    {
        if (rec.kind == RecordKind::Instr) {
            appendInstrs(rec.count);
            return;
        }
        records_.push_back(rec);
    }

    /**
     * Append @p count plain instructions, folded into a trailing Instr
     * record unless its 32-bit count would overflow.
     */
    void
    appendInstrs(std::uint32_t count)
    {
        if (count == 0)
            return;
        if (!records_.empty() && records_.back().kind == RecordKind::Instr &&
            foldsInstrs(records_.back().count, count)) {
            records_.back().count += count;
            return;
        }
        records_.push_back(TraceRecord::instr(count));
    }

    /** Reserve capacity for @p n records. */
    void reserve(std::size_t n) { records_.reserve(n); }

    const std::vector<TraceRecord> &records() const { return records_; }
    std::vector<TraceRecord> &records() { return records_; }

    std::size_t size() const { return records_.size(); }
    bool empty() const { return records_.empty(); }
    const TraceRecord &operator[](std::size_t i) const { return records_[i]; }

    /** Number of demand data references (reads + writes). */
    std::uint64_t demandRefs() const;
    /** Number of prefetch records. */
    std::uint64_t prefetches() const;
    /** Total instruction count (Instr batches + 1 per ref/prefetch/sync). */
    std::uint64_t instructions() const;

  private:
    std::vector<TraceRecord> records_;
};

/**
 * A complete parallel workload: one Trace per processor plus metadata.
 */
struct ParallelTrace
{
    /** Human-readable workload name ("topopt", "mp3d", ...). */
    std::string name;
    /** Per-processor event streams; size() == processor count. */
    std::vector<Trace> procs;
    /** Number of distinct lock identifiers used. */
    SyncId numLocks = 0;
    /** Number of distinct barrier identifiers used. */
    SyncId numBarriers = 0;

    std::size_t numProcs() const { return procs.size(); }

    /** Sum of demand references over all processors. */
    std::uint64_t totalDemandRefs() const;
    /** Sum of prefetch records over all processors. */
    std::uint64_t totalPrefetches() const;
};

} // namespace prefsim

#endif // PREFSIM_TRACE_TRACE_HH
