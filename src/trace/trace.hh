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

/** Most processors a trace may have (readers reject more). */
inline constexpr std::size_t kMaxTraceProcs = 32;

/**
 * The event stream of a single simulated processor.
 *
 * Thin wrapper over a vector of TraceRecord with convenience counters,
 * so the prefetch pass and the simulator share one representation.
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
            records_.back().count <= kMaxInstrCount - count) {
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
