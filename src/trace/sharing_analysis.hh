/**
 * @file
 * Whole-trace data-sharing analysis.
 *
 * Classifies cache lines (and words) by how the processors touch them:
 * private, read-shared, or write-shared. The PWS prefetching strategy
 * (paper §4.1) needs the write-shared line set, and Table 1 / Table 3
 * reporting needs the aggregate counts.
 */

#ifndef PREFSIM_TRACE_SHARING_ANALYSIS_HH
#define PREFSIM_TRACE_SHARING_ANALYSIS_HH

#include <cstdint>

#include "common/flat_table.hh"
#include "common/types.hh"
#include "trace/trace.hh"

namespace prefsim
{

/** Sharing class of a cache line over the whole execution. */
enum class SharingClass : std::uint8_t
{
    Private,    ///< Touched by exactly one processor.
    ReadShared, ///< Touched by >= 2 processors, never written.
    WriteShared ///< Touched by >= 2 processors, written by >= 1.
};

/**
 * Result of analysing a ParallelTrace at a given line size.
 */
class SharingAnalysis
{
  public:
    /**
     * Analyse @p trace with @p line_bytes cache lines.
     * Prefetch records are ignored: sharing is a property of the demand
     * reference stream. The processors are scanned concurrently
     * (parallelFor, so serially on a pool worker).
     */
    SharingAnalysis(const ParallelTrace &trace, unsigned line_bytes);

    /** Sharing class of the line containing @p addr. */
    SharingClass classOf(Addr addr) const;

    /** True iff the line containing @p addr is write-shared. */
    bool isWriteShared(Addr addr) const;

    /** @name Aggregate line counts. @{ */
    std::uint64_t numLines() const { return lines_.keys().size(); }
    std::uint64_t numPrivateLines() const { return num_private_; }
    std::uint64_t numReadSharedLines() const { return num_read_shared_; }
    std::uint64_t numWriteSharedLines() const
    {
        return num_write_shared_;
    }
    /** @} */

    /** Fraction of demand references that touch write-shared lines. */
    double writeSharedRefFraction() const;

    /** Total bytes spanned by all touched lines (data footprint). */
    std::uint64_t footprintBytes() const
    {
        return numLines() * line_bytes_;
    }

    unsigned lineBytes() const { return line_bytes_; }

  private:
    struct LineInfo
    {
        std::uint32_t toucher_mask = 0; ///< Bit per processor (<= 32).
        bool written = false;
        SharingClass cls = SharingClass::Private;
        std::uint64_t refs = 0; ///< Demand references to the line.
    };

    unsigned line_bytes_;
    FlatTable<Addr, LineInfo, AddrHash> lines_;
    std::uint64_t num_private_ = 0;
    std::uint64_t num_read_shared_ = 0;
    std::uint64_t num_write_shared_ = 0;
    std::uint64_t total_refs_ = 0;
    std::uint64_t write_shared_refs_ = 0;
};

} // namespace prefsim

#endif // PREFSIM_TRACE_SHARING_ANALYSIS_HH
