/**
 * @file
 * Per-processor trace building shared by the workload generators.
 */

#ifndef PREFSIM_TRACE_BUILDER_HH
#define PREFSIM_TRACE_BUILDER_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "common/types.hh"
#include "trace/trace.hh"

namespace prefsim
{

/**
 * An always-miss reference stream confined to a small cache-set window.
 *
 * Each next() returns a line never touched before, so the access is a
 * guaranteed non-sharing miss (a controllable stand-in for the conflict
 * and capacity misses of structures we do not model word-for-word). The
 * stream cycles through a fixed window of sets, so its evictions only
 * disturb its own corner of the cache rather than sweeping hot data.
 */
class ColdStream
{
  public:
    /**
     * @param base Starting address (start of the set window).
     * @param window_lines Number of consecutive lines cycled through.
     * @param line_bytes Cache line size.
     */
    explicit ColdStream(Addr base, unsigned window_lines = 64,
                        unsigned line_bytes = 32)
        : base_(base), window_(window_lines), line_(line_bytes)
    {}

    /** Next cold address (fresh line, same set window). */
    Addr
    next()
    {
        const std::uint64_t slot = count_ % window_;
        const std::uint64_t wrap = count_ / window_;
        ++count_;
        // Same set window each wrap, but a fresh tag: stride one full
        // cache (window * sets... conservatively 1 MB) per wrap.
        return base_ + slot * line_ + wrap * 0x100000;
    }

  private:
    Addr base_;
    std::uint64_t window_;
    std::uint64_t line_;
    std::uint64_t count_ = 0;
};

/**
 * A recurring conflict-miss stream: a small pool of lines that alias to
 * the same cache sets (tags cycling one cache apart).
 *
 * On the paper's direct-mapped cache every access misses — each set's
 * tags evict each other — but unlike a ColdStream these misses are
 * *organisational*: a victim cache or set associativity absorbs them
 * (exactly the §4.3 suggestion). Used for Topopt's netlist-scratch
 * conflicts.
 */
class ConflictStream
{
  public:
    /**
     * @param base Start of the aliasing set window.
     * @param window_lines Sets cycled through per round.
     * @param tags Distinct tags per set (>= 2 to conflict).
     * @param line_bytes Cache line size.
     * @param cache_bytes Cache capacity (tag stride).
     */
    explicit ConflictStream(Addr base, unsigned window_lines = 4,
                            unsigned tags = 2, unsigned line_bytes = 32,
                            unsigned cache_bytes = 32 * 1024)
        : base_(base), window_(window_lines), tags_(tags),
          line_(line_bytes), cache_(cache_bytes)
    {}

    /** Next conflicting address (same set window, rotating tags). */
    Addr
    next()
    {
        const std::uint64_t slot = count_ % window_;
        const std::uint64_t tag = (count_ / window_) % tags_;
        ++count_;
        return base_ + slot * line_ + tag * cache_;
    }

  private:
    Addr base_;
    std::uint64_t window_;
    std::uint64_t tags_;
    std::uint64_t line_;
    std::uint64_t cache_;
    std::uint64_t count_ = 0;
};

/**
 * Emits one processor's records, either counting them or filling a
 * trace.
 *
 * Generators express work as compute bursts plus reads/writes; the
 * builder takes care of record packing. A counting builder stores
 * nothing: it tracks how many records the same calls would leave in a
 * Trace, Instr coalescing included, so buildProcs can size each
 * processor's buffer exactly before filling it.
 */
class ProcTraceBuilder
{
  public:
    /** A counting builder for processor @p proc. */
    ProcTraceBuilder(ProcId proc, std::uint64_t seed)
        : proc_(proc), rng_(seed ^ (0x517cc1b727220a95ULL * (proc + 1)))
    {}

    /** A builder appending processor @p proc's records to @p buffer
     *  (empty, its capacity reserved). */
    ProcTraceBuilder(ProcId proc, std::uint64_t seed, Trace buffer)
        : ProcTraceBuilder(proc, seed)
    {
        trace_ = std::move(buffer);
        filling_ = true;
    }

    /** @name Emission. @{ */
    void
    compute(std::uint32_t instrs)
    {
        if (filling_) {
            trace_.appendInstrs(instrs);
        } else if (instrs != 0) {
            if (tail_instrs_ == 0 || !foldsInstrs(tail_instrs_, instrs)) {
                ++size_;
                tail_instrs_ = 0;
            }
            tail_instrs_ += instrs;
        }
    }

    void read(Addr a) { emit(TraceRecord::read(a)); }
    void write(Addr a) { emit(TraceRecord::write(a)); }

    /** Read @p words consecutive words starting at @p a. */
    void
    readRun(Addr a, unsigned words)
    {
        for (unsigned i = 0; i < words; ++i)
            read(a + std::uint64_t{i} * kWordBytes);
    }

    /** Write @p words consecutive words starting at @p a. */
    void
    writeRun(Addr a, unsigned words)
    {
        for (unsigned i = 0; i < words; ++i)
            write(a + std::uint64_t{i} * kWordBytes);
    }

    void lock(SyncId id) { emit(TraceRecord::lockAcquire(id)); }
    void unlock(SyncId id) { emit(TraceRecord::lockRelease(id)); }
    void barrier(SyncId id) { emit(TraceRecord::barrier(id)); }
    /** @} */

    /** Records emitted so far. */
    std::size_t size() const { return filling_ ? trace_.size() : size_; }

    ProcId proc() const { return proc_; }
    Rng &rng() { return rng_; }

    /** The filled trace. */
    Trace &&takeTrace() && { return std::move(trace_); }

  private:
    /** Emit a record that is not an Instr batch. */
    void
    emit(const TraceRecord &r)
    {
        if (filling_) {
            trace_.records().push_back(r);
        } else {
            ++size_;
            tail_instrs_ = 0;
        }
    }

    ProcId proc_;
    Rng rng_;
    /** Filling: the trace being filled, in this object (so on the
     *  building thread's stack, not beside the other processors'). */
    Trace trace_;
    bool filling_ = false;
    /** Counting: records so far, and the count of the trailing Instr
     *  record (0 when the last record is not one). */
    std::size_t size_ = 0;
    std::uint32_t tail_instrs_ = 0;
};

/**
 * Build @p procs processor traces into @p out.procs: processor p's
 * trace holds the records @p body emits through a ProcTraceBuilder for
 * p, seeded from @p seed.
 *
 * The processors are built concurrently (parallelFor, so in processor
 * order on a pool worker), twice: once counting, once filling a buffer
 * this thread reserved at exactly the counted size. Growing the traces
 * on the helper threads instead would strand the growth garbage in
 * their malloc arenas and leave doubling slack in every base trace,
 * which lives as long as its sweep. @p body must emit the same records
 * on both calls, and may only read state it shares with the other
 * processors' calls.
 */
template <typename Body>
void
buildProcs(ParallelTrace &out, unsigned procs, std::uint64_t seed,
           const Body &body)
{
    std::vector<std::size_t> sizes(procs);
    parallelFor(procs, [&](std::size_t p) {
        ProcTraceBuilder b(static_cast<ProcId>(p), seed);
        body(b);
        sizes[p] = b.size();
    });
    out.procs.assign(procs, Trace{});
    for (std::size_t p = 0; p < procs; ++p)
        out.procs[p].reserve(sizes[p]);
    parallelFor(procs, [&](std::size_t p) {
        ProcTraceBuilder b(static_cast<ProcId>(p), seed,
                           std::move(out.procs[p]));
        body(b);
        prefsim_assert(b.size() == sizes[p], "processor ", p, " emitted ",
                       b.size(), " records after counting ", sizes[p]);
        out.procs[p] = std::move(b).takeTrace();
    });
}

} // namespace prefsim

#endif // PREFSIM_TRACE_BUILDER_HH
