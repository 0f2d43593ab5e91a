/**
 * @file
 * Per-processor trace building helper shared by the workload generators.
 */

#ifndef PREFSIM_TRACE_BUILDER_HH
#define PREFSIM_TRACE_BUILDER_HH

#include <cstdint>

#include "common/rng.hh"
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
 * Emits records into one processor's Trace with running counters.
 *
 * Generators express work as compute bursts plus reads/writes; the builder
 * takes care of record packing and reference accounting.
 */
class ProcTraceBuilder
{
  public:
    ProcTraceBuilder(ProcId proc, std::uint64_t seed)
        : proc_(proc), rng_(seed ^ (0x517cc1b727220a95ULL * (proc + 1)))
    {}

    /** @name Emission. @{ */
    void compute(std::uint32_t instrs) { trace_.appendInstrs(instrs); }

    void
    read(Addr a)
    {
        trace_.append(TraceRecord::read(a));
        ++refs_;
    }

    void
    write(Addr a)
    {
        trace_.append(TraceRecord::write(a));
        ++refs_;
    }

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

    void lock(SyncId id) { trace_.append(TraceRecord::lockAcquire(id)); }
    void unlock(SyncId id) { trace_.append(TraceRecord::lockRelease(id)); }
    void barrier(SyncId id) { trace_.append(TraceRecord::barrier(id)); }
    /** @} */

    /** Demand references emitted so far. */
    std::uint64_t refs() const { return refs_; }

    ProcId proc() const { return proc_; }
    Rng &rng() { return rng_; }
    /** The finished trace, trimmed to its size: a base trace lives as
     *  long as its sweep, and doubling growth leaves a third of its
     *  capacity idle on average. */
    Trace &&
    takeTrace() &&
    {
        trace_.records().shrink_to_fit();
        return std::move(trace_);
    }
    const Trace &trace() const { return trace_; }

  private:
    ProcId proc_;
    Rng rng_;
    Trace trace_;
    std::uint64_t refs_ = 0;
};

} // namespace prefsim

#endif // PREFSIM_TRACE_BUILDER_HH
