/**
 * @file
 * The off-line prefetch insertion pass (paper §3.1, §4.1).
 *
 * Emulates the "ideal" of compiler-directed prefetching: an oracle that
 * perfectly predicts non-sharing misses (scalars and arrays, leading
 * references, capacity and conflict misses) and never prefetches data
 * that is not used. Candidates come from a uniprocessor filter cache of
 * the simulated cache's geometry; each selected access gets a prefetch
 * record inserted *prefetch distance* estimated cycles upstream.
 *
 * Strategy knobs:
 *  - EXCL turns prefetches covering predicted write misses into exclusive
 *    (read-for-ownership) prefetches;
 *  - LPD stretches the insertion distance;
 *  - PWS additionally runs each processor's references to write-shared
 *    lines through a small associative filter and prefetches its misses
 *    even when the main filter predicts a hit — redundant prefetches that
 *    target invalidation misses.
 */

#ifndef PREFSIM_PREFETCH_INSERTER_HH
#define PREFSIM_PREFETCH_INSERTER_HH

#include <cstdint>

#include "common/cache_geometry.hh"
#include "prefetch/strategy.hh"
#include "trace/trace.hh"

namespace prefsim
{

/** Aggregate accounting of one annotation pass. */
struct AnnotateStats
{
    /** Filter-cache (non-sharing) prefetch candidates. */
    std::uint64_t oracleCandidates = 0;
    /** Additional PWS candidates (write-shared, poor temporal locality).*/
    std::uint64_t pwsCandidates = 0;
    /** Prefetch records actually inserted (after de-duplication). */
    std::uint64_t inserted = 0;
    /** Of those, exclusive-mode prefetches. */
    std::uint64_t insertedExclusive = 0;
    /** Exclusive prefetches selected by the read-then-write detector. */
    std::uint64_t rtwExclusive = 0;
    /** Candidates dropped because the line is shared and the target is
     *  a non-snooping prefetch buffer (privateLinesOnly). */
    std::uint64_t droppedShared = 0;
    /** Demand references examined. */
    std::uint64_t demandRefs = 0;

    /** Prefetches per demand reference — the code-expansion overhead. */
    double
    overheadRatio() const
    {
        return demandRefs ? static_cast<double>(inserted) /
                                static_cast<double>(demandRefs)
                          : 0.0;
    }
};

/** An annotated trace plus the pass accounting. */
struct AnnotatedTrace
{
    ParallelTrace trace;
    AnnotateStats stats;
};

/**
 * Produce a copy of @p input with prefetch records inserted according to
 * @p params, for caches of geometry @p geom.
 *
 * With params.enabled == false the trace is returned unmodified (NP).
 * Processors are annotated concurrently (parallelFor, so serially when
 * called on a ThreadPool worker); the result is the same either way.
 */
AnnotatedTrace annotateTrace(const ParallelTrace &input,
                             const StrategyParams &params,
                             const CacheGeometry &geom);

/** Convenience overload using the paper's parameters for @p strategy. */
AnnotatedTrace annotateTrace(const ParallelTrace &input, Strategy strategy,
                             const CacheGeometry &geom);

} // namespace prefsim

#endif // PREFSIM_PREFETCH_INSERTER_HH
