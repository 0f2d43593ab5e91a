/**
 * @file
 * Static trace linting.
 *
 * A ParallelTrace is a contract between the generators (or a trace file
 * on disk) and the simulator: sync operations must be well-formed or
 * the simulated machine deadlocks, and references must be word-aligned
 * in-range addresses or the cache arithmetic silently misattributes
 * them. The linter checks that contract without running the simulator:
 *
 *  - lock.range / barrier.range: sync ids within the declared counts;
 *  - lock.pairing: per-processor acquire/release pairing (no
 *    re-acquire of a held lock, no release of an un-held one, nothing
 *    held at trace end);
 *  - barrier.order: every processor arrives at the same barrier-id
 *    sequence (episode consistency — covers arrival-count mismatches);
 *  - barrier.deadlock / barrier.lock_held: a lock held across a
 *    barrier arrival is a guaranteed deadlock when another processor
 *    acquires that lock in a phase the holder spans (error), and
 *    suspicious otherwise (warning);
 *  - ref.alignment / ref.bounds: references word-aligned and within
 *    the simulator's address range;
 *  - instr.count: no empty instruction batches (only an in-memory
 *    trace holds one: both readers drop them);
 *  - trace.structure: a non-empty processor set.
 *
 * The rule identifiers are catalogued in docs/verification.md; findings
 * use the shared vocabulary of finding.hh.
 */

#ifndef PREFSIM_VERIFY_TRACE_LINT_HH
#define PREFSIM_VERIFY_TRACE_LINT_HH

#include <cstdint>
#include <vector>

#include "verify/finding.hh"

namespace prefsim
{

struct ParallelTrace;

namespace verify
{

/** Linted-trace summary counters (reported beside the findings). */
struct TraceLintStats
{
    std::uint64_t records = 0;
    std::uint64_t demandRefs = 0;
    std::uint64_t prefetches = 0;
    std::uint64_t syncOps = 0;
};

/** Everything one lint pass produced. */
struct TraceLintReport
{
    std::vector<Finding> findings;
    TraceLintStats stats;

    /** True when no *error* findings exist (warnings allowed). */
    bool ok() const { return !anyError(findings); }
};

/** Lint @p trace. Pure; never modifies or simulates the trace. */
TraceLintReport lintTrace(const ParallelTrace &trace);

} // namespace verify
} // namespace prefsim

#endif // PREFSIM_VERIFY_TRACE_LINT_HH
