/**
 * @file
 * Structural checks over prefsim's telemetry documents: the library
 * behind tools/validate_telemetry.
 *
 * A document is strict-parsed (common/json.hh, the parser the result
 * cache uses to detect corruption) and dispatched on its schema:
 *
 *  - prefsim-telemetry-v1 (--metrics-out) must carry the sweep stage
 *    counters/timings, and any histogram present must be internally
 *    consistent (counts match bounds, bucket totals + under/overflow
 *    == count, the summary block agrees with the raw buckets);
 *  - prefsim-timeseries-v1 (--timeseries-out) must have interval >= 1
 *    per run, a strictly increasing cycle column, every column the
 *    advertised sample count long, per-window widths >= 1 that sum to
 *    the covered span, and proc_columns shaped [procs][samples];
 *  - prefsim-profile-v1 (--profile-out) and prefsim-critpath-v1
 *    (--critpath-out) are read with their formats' strict readers
 *    (obs::readProfileJson, obs::readCritPathJson), which enforce the
 *    shape, ordering and derived-field contracts; the typed runs must
 *    then hold the profile's per-line invariants, and the critical
 *    path's per-class cycles must sum to its length, with what-if
 *    speedups >= 1.0, predicted cycles <= the measured total and a
 *    chain of non-overlapping segments in ascending time order;
 *  - prefsim-analysis-v1 (prefsim_analyze --json) must sum its
 *    per-class prefetch counts back to the run total, list ledger
 *    lines in strictly ascending address order, carry well-formed
 *    dotted rule ids on every finding, and — when a validation block
 *    is present — have confusion-matrix cells that sum exactly to the
 *    profiled issued-prefetch count;
 *  - runs in the three per-run documents may instead carry
 *    `"skipped": "cache-hit"` — the sweep loaded that point from the
 *    result cache and never simulated it;
 *  - a Chrome trace-event document (--trace-out): a traceEvents array
 *    whose synchronous B/E events pair up in stack order per
 *    (pid, tid), whose async b/e events pair by (cat, id, scope), and
 *    whose timestamps are monotone per pid.
 *
 * Violations use the telemetry.* rules of the shared verification
 * vocabulary (finding.hh). A missing member or a wrong-kind value (an
 * unsigned field holding "-1", "1.5" or a string) is telemetry.schema;
 * a format's own structural breach is that format's rule.
 */

#ifndef PREFSIM_VERIFY_TELEMETRY_CHECK_HH
#define PREFSIM_VERIFY_TELEMETRY_CHECK_HH

#include <cstdint>
#include <optional>
#include <string>

#include "verify/finding.hh"

namespace prefsim
{
namespace verify
{

/** The outcome of checking one document. */
struct TelemetryCheck
{
    /** The first violation found; empty when the document holds. */
    std::optional<Finding> violation;
    /** "<kind> ok: PATH (...)" when the document holds. */
    std::string okLine;
    /** Events (metadata excluded) of a Chrome trace; 0 otherwise. */
    std::uint64_t traceEvents = 0;
};

/** Check @p text, the content of the file @p path (which only labels
 *  the finding and the ok line). */
TelemetryCheck checkTelemetry(const std::string &text,
                              const std::string &path);

} // namespace verify
} // namespace prefsim

#endif // PREFSIM_VERIFY_TELEMETRY_CHECK_HH
