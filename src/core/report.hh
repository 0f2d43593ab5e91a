/**
 * @file
 * Post-hoc analysis over sweep artifacts: paper-style reports and the
 * perf-regression compare gate behind tools/prefsim_report.
 *
 * Report mode consumes a sweep cache directory (the *.json documents
 * written by the result cache) without re-running anything: each
 * document embeds its run label ("topopt-r/PWS@8"), which carries the
 * workload, restructuring, strategy and bus data-transfer latency —
 * everything the paper's presentation axes need. From those artifacts
 * the writers reproduce Figure 2 (execution-time components relative
 * to NP), Table 2 (bus utilisation, with drift against the paper's
 * transcribed values) and Table 3 (invalidation / false-sharing miss
 * rates; the paper's Table 3 numbers are not legible in the available
 * copy, so that report is measured-only).
 *
 * Compare mode diffs two `prefsim-bench-simcore-v1` documents (the
 * checked-in BENCH_simcore.json baseline vs a fresh scripts/
 * bench_perf.sh run) and reports regressions as verify Findings,
 * sharing the verification subsystem's severity and exit-code
 * vocabulary so check.sh can gate on it. The gate is on same-run engine
 * speedups, in which host speed cancels; absolute throughput only
 * warns.
 */

#ifndef PREFSIM_CORE_REPORT_HH
#define PREFSIM_CORE_REPORT_HH

#include <cstddef>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hh"
#include "prefetch/strategy.hh"
#include "sim/sim_stats.hh"
#include "trace/workload.hh"
#include "verify/finding.hh"

namespace prefsim
{
namespace report
{

/** One simulation run recovered from a sweep cache document. */
struct RunArtifact
{
    std::string label; ///< e.g. "topopt-r/PWS@8" (verbatim).
    WorkloadKind workload = WorkloadKind::Topopt;
    bool restructured = false;
    Strategy strategy = Strategy::NP;
    Cycle dataTransfer = 0; ///< Bus data-transfer latency (cycles).
    SimStats sim;
};

/**
 * Parse a sweep run label ("water/PREF@16", "pverify-r/NP@4") into its
 * axes. Returns nullopt — never fatal()s — on labels that do not match
 * the sweep engine's scheme, so a cache directory can hold unrelated
 * files. The sim field of the result is left empty.
 */
std::optional<RunArtifact> parseRunLabel(const std::string &label);

/** Every parseable run found under one cache directory. */
struct RunSet
{
    std::vector<RunArtifact> runs;
    std::size_t filesScanned = 0; ///< *.json files examined.
    std::size_t filesSkipped = 0; ///< Not sweep results (or unlabeled).
};

/**
 * Load every `prefsim-sweep-result-v1` document under @p dir (flat,
 * non-recursive — the cache layout). Files that fail to parse or whose
 * labels are not sweep labels are counted in filesSkipped, not errors:
 * report tools point at whatever directory a bench run left behind.
 * Runs are sorted by (workload, restructured, dataTransfer, strategy)
 * so every report is deterministic regardless of directory order.
 */
RunSet loadRunDirectory(const std::string &dir);

/** @name Paper-style report writers.
 * Each groups the RunSet by (workload, restructured, dataTransfer) and
 * prints one table; groups missing their NP baseline are skipped where
 * a relative metric needs one. @{ */

/** Figure 2: execution-time components, normalised to NP = 100. */
void writeFig2Report(std::ostream &os, const RunSet &rs);

/** Table 2: bus utilisation, with paper values and drift where the
 *  paper transcription (core/paper_reference.hh) has the point. */
void writeTable2Report(std::ostream &os, const RunSet &rs);

/** Table 3: total / invalidation / false-sharing miss rates. */
void writeTable3Report(std::ostream &os, const RunSet &rs);
/** @} */

/** Thresholds of the perf-regression gate (fractions, not percent). */
struct CompareOptions
{
    /** A loss below this is noise; at or above it, a warning. */
    double warnFrac = 0.02;
    /** A speedup loss at or above this is an error (check.sh fails). */
    double failFrac = 0.10;
};

/** One matched run in a baseline-vs-fresh comparison. */
struct CompareRow
{
    std::string label;
    double baselineCyclesPerSec = 0.0; ///< sim_cycles / sim_only_s.
    double freshCyclesPerSec = 0.0;
    /** Fractional throughput change; negative = regression. */
    double delta = 0.0;
};

/** One same-run engine speedup (a top-level `speedup_*` member). */
struct SpeedupRow
{
    std::string key; ///< e.g. "speedup_fig2_sim".
    double baseline = 0.0;
    double fresh = 0.0;
    /** Fractional change; negative = regression. */
    double delta = 0.0;
};

/** Outcome of compareBenchReports: rows for display, findings to gate. */
struct CompareReport
{
    std::vector<CompareRow> rows;
    std::vector<SpeedupRow> speedups;
    std::vector<verify::Finding> findings;
};

/**
 * Diff two `prefsim-bench-simcore-v1` documents. The gate metric is
 * each same-run engine speedup (`speedup_fig2_sim`, `speedup_micro3_sim`:
 * cycle-loop over local-clock sim-only time), because host drift
 * between runs cancels within one run. Per-run sim-only throughput
 * (sim_cycles / sim_only_s) is shown too but only warns. Findings:
 * malformed documents, runs or speedups missing from @p fresh_text are
 * errors (rule "perf.schema" / "perf.missing_run"); a speedup loss in
 * [warnFrac, failFrac) warns and one >= failFrac errors (rule
 * "perf.regression"); a throughput loss >= warnFrac warns (rule
 * "perf.throughput"); benchmark-configuration mismatches (refs_per_proc,
 * a run's procs, a baseline without speedups) warn (rule "perf.config")
 * since the comparison is then not apples-to-apples. Use
 * verify::findingsExitCode for the 0/1 gate; reserve verify::kExitUsage
 * for unreadable files.
 */
CompareReport compareBenchReports(const std::string &baseline_text,
                                  const std::string &fresh_text,
                                  const CompareOptions &opts = {});

} // namespace report
} // namespace prefsim

#endif // PREFSIM_CORE_REPORT_HH
