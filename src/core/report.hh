/**
 * @file
 * The perf-regression compare gate behind tools/prefsim_report.
 *
 * compareBenchReports diffs two `prefsim-bench-simcore-v1` documents
 * (the checked-in BENCH_simcore.json baseline vs a fresh scripts/
 * bench_perf.sh run) and reports regressions as verify Findings,
 * sharing the verification subsystem's severity and exit-code
 * vocabulary so check.sh can gate on it. The gate is on same-run engine
 * speedups, in which host speed cancels; absolute throughput only
 * warns.
 *
 * The paper's tables are rendered by prefsim_repro's registry
 * (bench/experiments.hh), which re-renders from a warm --cache-dir
 * without simulating.
 */

#ifndef PREFSIM_CORE_REPORT_HH
#define PREFSIM_CORE_REPORT_HH

#include <string>
#include <vector>

#include "verify/finding.hh"

namespace prefsim
{
namespace report
{

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
