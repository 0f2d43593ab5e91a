/**
 * @file
 * Cross-validation of the static prefetch-quality prediction against
 * the simulator's attribution profile (`prefsim-profile-v1`).
 *
 * The static pass (prefetch_quality.hh) predicts, per (line,
 * processor), how many inserted prefetches end up timely / late /
 * useless / redundant. The profiler records what actually happened on
 * the simulated machine: how many went to the bus (`issued`), how many
 * a demand caught in flight (`late`), how many were invalidated or
 * evicted before first use (`killed` + `displaced`), how many were
 * used (`useful`). This module confronts the two, slot by slot, and
 * folds the result into one 4x4 confusion matrix:
 *
 *          observed:   late   useless   timely   other
 *   predicted late
 *   predicted useless
 *   predicted timely
 *   predicted redundant
 *
 * The two sides do not count the same population: the profiler only
 * sees prefetches that reached the bus (predicted-redundant ones are
 * mostly dropped quietly as resident/duplicate and never issue), and
 * the warmup statistics reset discards early issues. Per slot the
 * predicted counts are therefore *reconciled* to the issued count
 * first — shortfall is dropped in the order redundant, useless,
 * timely, late (quiet drops are exactly what "redundant" predicts;
 * late is the prediction we are testing, so it is shed last), and
 * excess issues with no matching prediction are counted as predicted
 * timely plus an `analysis.drift.coverage` warning. The observed side
 * decomposes `issued` as late first (late and useful overlap in the
 * profile: a late fill still gets used), then killed+displaced as
 * useless, then the remaining useful as timely, remainder "other".
 * Diagonal cells are matched first; leftovers pair greedily. By
 * construction the matrix total equals the profile's issued-prefetch
 * count exactly — `analysis.drift.totals` (error) is the self-check.
 *
 * The headline drift number is late recall: of the prefetches the
 * simulator observed to be late, the fraction the static pass
 * predicted late. `analysis.drift.late_recall` (error) fires when it
 * falls below the caller's floor.
 */

#ifndef PREFSIM_ANALYSIS_CROSS_VALIDATE_HH
#define PREFSIM_ANALYSIS_CROSS_VALIDATE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/prefetch_quality.hh"
#include "verify/finding.hh"

namespace prefsim
{

namespace obs
{
struct ProfileRun;
}

namespace analysis
{

/** Confusion-matrix row: the static prediction. */
enum class PredRow : std::uint8_t
{
    Late,
    Useless,
    Timely,
    Redundant
};

/** Confusion-matrix column: the profiled (observed) outcome. */
enum class ObsCol : std::uint8_t
{
    Late,    ///< A demand attached while the fill was in flight.
    Useless, ///< Killed or displaced before first use.
    Timely,  ///< Used, and not late.
    Other    ///< Issued but unresolved (still in flight at run end).
};

const char *predRowName(PredRow r);
const char *obsColName(ObsCol c);

/** Predicted-class x observed-outcome counts over issued prefetches. */
struct ConfusionMatrix
{
    static constexpr std::size_t kRows = 4;
    static constexpr std::size_t kCols = 4;

    std::uint64_t cells[kRows][kCols] = {};

    std::uint64_t &
    at(PredRow r, ObsCol c)
    {
        return cells[static_cast<std::size_t>(r)]
                    [static_cast<std::size_t>(c)];
    }

    std::uint64_t
    at(PredRow r, ObsCol c) const
    {
        return cells[static_cast<std::size_t>(r)]
                    [static_cast<std::size_t>(c)];
    }

    std::uint64_t rowSum(PredRow r) const;
    std::uint64_t colSum(ObsCol c) const;
    std::uint64_t total() const;
};

/** Everything one cross-validation produced. */
struct ValidationResult
{
    std::string profileLabel;
    /** Issued prefetches in the profile (== matrix.total()). */
    std::uint64_t pfIssued = 0;
    /** Issues with no matching static prediction (coverage drift). */
    std::uint64_t uncovered = 0;
    ConfusionMatrix matrix;
    /** matrix[late][late] / colSum(late); 1.0 when nothing was
     *  observed late. */
    double lateRecall = 1.0;
    /** The floor lateRecall was checked against. */
    double lateFloor = 0.0;
    /** analysis.drift.* findings. */
    std::vector<verify::Finding> findings;

    bool
    ok() const
    {
        return !verify::anyError(findings);
    }
};

/**
 * Confront prediction @p report with ground truth @p profile.
 * @p late_floor is the minimum acceptable late recall.
 */
ValidationResult crossValidate(const QualityReport &report,
                               const obs::ProfileRun &profile,
                               double late_floor);

/** Find a loaded run by label; nullptr when absent or skipped. */
const obs::ProfileRun *
findProfileRun(const std::vector<obs::ProfileRun> &runs,
               const std::string &label);

} // namespace analysis
} // namespace prefsim

#endif // PREFSIM_ANALYSIS_CROSS_VALIDATE_HH
