#include "analysis/cross_validate.hh"

#include <algorithm>
#include <array>
#include <sstream>

#include "common/log.hh"
#include "obs/profile/attribution_profiler.hh"

namespace prefsim
{
namespace analysis
{

const char *
predRowName(PredRow r)
{
    switch (r) {
      case PredRow::Late:
        return "late";
      case PredRow::Useless:
        return "useless";
      case PredRow::Timely:
        return "timely";
      case PredRow::Redundant:
        return "redundant";
    }
    return "?";
}

const char *
obsColName(ObsCol c)
{
    switch (c) {
      case ObsCol::Late:
        return "late";
      case ObsCol::Useless:
        return "useless";
      case ObsCol::Timely:
        return "timely";
      case ObsCol::Other:
        return "other";
    }
    return "?";
}

std::uint64_t
ConfusionMatrix::rowSum(PredRow r) const
{
    std::uint64_t sum = 0;
    for (std::uint64_t c : cells[static_cast<std::size_t>(r)])
        sum += c;
    return sum;
}

std::uint64_t
ConfusionMatrix::colSum(ObsCol c) const
{
    std::uint64_t sum = 0;
    for (const auto &row : cells)
        sum += row[static_cast<std::size_t>(c)];
    return sum;
}

std::uint64_t
ConfusionMatrix::total() const
{
    std::uint64_t sum = 0;
    for (const auto &row : cells)
        for (std::uint64_t c : row)
            sum += c;
    return sum;
}

namespace
{

/** Reconciled per-slot decomposition: four predicted-class counts and
 *  four observed-outcome counts, both summing to the slot's issued
 *  count. */
struct Slot
{
    std::array<std::uint64_t, 4> pred = {};
    std::array<std::uint64_t, 4> obs = {};
};

std::uint64_t
takeUpTo(std::uint64_t &pool, std::uint64_t want)
{
    const std::uint64_t got = std::min(pool, want);
    pool -= got;
    return got;
}

/**
 * Reconcile one (line, processor) slot. @p counts is the static
 * prediction (zeroes when the analyzer saw no prefetch there), @p pf
 * the profiled outcome (zeroes likewise). Returns the decomposition
 * plus the uncovered-issue count via @p uncovered.
 */
Slot
reconcile(const PredictedCounts &counts, const obs::ProfilePrefetch &pf,
          std::uint64_t &uncovered)
{
    Slot s;
    s.pred[static_cast<std::size_t>(PredRow::Late)] = counts.late;
    s.pred[static_cast<std::size_t>(PredRow::Useless)] = counts.useless;
    s.pred[static_cast<std::size_t>(PredRow::Timely)] = counts.timely;
    s.pred[static_cast<std::size_t>(PredRow::Redundant)] =
        counts.redundant;

    const std::uint64_t inserted = counts.total();
    if (inserted > pf.issued) {
        // Shortfall: quiet drops (resident/duplicate — what
        // "redundant" predicts) and warmup-reset discards. Shed the
        // late prediction last: it is the claim under test.
        std::uint64_t drop = inserted - pf.issued;
        for (PredRow r : {PredRow::Redundant, PredRow::Useless,
                          PredRow::Timely, PredRow::Late}) {
            auto &cell = s.pred[static_cast<std::size_t>(r)];
            cell -= takeUpTo(drop, cell);
        }
        prefsim_assert(drop == 0, "slot drop not fully absorbed");
    } else if (pf.issued > inserted) {
        // Issues the static pass has no prediction for (pre-warmup
        // inserts reset away, or geometry drift): count them against
        // the optimistic class and flag coverage drift.
        const std::uint64_t excess = pf.issued - inserted;
        s.pred[static_cast<std::size_t>(PredRow::Timely)] += excess;
        uncovered += excess;
    }

    // Observed side. late and useful overlap in the profile (a late
    // fill still wakes its demand and gets used), so late is peeled
    // off first and only the non-late useful remainder counts as
    // timely.
    std::uint64_t rem = pf.issued;
    s.obs[static_cast<std::size_t>(ObsCol::Late)] =
        takeUpTo(rem, pf.late);
    s.obs[static_cast<std::size_t>(ObsCol::Useless)] =
        takeUpTo(rem, pf.killed + pf.displaced);
    const std::uint64_t late_useful = std::min(pf.useful, pf.late);
    s.obs[static_cast<std::size_t>(ObsCol::Timely)] =
        takeUpTo(rem, pf.useful - late_useful);
    s.obs[static_cast<std::size_t>(ObsCol::Other)] = rem;
    return s;
}

/** Fold one reconciled slot into the matrix: diagonals first, then
 *  greedy leftover pairing in fixed order (deterministic). */
void
fold(ConfusionMatrix &m, Slot s)
{
    for (const auto &[r, c] :
         {std::pair{PredRow::Late, ObsCol::Late},
          std::pair{PredRow::Useless, ObsCol::Useless},
          std::pair{PredRow::Timely, ObsCol::Timely}}) {
        auto &pred = s.pred[static_cast<std::size_t>(r)];
        auto &obs = s.obs[static_cast<std::size_t>(c)];
        const std::uint64_t hit = std::min(pred, obs);
        m.at(r, c) += hit;
        pred -= hit;
        obs -= hit;
    }
    for (PredRow r : {PredRow::Late, PredRow::Useless, PredRow::Timely,
                      PredRow::Redundant}) {
        auto &pred = s.pred[static_cast<std::size_t>(r)];
        for (ObsCol c : {ObsCol::Late, ObsCol::Useless, ObsCol::Timely,
                         ObsCol::Other}) {
            auto &obs = s.obs[static_cast<std::size_t>(c)];
            const std::uint64_t pair = std::min(pred, obs);
            m.at(r, c) += pair;
            pred -= pair;
            obs -= pair;
        }
    }
}

std::string
percent(double v)
{
    std::ostringstream os;
    os.setf(std::ios::fixed);
    os.precision(1);
    os << v * 100.0 << "%";
    return os.str();
}

} // namespace

ValidationResult
crossValidate(const QualityReport &report,
              const obs::ProfileRun &profile, double late_floor)
{
    ValidationResult result;
    result.profileLabel = profile.label;
    result.lateFloor = late_floor;

    static const PredictedCounts kNoPrediction;
    static const obs::ProfilePrefetch kNoProfile;

    // Union of slots: walk the prediction ledger, then profile slots
    // the prediction never saw.
    for (const auto &[line, procs] : report.lines) {
        const obs::ProfileLine *pl = profile.findLine(line);
        for (const auto &[proc, counts] : procs) {
            const obs::ProfilePrefetch *pf =
                pl ? pl->findPrefetch(proc) : nullptr;
            fold(result.matrix, reconcile(counts, pf ? *pf : kNoProfile,
                                          result.uncovered));
        }
    }
    std::uint64_t issued = 0;
    for (const obs::ProfileLine &pl : profile.lines) {
        const auto predicted = report.lines.find(pl.addr);
        for (const obs::ProfilePrefetch &pf : pl.prefetch) {
            issued += pf.issued;
            if (predicted != report.lines.end() &&
                predicted->second.count(pf.proc) != 0) {
                continue; // already folded above
            }
            fold(result.matrix,
                 reconcile(kNoPrediction, pf, result.uncovered));
        }
    }
    result.pfIssued = issued;

    const std::uint64_t obs_late = result.matrix.colSum(ObsCol::Late);
    result.lateRecall =
        obs_late == 0
            ? 1.0
            : static_cast<double>(
                  result.matrix.at(PredRow::Late, ObsCol::Late)) /
                  static_cast<double>(obs_late);

    if (result.matrix.total() != issued) {
        result.findings.push_back(
            {"analysis.drift.totals", verify::Severity::Error,
             "confusion-matrix total " +
                 std::to_string(result.matrix.total()) +
                 " != profiled issued prefetches " +
                 std::to_string(issued),
             profile.label});
    }
    if (result.lateRecall < late_floor) {
        result.findings.push_back(
            {"analysis.drift.late_recall", verify::Severity::Error,
             "predicted-late recall " + percent(result.lateRecall) +
                 " below floor " + percent(late_floor) + " (" +
                 std::to_string(
                     result.matrix.at(PredRow::Late, ObsCol::Late)) +
                 "/" + std::to_string(obs_late) +
                 " observed-late prefetches predicted)",
             profile.label});
    }
    if (result.uncovered > 0) {
        result.findings.push_back(
            {"analysis.drift.coverage", verify::Severity::Warning,
             std::to_string(result.uncovered) +
                 " issued prefetches had no static prediction "
                 "(warmup reset or geometry drift)",
             profile.label});
    }
    return result;
}

const obs::ProfileRun *
findProfileRun(const std::vector<obs::ProfileRun> &runs,
               const std::string &label)
{
    for (const obs::ProfileRun &run : runs) {
        if (run.label == label && !run.skipped)
            return &run;
    }
    return nullptr;
}

} // namespace analysis
} // namespace prefsim
