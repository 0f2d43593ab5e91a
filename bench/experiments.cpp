/**
 * @file
 * The registry of the reproduction's experiments (bench/experiments.hh):
 * one namespace per experiment, holding its enqueue() and render().
 */

#include "bench/experiments.hh"

#include <algorithm>
#include <optional>

#include "common/log.hh"
#include "core/paper_reference.hh"
#include "stats/csv.hh"
#include "stats/table.hh"
#include "trace/trace_stats.hh"

namespace prefsim
{
namespace
{

/** The paper's default data-transfer latency (Figures 1 and 3,
 *  Tables 3 and 4, the ablations). */
constexpr Cycle kTransfer = 8;

/** @p num / @p den, or 0 when @p den is 0. */
double
ratio(std::uint64_t num, std::uint64_t den)
{
    return den ? static_cast<double>(num) / static_cast<double>(den)
               : 0.0;
}

/** Format a measured/paper pair: "0.27 (0.27)". */
std::string
withPaper(double measured, std::optional<double> reference, int prec = 2)
{
    std::string s = TextTable::num(measured, prec);
    if (reference)
        s += " (" + TextTable::num(*reference, prec) + ")";
    return s;
}

/** The false-sharing-heavy workloads of the block-size comparisons. */
const std::vector<WorkloadKind> kSharingWorkloads = {WorkloadKind::Topopt,
                                                     WorkloadKind::Pverify};

/** NP at T=8 on 32 KB direct-mapped caches with @p line_bytes lines. */
ExperimentSpec
lineSpec(const SweepEngine &bench, WorkloadKind w, std::uint32_t line_bytes)
{
    ExperimentSpec spec = bench.makeSpec(w, false, Strategy::NP, kTransfer);
    spec.geometry = CacheGeometry(32 * 1024, line_bytes, 1);
    return spec;
}

/** The workloads with a restructured variant (Tables 4 and 5). */
std::vector<WorkloadKind>
restructurable()
{
    std::vector<WorkloadKind> out;
    for (WorkloadKind w : allWorkloads()) {
        if (hasRestructuredVariant(w))
            out.push_back(w);
    }
    return out;
}

/**
 * Paper Table 1: "Workload used in experiments".
 *
 * The paper's table lists each program's data set, shared-data size and
 * process count (the scanned copy is partially illegible; see DESIGN.md
 * substitution 3). We report the measurable equivalents for the
 * synthetic workloads: reference volume, read/write mix, footprints,
 * sharing content and synchronisation density. No simulation: the
 * table reads the engine's generated traces.
 */
namespace table1_workloads
{

void
enqueue(SweepEngine &)
{
}

void
render(SweepEngine &bench, bool, std::ostream &os)
{
    const WorkloadParams &params = bench.params();
    os << "=== Table 1: workload characteristics (" << params.numProcs
       << " processes, ~" << params.refsPerProc
       << " refs/proc requested) ===\n\n";

    TextTable t({"program", "refs/proc", "writes", "footprint KB",
                 "shared KB", "wr-shared KB", "wr-shared refs", "locks",
                 "barriers"});
    for (WorkloadKind w : allWorkloads()) {
        const ParallelTrace &trace = bench.baseTrace(w, false);
        const TraceStats s =
            computeTraceStats(trace, bench.geometry().lineBytes());
        t.addRow({workloadName(w),
                  TextTable::count(s.totalRefs / s.numProcs),
                  TextTable::percent(s.writeFraction()),
                  TextTable::num(s.footprintBytes / 1024.0, 1),
                  TextTable::num(s.sharedFootprintBytes / 1024.0, 1),
                  TextTable::num(s.writeSharedFootprintBytes / 1024.0, 1),
                  TextTable::percent(s.writeSharedRefFraction),
                  TextTable::count(s.lockAcquires),
                  TextTable::count(s.barriersCrossed)});
    }
    t.print(os);

    os << "\nRestructured variants (Tables 4/5 inputs):\n";
    TextTable r({"program", "footprint KB", "wr-shared KB",
                 "wr-shared refs"});
    for (WorkloadKind w : restructurable()) {
        const ParallelTrace &trace = bench.baseTrace(w, true);
        const TraceStats s =
            computeTraceStats(trace, bench.geometry().lineBytes());
        r.addRow({trace.name,
                  TextTable::num(s.footprintBytes / 1024.0, 1),
                  TextTable::num(s.writeSharedFootprintBytes / 1024.0, 1),
                  TextTable::percent(s.writeSharedRefFraction)});
    }
    r.print(os);
}

} // namespace table1_workloads

/**
 * Paper Figure 1: "Total and CPU Miss Rates for the Five Workloads"
 * (8-cycle data-transfer latency).
 *
 * For every workload x prefetching strategy: the total miss rate, the
 * CPU miss rate and the adjusted CPU miss rate (excluding accesses that
 * merely wait for a prefetch already in progress).
 */
namespace fig1_miss_rates
{

void
enqueue(SweepEngine &bench)
{
    bench.enqueueGrid(allWorkloads(), {false}, allStrategies(),
                      {kTransfer});
}

void
render(SweepEngine &bench, bool csv, std::ostream &os)
{
    if (csv) {
        CsvWriter w(os);
        w.row({"workload", "strategy", "total_mr", "cpu_mr",
               "adjusted_cpu_mr"});
        for (WorkloadKind wk : allWorkloads()) {
            for (Strategy s : allStrategies()) {
                const auto &r = bench.run(wk, false, s, kTransfer);
                w.row({workloadName(wk), strategyName(s),
                       TextTable::num(r.sim.totalMissRate(), 5),
                       TextTable::num(r.sim.cpuMissRate(), 5),
                       TextTable::num(r.sim.adjustedCpuMissRate(), 5)});
            }
        }
        return;
    }

    os << "=== Figure 1: miss rates at T=8 (per demand reference) "
          "===\n\n";

    TextTable t({"workload", "strategy", "total MR", "CPU MR",
                 "adjusted CPU MR", "CPU MR vs NP", "adj MR vs NP"});
    for (WorkloadKind w : allWorkloads()) {
        const auto &np = bench.run(w, false, Strategy::NP, kTransfer);
        for (Strategy s : allStrategies()) {
            const auto &r = bench.run(w, false, s, kTransfer);
            const double cpu_vs_np =
                r.sim.cpuMissRate() / np.sim.cpuMissRate() - 1.0;
            const double adj_vs_np =
                r.sim.adjustedCpuMissRate() /
                    np.sim.adjustedCpuMissRate() -
                1.0;
            t.addRow({workloadName(w), strategyName(s),
                      TextTable::percent(r.sim.totalMissRate(), 2),
                      TextTable::percent(r.sim.cpuMissRate(), 2),
                      TextTable::percent(r.sim.adjustedCpuMissRate(), 2),
                      s == Strategy::NP
                          ? "-"
                          : TextTable::percent(cpu_vs_np, 0),
                      s == Strategy::NP
                          ? "-"
                          : TextTable::percent(adj_vs_np, 0)});
        }
        t.addRule();
    }
    t.print(os);

    os << "\npaper bands: PREF cuts CPU MR 37-71% (38-77% "
          "adjusted); PWS 57-80% (59-94% adjusted); total MR "
          "rises for every prefetching strategy.\n";
}

} // namespace fig1_miss_rates

/**
 * Paper Table 2: "Selected bus utilizations".
 *
 * Data-bus utilisation for every workload under every prefetching
 * strategy across the data-transfer latency sweep {4, 8, 16, 32}.
 * The paper's transcribed values are printed alongside for comparison.
 *
 * Expected shape: utilisation rises with prefetching for every workload
 * and every latency (prefetching always increases bus demand), and the
 * miss-heavy workloads (Mp3d, Pverify) saturate on slow buses.
 */
namespace table2_bus_util
{

void
enqueue(SweepEngine &bench)
{
    bench.enqueueGrid(allWorkloads(), {false}, allStrategies(),
                      paperTransferLatencies());
}

void
render(SweepEngine &bench, bool csv, std::ostream &os)
{
    if (csv) {
        CsvWriter w(os);
        w.row({"workload", "strategy", "transfer", "bus_util",
               "paper_bus_util"});
        for (WorkloadKind wk : allWorkloads()) {
            for (Strategy s : allStrategies()) {
                for (Cycle lat : paperTransferLatencies()) {
                    const auto &r = bench.run(wk, false, s, lat);
                    const auto ref = paper::busUtilization(wk, s, lat);
                    w.row({workloadName(wk), strategyName(s),
                           std::to_string(lat),
                           TextTable::num(r.sim.busUtilization(), 4),
                           ref ? TextTable::num(*ref, 2) : ""});
                }
            }
        }
        return;
    }

    os << "=== Table 2: data-bus utilization "
          "(measured, paper value in parentheses) ===\n\n";

    TextTable t({"workload", "strategy", "T=4", "T=8", "T=16", "T=32"});
    for (WorkloadKind w : allWorkloads()) {
        for (Strategy s : allStrategies()) {
            std::vector<std::string> row = {workloadName(w),
                                            strategyName(s)};
            for (Cycle lat : paperTransferLatencies()) {
                const auto &r = bench.run(w, false, s, lat);
                row.push_back(withPaper(r.sim.busUtilization(),
                                        paper::busUtilization(w, s, lat)));
            }
            t.addRow(std::move(row));
        }
        t.addRule();
    }
    t.print(os);
}

} // namespace table2_bus_util

/**
 * Paper Figure 2: "Execution times (relative to no prefetching) for the
 * five workloads and each prefetching strategy", plotted against
 * data-bus transfer latency.
 *
 * Also prints the headline numbers of §1/§4.2: the best speedup and the
 * worst degradation across the sweep, split into PWS vs the
 * data-sharing-unaware strategies (paper: max 1.28 / min .94 without
 * PWS; max 1.39 / min .95 with PWS). --csv emits the series for
 * replotting, between the title and the headline.
 */
namespace fig2_exec_time
{

void
enqueue(SweepEngine &bench)
{
    // NP is included: it is every column's denominator.
    bench.enqueueGrid(allWorkloads(), {false}, allStrategies(),
                      paperTransferLatencies());
}

void
render(SweepEngine &bench, bool csv, std::ostream &os)
{
    os << "=== Figure 2: execution time relative to NP ===\n\n";

    double best_nonpws = 10.0, worst_nonpws = 0.0;
    double best_pws = 10.0, worst_pws = 0.0;

    CsvWriter writer(os);
    if (csv)
        writer.row({"workload", "strategy", "transfer", "relative_time"});

    for (WorkloadKind w : allWorkloads()) {
        TextTable t({"strategy", "T=4", "T=8", "T=16", "T=32"});
        for (Strategy s : allStrategies()) {
            if (s == Strategy::NP)
                continue;
            std::vector<std::string> row = {strategyName(s)};
            for (Cycle lat : paperTransferLatencies()) {
                const double rel = bench.relativeExecTime(w, false, s, lat);
                row.push_back(TextTable::num(rel));
                if (csv) {
                    writer.row({workloadName(w), strategyName(s),
                                std::to_string(lat), TextTable::num(rel, 4)});
                }
                if (s == Strategy::PWS) {
                    best_pws = std::min(best_pws, rel);
                    worst_pws = std::max(worst_pws, rel);
                } else {
                    best_nonpws = std::min(best_nonpws, rel);
                    worst_nonpws = std::max(worst_nonpws, rel);
                }
            }
            t.addRow(std::move(row));
        }
        if (!csv) {
            os << "--- " << workloadName(w) << " ---\n";
            t.print(os);
            os << "\n";
        }
    }

    os << "headline: best/worst relative time without PWS = "
       << TextTable::num(best_nonpws) << " / "
       << TextTable::num(worst_nonpws)
       << "  (paper: 1/1.28=0.78 best, 1/0.94=1.06 worst)\n"
       << "          best/worst relative time with PWS    = "
       << TextTable::num(best_pws) << " / " << TextTable::num(worst_pws)
       << "  (paper: 1/1.39=0.72 best, 1/0.95=1.05 worst)\n";
}

} // namespace fig2_exec_time

/**
 * Figure 2's execution times split into where the processors' cycles
 * went, normalised to NP = 100 on the same bus: the execution time,
 * then busy cycles and the five stall components summed over
 * processors, each relative to NP's aggregate processor-cycles. Reads
 * the points of fig2_exec_time.
 */
namespace fig2_components
{

using fig2_exec_time::enqueue;

/** @p member summed over @p s's processors. */
double
procSum(const SimStats &s, Cycle ProcStats::*member)
{
    double total = 0.0;
    for (const ProcStats &p : s.procs)
        total += static_cast<double>(p.*member);
    return total;
}

void
render(SweepEngine &bench, bool, std::ostream &os)
{
    os << "=== Figure 2: execution-time components, normalised to "
          "NP = 100 ===\n"
          "(time = execution cycles vs NP; component columns are\n"
          " aggregate processor-cycles relative to the NP total)\n\n";

    TextTable t({"workload", "xfer", "strategy", "time", "busy", "demand",
                 "upgrade", "pf-queue", "lock", "barrier"});
    for (WorkloadKind w : allWorkloads()) {
        for (Cycle lat : paperTransferLatencies()) {
            const SimStats &np = bench.run(w, false, Strategy::NP, lat).sim;
            const double np_total = procSum(np, &ProcStats::finishedAt);
            if (t.numRows() > 0)
                t.addRule();
            for (Strategy s : allStrategies()) {
                const SimStats &r = bench.run(w, false, s, lat).sim;
                auto part = [&](Cycle ProcStats::*member) {
                    return TextTable::num(
                        procSum(r, member) / np_total * 100.0, 1);
                };
                t.addRow({workloadName(w), TextTable::count(lat),
                          strategyName(s),
                          TextTable::num(ratio(r.cycles, np.cycles) * 100.0,
                                         1),
                          part(&ProcStats::busy),
                          part(&ProcStats::stallDemand),
                          part(&ProcStats::stallUpgrade),
                          part(&ProcStats::stallPrefetchQueue),
                          part(&ProcStats::spinLock),
                          part(&ProcStats::waitBarrier)});
            }
        }
    }
    t.print(os);
}

} // namespace fig2_components

/**
 * Paper Figure 3: "Sources of CPU Misses in Topopt, Pverify and Mp3d"
 * (8-cycle data-transfer latency).
 *
 * For every strategy, the CPU misses split into the paper's five
 * categories: non-sharing not-prefetched, invalidation not-prefetched,
 * non-sharing prefetched (covered but replaced before use),
 * invalidation prefetched (covered but invalidated before use), and
 * prefetch-in-progress. Expected shape (§4.3-4.4): the uniprocessor-
 * style strategies leave invalidation misses as the dominant residual;
 * only PWS attacks them.
 */
namespace fig3_miss_components
{

const std::vector<WorkloadKind> kWorkloads = {
    WorkloadKind::Topopt, WorkloadKind::Pverify, WorkloadKind::Mp3d};

void
enqueue(SweepEngine &bench)
{
    bench.enqueueGrid(kWorkloads, {false}, allStrategies(), {kTransfer});
}

void
render(SweepEngine &bench, bool csv, std::ostream &os)
{
    if (csv) {
        CsvWriter w(os);
        w.row({"workload", "strategy", "non_sharing_not_pf",
               "inval_not_pf", "non_sharing_pf", "inval_pf",
               "pf_in_progress"});
        for (WorkloadKind wk : kWorkloads) {
            for (Strategy s : allStrategies()) {
                const auto &r = bench.run(wk, false, s, kTransfer);
                const MissBreakdown m = r.sim.totalMisses();
                const auto refs =
                    static_cast<double>(r.sim.totalDemandRefs());
                auto rate = [&](std::uint64_t n) {
                    return TextTable::num(static_cast<double>(n) / refs,
                                          6);
                };
                w.row({workloadName(wk), strategyName(s),
                       rate(m.nonSharingNotPrefetched),
                       rate(m.invalNotPrefetched),
                       rate(m.nonSharingPrefetched),
                       rate(m.invalPrefetched),
                       rate(m.prefetchInProgress)});
            }
        }
        return;
    }

    os << "=== Figure 3: CPU-miss components at T=8 "
          "(% of demand references) ===\n\n";

    for (WorkloadKind w : kWorkloads) {
        os << "--- " << workloadName(w) << " ---\n";
        TextTable t({"strategy", "non-shr !pf", "inval !pf",
                     "non-shr pf'd", "inval pf'd", "pf-in-progress",
                     "total CPU"});
        for (Strategy s : allStrategies()) {
            const auto &r = bench.run(w, false, s, kTransfer);
            const MissBreakdown m = r.sim.totalMisses();
            const auto refs = r.sim.totalDemandRefs();
            auto pct = [&](std::uint64_t n) {
                return TextTable::percent(ratio(n, refs), 2);
            };
            t.addRow({strategyName(s), pct(m.nonSharingNotPrefetched),
                      pct(m.invalNotPrefetched),
                      pct(m.nonSharingPrefetched), pct(m.invalPrefetched),
                      pct(m.prefetchInProgress), pct(m.cpu())});
        }
        t.print(os);
        os << "\n";
    }

    // The figure's companion observation in §4.3: LPD eliminates most
    // prefetch-in-progress misses but pays in conflict misses.
    os << "LPD check (paper 4.3): prefetch-in-progress misses "
          "shrink vs PREF, conflict (non-sharing) misses grow:\n";
    TextTable t({"workload", "PIP PREF", "PIP LPD", "non-shr PREF",
                 "non-shr LPD"});
    for (WorkloadKind w : kWorkloads) {
        const auto &pref = bench.run(w, false, Strategy::PREF, kTransfer);
        const auto &lpd = bench.run(w, false, Strategy::LPD, kTransfer);
        t.addRow({workloadName(w),
                  TextTable::count(
                      pref.sim.totalMisses().prefetchInProgress),
                  TextTable::count(
                      lpd.sim.totalMisses().prefetchInProgress),
                  TextTable::count(pref.sim.totalMisses().nonSharing()),
                  TextTable::count(lpd.sim.totalMisses().nonSharing())});
    }
    t.print(os);
}

} // namespace fig3_miss_components

/**
 * The paper's §4.2 processor-utilisation analysis.
 *
 * Average per-processor utilisation before prefetching, at the fastest
 * (4-cycle) and slowest (32-cycle) data bus. The paper uses these as
 * upper bounds on any latency-hiding technique's speedup: Water at .82
 * can gain at most ~1.2x, while Mp3d (.39 to .22) has room for 2.5-4.5x.
 * Also reports NP CPU miss rates (the other calibration anchor) and the
 * restructured variants' utilisation (§4.4: Topopt-R reaches .77-.80).
 */
namespace proc_util
{

void
enqueue(SweepEngine &bench)
{
    bench.enqueueGrid(allWorkloads(), {false}, {Strategy::NP}, {4, 32});
    bench.enqueueGrid(restructurable(), {true}, {Strategy::NP}, {4, 32});
}

void
render(SweepEngine &bench, bool, std::ostream &os)
{
    os << "=== Processor utilization before prefetching (4.2) "
          "(measured, paper value in parentheses) ===\n\n";

    TextTable t({"workload", "util @T=4", "util @T=32", "cpu MR @T=4",
                 "inval/cpu", "headroom (1/util)"});
    auto addRow = [&](WorkloadKind w, bool restructured,
                      std::optional<double> ref_fast,
                      std::optional<double> ref_slow) {
        const auto &fast = bench.run(w, restructured, Strategy::NP, 4);
        const auto &slow = bench.run(w, restructured, Strategy::NP, 32);
        const auto misses = fast.sim.totalMisses();
        t.addRow({workloadName(w) + (restructured ? "-r" : ""),
                  withPaper(fast.sim.avgProcUtilization(), ref_fast),
                  withPaper(slow.sim.avgProcUtilization(), ref_slow),
                  TextTable::percent(fast.sim.cpuMissRate()),
                  TextTable::percent(
                      ratio(misses.invalidation(), misses.cpu())),
                  TextTable::num(1.0 / fast.sim.avgProcUtilization(), 2)});
    };
    for (WorkloadKind w : allWorkloads()) {
        const auto ref = paper::procUtilization(w);
        addRow(w, false, ref.fastBus, ref.slowBus);
    }
    t.addRule();
    for (WorkloadKind w : restructurable()) {
        std::optional<double> ref_fast, ref_slow;
        if (w == WorkloadKind::Topopt) {
            ref_fast = paper::procUtilizationRestructuredTopopt().fastBus;
            ref_slow = paper::procUtilizationRestructuredTopopt().slowBus;
        }
        addRow(w, true, ref_fast, ref_slow);
    }
    t.print(os);
}

} // namespace proc_util

/**
 * Paper Table 3: "Total Invalidation and False Sharing Miss Rates",
 * plus the block-size comparison of the same section on 64-byte lines.
 *
 * Expected shape (§4.4): "for most of the benchmarks, over half of the
 * invalidation misses could be attributed to false sharing."
 */
namespace table3_false_sharing
{

void
enqueue(SweepEngine &bench)
{
    bench.enqueueGrid(allWorkloads(), {false}, {Strategy::NP},
                      {kTransfer});
    for (WorkloadKind w : kSharingWorkloads)
        bench.enqueue(lineSpec(bench, w, 64));
}

void
render(SweepEngine &bench, bool, std::ostream &os)
{
    os << "=== Table 3: invalidation and false-sharing miss rates "
          "(NP, T=8) ===\n\n";

    TextTable t({"workload", "total inval MR", "total FS MR",
                 "FS / inval"});
    for (WorkloadKind w : allWorkloads()) {
        const auto &r = bench.run(w, false, Strategy::NP, kTransfer);
        const double inval = r.sim.invalidationMissRate();
        const double fs = r.sim.falseSharingMissRate();
        t.addRow({workloadName(w), TextTable::percent(inval, 2),
                  TextTable::percent(fs, 2),
                  inval > 0 ? TextTable::percent(fs / inval, 0) : "-"});
    }
    t.print(os);

    os << "\npaper: over half of the invalidation misses are "
          "false sharing for most benchmarks; false sharing "
          "rises with larger blocks:\n";
    TextTable b({"workload", "FS/inval 32B line", "FS/inval 64B line"});
    auto share = [](const ExperimentResult &r) {
        const auto m = r.sim.totalMisses();
        return ratio(m.falseSharing, m.invalidation());
    };
    for (WorkloadKind w : kSharingWorkloads) {
        const auto &r32 = bench.run(w, false, Strategy::NP, kTransfer);
        const auto &r64 = bench.run(lineSpec(bench, w, 64));
        b.addRow({workloadName(w), TextTable::percent(share(r32), 0),
                  TextTable::percent(share(r64), 0)});
    }
    b.print(os);
}

} // namespace table3_false_sharing

/**
 * Paper Table 4: "Miss rates for data transfer latency of 8 cycles for
 * restructured programs".
 *
 * Expected shape (§4.4): restructuring slashes Topopt's invalidation
 * miss rate (paper: by ~6x) *and* its non-sharing miss rate (halved,
 * from improved locality); Pverify's gain is almost entirely the
 * false-sharing reduction (invalidation MR / 4) while its non-sharing
 * miss rate rises slightly.
 */
namespace table4_restructured_miss
{

void
enqueue(SweepEngine &bench)
{
    bench.enqueueGrid(restructurable(), {false, true},
                      {Strategy::NP, Strategy::PREF, Strategy::PWS},
                      {kTransfer});
}

void
render(SweepEngine &bench, bool, std::ostream &os)
{
    os << "=== Table 4: miss rates at T=8, restructured programs "
          "===\n\n";

    TextTable t({"workload", "strategy", "CPU MR", "total MR",
                 "total inval MR", "total FS MR", "non-sharing MR"});
    for (WorkloadKind w : restructurable()) {
        for (bool restructured : {false, true}) {
            for (Strategy s :
                 {Strategy::NP, Strategy::PREF, Strategy::PWS}) {
                const auto &r = bench.run(w, restructured, s, kTransfer);
                t.addRow(
                    {workloadName(w) + (restructured ? "-r" : ""),
                     strategyName(s),
                     TextTable::percent(r.sim.cpuMissRate(), 2),
                     TextTable::percent(r.sim.totalMissRate(), 2),
                     TextTable::percent(r.sim.invalidationMissRate(), 2),
                     TextTable::percent(r.sim.falseSharingMissRate(), 2),
                     TextTable::percent(
                         ratio(r.sim.totalMisses().nonSharing(),
                               r.sim.totalDemandRefs()),
                         2)});
            }
            t.addRule();
        }
    }
    t.print(os);

    os << "\nreduction factors (NP, standard -> restructured):\n";
    TextTable f({"workload", "inval MR factor", "non-sharing factor",
                 "FS factor"});
    for (WorkloadKind w : restructurable()) {
        const auto &std_r = bench.run(w, false, Strategy::NP, kTransfer);
        const auto &res_r = bench.run(w, true, Strategy::NP, kTransfer);
        auto factor = [](double a, double b) {
            return b > 0 ? TextTable::num(a / b, 1) + "x" : "inf";
        };
        const double std_ns =
            static_cast<double>(std_r.sim.totalMisses().nonSharing());
        const double res_ns =
            static_cast<double>(res_r.sim.totalMisses().nonSharing());
        f.addRow({workloadName(w),
                  factor(std_r.sim.invalidationMissRate(),
                         res_r.sim.invalidationMissRate()),
                  factor(std_ns, res_ns),
                  factor(std_r.sim.falseSharingMissRate(),
                         res_r.sim.falseSharingMissRate())});
    }
    f.print(os);
    os << "\npaper: Topopt inval/6 and non-sharing/2; Pverify "
          "inval/4 with non-sharing slightly up.\n";
}

} // namespace table4_restructured_miss

/**
 * Paper Table 5: "Relative Execution Times for Restructured Programs".
 *
 * Expected shape (§4.4): after restructuring, Topopt's cache behaviour
 * is good enough that prefetching has little left to win; Pverify
 * benefits more from prefetching (until the bus saturates), and plain
 * PREF approaches the write-shared-tailored PWS for both programs.
 */
namespace table5_restructured_time
{

void
enqueue(SweepEngine &bench)
{
    bench.enqueueGrid(restructurable(), {false, true}, allStrategies(),
                      paperTransferLatencies());
}

void
render(SweepEngine &bench, bool, std::ostream &os)
{
    os << "=== Table 5: relative execution times, restructured "
          "programs ===\n(execution time relative to the "
          "restructured program's own NP run)\n\n";

    for (WorkloadKind w : restructurable()) {
        os << "--- " << workloadName(w) << "-r ---\n";
        TextTable t({"strategy", "T=4", "T=8", "T=16", "T=32"});
        for (Strategy s : allStrategies()) {
            if (s == Strategy::NP)
                continue;
            std::vector<std::string> row = {strategyName(s)};
            for (Cycle lat : paperTransferLatencies())
                row.push_back(TextTable::num(
                    bench.relativeExecTime(w, true, s, lat)));
            t.addRow(std::move(row));
        }
        t.print(os);

        // Restructuring's own benefit (same strategy, layouts compared).
        TextTable g({"metric", "T=4", "T=8", "T=16", "T=32"});
        std::vector<std::string> row = {"restructured NP vs standard NP"};
        for (Cycle lat : paperTransferLatencies()) {
            const auto &std_r = bench.run(w, false, Strategy::NP, lat);
            const auto &res_r = bench.run(w, true, Strategy::NP, lat);
            row.push_back(
                TextTable::num(ratio(res_r.sim.cycles, std_r.sim.cycles)));
        }
        g.addRow(std::move(row));
        g.print(os);

        // §4.4: PREF approaches PWS once false sharing is gone.
        auto gap = [&](bool restructured) {
            return TextTable::num(
                bench.relativeExecTime(w, restructured, Strategy::PREF,
                                       4) /
                    bench.relativeExecTime(w, restructured, Strategy::PWS,
                                           4),
                3);
        };
        os << "PREF/PWS gap at T=4: standard " << gap(false)
           << ", restructured " << gap(true) << " (1.0 = identical)\n\n";
    }

    // Restructured Topopt's §4.4 processor utilisation claim (.77-.80).
    const auto &fast = bench.run(WorkloadKind::Topopt, true,
                                 Strategy::NP, 4);
    const auto &slow = bench.run(WorkloadKind::Topopt, true,
                                 Strategy::NP, 32);
    os << "restructured topopt processor utilization: "
       << TextTable::num(fast.sim.avgProcUtilization()) << " @T=4, "
       << TextTable::num(slow.sim.avgProcUtilization())
       << " @T=32 (paper: .80 / .77)\n";
}

} // namespace table5_restructured_time

/**
 * Prefetching-mechanism ablations the paper discusses but does not
 * tabulate: the prefetch distance (§4.3), the prefetch buffer depth
 * (§3.3), the read-then-write exclusive prefetch §4.3 suggests, and
 * §3.1's case for prefetching into the cache rather than into a
 * non-snooping buffer, which may hold only provably unshared lines.
 */
namespace ablation_prefetch
{

constexpr std::uint32_t kDistances[] = {25, 50, 100, 200, 400, 800};
constexpr unsigned kDepths[] = {1, 2, 4, 8, 16, 32};
constexpr WorkloadKind kRtwWorkloads[] = {
    WorkloadKind::Topopt, WorkloadKind::Mp3d, WorkloadKind::Water};
constexpr WorkloadKind kBufWorkloads[] = {
    WorkloadKind::Mp3d, WorkloadKind::Pverify, WorkloadKind::Water};

ExperimentSpec
distanceSpec(const SweepEngine &bench, std::uint32_t d)
{
    ExperimentSpec spec = bench.makeSpec(WorkloadKind::Mp3d, false,
                                         Strategy::PREF, kTransfer);
    StrategyParams sp;
    sp.distanceCycles = d;
    spec.strategyOverride = sp;
    return spec;
}

ExperimentSpec
depthSpec(const SweepEngine &bench, unsigned depth)
{
    ExperimentSpec spec = bench.makeSpec(WorkloadKind::Mp3d, false,
                                         Strategy::PREF, kTransfer);
    spec.sim.prefetchBufferDepth = depth;
    return spec;
}

ExperimentSpec
rtwSpec(const SweepEngine &bench, WorkloadKind w)
{
    ExperimentSpec spec = bench.makeSpec(w, false, Strategy::EXCL, kTransfer);
    StrategyParams rtw = strategyParams(Strategy::EXCL);
    rtw.exclusiveReadThenWrite = true;
    spec.strategyOverride = rtw;
    return spec;
}

ExperimentSpec
bufferSpec(const SweepEngine &bench, WorkloadKind w)
{
    ExperimentSpec spec = bench.makeSpec(w, false, Strategy::PREF, kTransfer);
    StrategyParams po = strategyParams(Strategy::PREF);
    po.privateLinesOnly = true;
    spec.strategyOverride = po;
    spec.sim.prefetchDataBufferEntries = 16;
    return spec;
}

void
enqueue(SweepEngine &bench)
{
    for (const std::uint32_t d : kDistances)
        bench.enqueue(distanceSpec(bench, d));
    for (const unsigned depth : kDepths)
        bench.enqueue(depthSpec(bench, depth));
    for (const WorkloadKind w : kRtwWorkloads) {
        bench.enqueue(w, false, Strategy::NP, kTransfer);
        bench.enqueue(w, false, Strategy::EXCL, kTransfer);
        bench.enqueue(rtwSpec(bench, w));
    }
    for (const WorkloadKind w : kBufWorkloads) {
        bench.enqueue(w, false, Strategy::NP, kTransfer);
        bench.enqueue(w, false, Strategy::PREF, kTransfer);
        bench.enqueue(bufferSpec(bench, w));
    }
}

void
render(SweepEngine &bench, bool, std::ostream &os)
{
    // ------------------------------------------------------------------
    os << "=== Ablation 1: prefetch distance (mp3d, T=8) ===\n"
       << "(PREF uses 100 = the uncontended latency; LPD uses "
          "400)\n\n";
    {
        const Cycle np_cycles =
            bench.run(WorkloadKind::Mp3d, false, Strategy::NP, kTransfer)
                .sim.cycles;
        TextTable t({"distance", "rel. exec time", "pf-in-progress",
                     "non-sharing misses", "prefetched-but-lost"});
        for (const std::uint32_t d : kDistances) {
            const SimStats &s = bench.run(distanceSpec(bench, d)).sim;
            const MissBreakdown m = s.totalMisses();
            t.addRow({std::to_string(d),
                      TextTable::num(ratio(s.cycles, np_cycles)),
                      TextTable::count(m.prefetchInProgress),
                      TextTable::count(m.nonSharing()),
                      TextTable::count(m.nonSharingPrefetched +
                                       m.invalPrefetched)});
        }
        t.print(os);
        os << "paper 4.3: longer distances eliminate "
              "prefetch-in-progress misses but lose prefetched "
              "data before use; the trade never pays.\n\n";
    }

    // ------------------------------------------------------------------
    os << "=== Ablation 2: prefetch buffer depth (mp3d, T=8) "
          "===\n\n";
    {
        TextTable t({"depth", "exec cycles", "buffer-full stall cycles"});
        for (const unsigned depth : kDepths) {
            const SimStats &s = bench.run(depthSpec(bench, depth)).sim;
            Cycle stall = 0;
            for (const auto &p : s.procs)
                stall += p.stallPrefetchQueue;
            t.addRow({std::to_string(depth), TextTable::count(s.cycles),
                      TextTable::count(stall)});
        }
        t.print(os);
        os << "paper 3.3: a 16-deep buffer almost always "
              "prevents prefetch-issue stalls.\n\n";
    }

    // ------------------------------------------------------------------
    os << "=== Ablation 3: read-then-write exclusive prefetch "
          "(4.3's suggested compiler improvement) ===\n\n";
    {
        TextTable t({"workload", "EXCL upgrades", "EXCL+RTW upgrades",
                     "rtw prefetches", "EXCL rel. time",
                     "EXCL+RTW rel. time"});
        for (const WorkloadKind w : kRtwWorkloads) {
            const Cycle np_cycles =
                bench.run(w, false, Strategy::NP, kTransfer).sim.cycles;
            const SimStats &se =
                bench.run(w, false, Strategy::EXCL, kTransfer).sim;
            const ExperimentResult &rr = bench.run(rtwSpec(bench, w));

            t.addRow({workloadName(w),
                      TextTable::count(se.totalUpgrades()),
                      TextTable::count(rr.sim.totalUpgrades()),
                      TextTable::count(rr.annotate.rtwExclusive),
                      TextTable::num(ratio(se.cycles, np_cycles)),
                      TextTable::num(ratio(rr.sim.cycles, np_cycles))});
        }
        t.print(os);
        os << "expected: RTW converts read-prefetches that "
              "precede writes into exclusive ones, removing "
              "upgrade operations.\n\n";
    }

    // ------------------------------------------------------------------
    os << "=== Ablation 4: cache prefetching vs a non-snooping "
          "target (3.1) ===\n"
       << "(privateLinesOnly drops every prefetch of shared "
          "data, as a non-snooping buffer requires)\n\n";
    {
        TextTable t({"workload", "PREF prefetches", "buffer-legal",
                     "dropped (shared)", "cache-PREF rel.",
                     "buffer-PREF rel."});
        for (const WorkloadKind w : kBufWorkloads) {
            const Cycle np_cycles =
                bench.run(w, false, Strategy::NP, kTransfer).sim.cycles;

            // Cache prefetching: the paper's (and prefsim's) default.
            const ExperimentResult &rc =
                bench.run(w, false, Strategy::PREF, kTransfer);

            // Non-snooping 16-entry prefetch data buffer: the compiler
            // may only prefetch provably unshared lines, and the fills
            // park beside the cache.
            const ExperimentResult &rp = bench.run(bufferSpec(bench, w));
            std::uint64_t hazards = 0;
            for (const auto &ps : rp.sim.procs)
                hazards += ps.bufferProtectionEvents;

            t.addRow({workloadName(w),
                      TextTable::count(rc.annotate.inserted),
                      TextTable::count(rp.annotate.inserted),
                      TextTable::count(rp.annotate.droppedShared),
                      TextTable::num(ratio(rc.sim.cycles, np_cycles)),
                      TextTable::num(ratio(rp.sim.cycles, np_cycles))});
            if (hazards)
                os << "  (" << workloadName(w) << ": " << hazards
                   << " buffer coherence hazards neutralised)\n";
        }
        t.print(os);
        os << "paper 3.1: \"no shared data can be prefetched\" "
              "into a non-snooping buffer — which is why the "
              "study (and prefsim) prefetch into the cache.\n";
    }
}

} // namespace ablation_prefetch

/**
 * Cache-organisation ablations: associativity and a victim cache
 * against the conflicts prefetching introduces on Topopt (§4.3), and
 * the cache-size and block-size sensitivities of §3.3.
 */
namespace ablation_cache
{

struct Org
{
    const char *name;
    std::uint32_t ways;
    unsigned victims;
};

constexpr Org kOrgs[] = {Org{"direct-mapped (paper)", 1, 0},
                         Org{"DM + 4-entry victim cache", 1, 4},
                         Org{"DM + 16-entry victim cache", 1, 16},
                         Org{"2-way LRU", 2, 0}, Org{"4-way LRU", 4, 0}};

constexpr std::uint32_t kCacheKb[] = {16, 32, 64, 128, 256};
constexpr std::uint32_t kBlocks[] = {16, 32, 64, 128};

ExperimentSpec
orgSpec(const SweepEngine &bench, const Org &org, Strategy s)
{
    ExperimentSpec spec =
        bench.makeSpec(WorkloadKind::Topopt, false, s, kTransfer);
    spec.geometry = CacheGeometry(32 * 1024, 32, org.ways);
    spec.sim.victimEntries = org.victims;
    return spec;
}

ExperimentSpec
sizeSpec(const SweepEngine &bench, std::uint32_t kb)
{
    ExperimentSpec spec = bench.makeSpec(WorkloadKind::Pverify, false,
                                         Strategy::NP, kTransfer);
    spec.geometry = CacheGeometry(kb * 1024, 32, 1);
    return spec;
}

void
enqueue(SweepEngine &bench)
{
    for (const Org &org : kOrgs) {
        bench.enqueue(orgSpec(bench, org, Strategy::NP));
        bench.enqueue(orgSpec(bench, org, Strategy::PREF));
    }
    for (const std::uint32_t kb : kCacheKb)
        bench.enqueue(sizeSpec(bench, kb));
    for (const WorkloadKind w : kSharingWorkloads) {
        for (const std::uint32_t block : kBlocks)
            bench.enqueue(lineSpec(bench, w, block));
    }
}

void
render(SweepEngine &bench, bool, std::ostream &os)
{
    // ------------------------------------------------------------------
    os << "=== Ablation 1: associativity & victim cache vs the "
          "conflicts prefetching introduces (topopt, T=8) ===\n\n";
    {
        TextTable t({"organisation", "NP non-shr misses",
                     "PREF non-shr misses", "victim hits (NP)",
                     "PREF rel. time"});
        for (const Org &org : kOrgs) {
            const SimStats &np =
                bench.run(orgSpec(bench, org, Strategy::NP)).sim;
            const SimStats &pref =
                bench.run(orgSpec(bench, org, Strategy::PREF)).sim;
            std::uint64_t victim_hits = 0;
            for (const auto &p : np.procs)
                victim_hits += p.victimHits;
            t.addRow({org.name,
                      TextTable::count(np.totalMisses().nonSharing()),
                      TextTable::count(pref.totalMisses().nonSharing()),
                      TextTable::count(victim_hits),
                      TextTable::num(ratio(pref.cycles, np.cycles))});
        }
        t.print(os);
        os << "paper 4.3: \"the magnitude of this conflict ... "
              "would likely be reduced by a victim cache or a "
              "set-associative cache.\"\n\n";
    }

    // ------------------------------------------------------------------
    os << "=== Ablation 2: cache size (pverify, NP, T=8) ===\n\n";
    {
        TextTable t({"cache", "non-shr MR", "inval MR", "inval share"});
        for (const std::uint32_t kb : kCacheKb) {
            const SimStats &s = bench.run(sizeSpec(bench, kb)).sim;
            const MissBreakdown m = s.totalMisses();
            t.addRow({std::to_string(kb) + " KB",
                      TextTable::percent(
                          ratio(m.nonSharing(), s.totalDemandRefs()), 2),
                      TextTable::percent(s.invalidationMissRate(), 2),
                      TextTable::percent(ratio(m.invalidation(), m.cpu()),
                                         0)});
        }
        t.print(os);
        os << "paper 3.3: \"with larger caches, non-sharing "
              "misses were reduced, making invalidation miss "
              "effects much more dominant.\"\n\n";
    }

    // ------------------------------------------------------------------
    os << "=== Ablation 3: block size (topopt + pverify, NP, T=8) "
          "===\n\n";
    {
        TextTable t({"workload", "block", "inval MR", "FS MR",
                     "FS share of invals"});
        for (const WorkloadKind w : kSharingWorkloads) {
            for (const std::uint32_t block : kBlocks) {
                const SimStats &s = bench.run(lineSpec(bench, w, block)).sim;
                const MissBreakdown m = s.totalMisses();
                t.addRow(
                    {workloadName(w), std::to_string(block) + " B",
                     TextTable::percent(s.invalidationMissRate(), 2),
                     TextTable::percent(s.falseSharingMissRate(), 2),
                     TextTable::percent(
                         ratio(m.falseSharing, m.invalidation()), 0)});
            }
            t.addRule();
        }
        t.print(os);
        os << "paper 3.3: \"larger block sizes increased false "
              "sharing and thus the total number of invalidation "
              "misses.\"\n";
    }
}

} // namespace ablation_cache

/**
 * Processor-count sensitivity (DESIGN.md substitution 3).
 *
 * The paper's Table 1 lists a per-program process count that is
 * illegible in the surviving scan; the reproduction uses 16 everywhere.
 * This experiment shows the phenomena the study measures are robust to
 * that choice: at 4/8/16 processors, prefetching still trades CPU
 * misses for bus demand, the miss-heavy workloads still saturate
 * first, and the fast-bus gains still shrink (or invert) as the bus
 * fills. Each point carries its own processor count, whatever --procs
 * says.
 */
namespace sensitivity_procs
{

constexpr unsigned kProcs[] = {4, 8, 16};
constexpr Cycle kTransfers[] = {4, 32};

ExperimentSpec
procsSpec(const SweepEngine &bench, unsigned procs, WorkloadKind w,
          Strategy s, Cycle transfer)
{
    ExperimentSpec spec = bench.makeSpec(w, false, s, transfer);
    spec.params.numProcs = procs;
    return spec;
}

void
enqueue(SweepEngine &bench)
{
    for (unsigned procs : kProcs) {
        for (WorkloadKind w : allWorkloads()) {
            for (Strategy s : {Strategy::NP, Strategy::PREF}) {
                for (Cycle transfer : kTransfers)
                    bench.enqueue(procsSpec(bench, procs, w, s, transfer));
            }
        }
    }
}

void
render(SweepEngine &bench, bool, std::ostream &os)
{
    os << "=== Sensitivity: processor count ===\n\n";
    for (unsigned procs : kProcs) {
        auto cycles = [&](WorkloadKind w, Strategy s, Cycle transfer) {
            return bench.run(procsSpec(bench, procs, w, s, transfer))
                .sim.cycles;
        };
        auto rel = [&](WorkloadKind w, Cycle transfer) {
            return TextTable::num(
                ratio(cycles(w, Strategy::PREF, transfer),
                      cycles(w, Strategy::NP, transfer)));
        };
        os << "--- " << procs << " processors ---\n";
        TextTable t({"workload", "NP bus@4", "NP bus@32", "NP util@4",
                     "PREF rel@4", "PREF rel@32"});
        for (WorkloadKind w : allWorkloads()) {
            const SimStats &b4 =
                bench.run(procsSpec(bench, procs, w, Strategy::NP, 4)).sim;
            const SimStats &b32 =
                bench.run(procsSpec(bench, procs, w, Strategy::NP, 32))
                    .sim;
            t.addRow({workloadName(w), TextTable::num(b4.busUtilization()),
                      TextTable::num(b32.busUtilization()),
                      TextTable::num(b4.avgProcUtilization()), rel(w, 4),
                      rel(w, 32)});
        }
        t.print(os);
        os << "\n";
    }
    os << "expected: more processors -> higher bus demand -> "
          "earlier saturation and smaller (or negative) "
          "prefetching gains at T=32; the workload ordering is "
          "stable.\n";
}

} // namespace sensitivity_procs

/**
 * Coherence-protocol ablation: write-invalidate (the paper's Illinois
 * protocol) vs. a Firefly-style write-update protocol.
 *
 * The paper's central obstacle, invalidation misses no uniprocessor-
 * style prefetcher can cover (§4.4), is an artifact of write-invalidate
 * coherence. Write-update removes them and pays with a bus broadcast on
 * every write to shared data; this measures that trade per workload.
 */
namespace ablation_protocol
{

constexpr Cycle kTransfers[] = {4, 32};

ExperimentSpec
protoSpec(const SweepEngine &bench, WorkloadKind w, Strategy s,
          CoherenceProtocol proto, Cycle transfer)
{
    ExperimentSpec spec = bench.makeSpec(w, false, s, transfer);
    spec.sim.protocol = proto;
    return spec;
}

void
enqueue(SweepEngine &bench)
{
    for (const Cycle transfer : kTransfers) {
        for (WorkloadKind w : allWorkloads()) {
            bench.enqueue(protoSpec(bench, w, Strategy::NP,
                                    CoherenceProtocol::WriteInvalidate,
                                    transfer));
            bench.enqueue(protoSpec(bench, w, Strategy::NP,
                                    CoherenceProtocol::WriteUpdate,
                                    transfer));
            bench.enqueue(protoSpec(bench, w, Strategy::PREF,
                                    CoherenceProtocol::WriteUpdate,
                                    transfer));
        }
    }
}

void
render(SweepEngine &bench, bool, std::ostream &os)
{
    os << "=== Protocol ablation: write-invalidate (paper) vs "
          "write-update ===\n\n";

    for (const Cycle transfer : kTransfers) {
        os << "--- T=" << transfer << " ---\n";
        TextTable t({"workload", "inv: inval MR", "upd: inval MR",
                     "inv: bus ops/1k refs", "upd: bus ops/1k refs",
                     "upd/inv exec time", "upd PREF rel."});
        for (WorkloadKind w : allWorkloads()) {
            auto sim = [&](Strategy s, CoherenceProtocol proto)
                -> const SimStats & {
                return bench.run(protoSpec(bench, w, s, proto, transfer))
                    .sim;
            };
            const SimStats &inv =
                sim(Strategy::NP, CoherenceProtocol::WriteInvalidate);
            const SimStats &upd =
                sim(Strategy::NP, CoherenceProtocol::WriteUpdate);
            const SimStats &upd_pref =
                sim(Strategy::PREF, CoherenceProtocol::WriteUpdate);
            auto ops_per_kref = [](const SimStats &s) {
                return TextTable::num(
                    1000.0 * static_cast<double>(s.bus.totalOps()) /
                        static_cast<double>(s.totalDemandRefs()),
                    1);
            };
            t.addRow({workloadName(w),
                      TextTable::percent(inv.invalidationMissRate(), 2),
                      TextTable::percent(upd.invalidationMissRate(), 2),
                      ops_per_kref(inv), ops_per_kref(upd),
                      TextTable::num(ratio(upd.cycles, inv.cycles)),
                      TextTable::num(ratio(upd_pref.cycles, upd.cycles))});
        }
        t.print(os);
        os << "\n";
    }

    os << "reading the table: write-update removes every invalidation "
          "miss (column 3 is zero) but pays a bus operation per write "
          "to shared data; whether that wins depends on the "
          "write-sharing style — and with no invalidation misses left, "
          "the oracle prefetcher covers everything that remains "
          "(final column).\n";
}

} // namespace ablation_protocol

/**
 * The paper's §4.2 reconciliation with Mowry & Gupta, who reported far
 * larger multiprocessor prefetching speedups. The paper names three
 * reasons; the two architectural ones are measurable here:
 *
 *   1. "they eliminated bus contention from their model by simulating
 *      only one processor per cluster" — approximated by a 16-channel
 *      (effectively contention-free) data interconnect;
 *   2. "they began with much higher miss rates due to their choice of
 *      simulated caches (for most simulations a 4 KB second-level
 *      cache)... processor utilizations in the .11 to .19 range" —
 *      approximated by shrinking the cache to 4 KB.
 */
namespace mowry_gupta
{

constexpr Cycle kBusTransfer = 16;
constexpr WorkloadKind kWorkloads[] = {
    WorkloadKind::Mp3d, WorkloadKind::Pverify, WorkloadKind::LocusRoute};

/** One machine: a cache organisation and a data-channel count. */
struct Machine
{
    CacheGeometry geometry;
    unsigned channels;
};

const Machine kMachines[] = {
    {CacheGeometry::paperDefault(), 1},
    {CacheGeometry::paperDefault(), 16},
    {CacheGeometry(4 * 1024, 32, 1), 16},
};

ExperimentSpec
machineSpec(const SweepEngine &bench, WorkloadKind w, Strategy s,
            const Machine &m)
{
    ExperimentSpec spec = bench.makeSpec(w, false, s, kBusTransfer);
    spec.geometry = m.geometry;
    spec.sim.timing.dataChannels = m.channels;
    return spec;
}

void
enqueue(SweepEngine &bench)
{
    for (const WorkloadKind w : kWorkloads) {
        for (const Strategy s :
             {Strategy::NP, Strategy::PREF, Strategy::PWS}) {
            for (const Machine &m : kMachines)
                bench.enqueue(machineSpec(bench, w, s, m));
        }
    }
}

void
render(SweepEngine &bench, bool, std::ostream &os)
{
    os << "=== 4.2 reconciliation with Mowry & Gupta (T=" << kBusTransfer
       << ") ===\n"
       << "machine A: the paper's (one contended data bus, 32 KB "
          "caches)\n"
       << "machine B: contention-free interconnect (16 data channels)\n"
       << "machine C: contention-free + 4 KB caches (their miss-rate "
          "regime)\n\n";

    TextTable t({"workload", "A util/PREF/PWS", "B util/PREF/PWS",
                 "C util/PREF/PWS"});
    for (const WorkloadKind w : kWorkloads) {
        // NP utilisation, then the PREF and PWS speedups over NP.
        auto cell = [&](const Machine &m) {
            const SimStats &np =
                bench.run(machineSpec(bench, w, Strategy::NP, m)).sim;
            const SimStats &pref =
                bench.run(machineSpec(bench, w, Strategy::PREF, m)).sim;
            const SimStats &pws =
                bench.run(machineSpec(bench, w, Strategy::PWS, m)).sim;
            return TextTable::num(np.avgProcUtilization()) + " / " +
                   TextTable::num(ratio(np.cycles, pref.cycles)) +
                   "x / " + TextTable::num(ratio(np.cycles, pws.cycles)) +
                   "x";
        };
        t.addRow({workloadName(w), cell(kMachines[0]), cell(kMachines[1]),
                  cell(kMachines[2])});
    }
    t.print(os);

    os << "\nexpected: A shows the paper's modest, saturation-bound "
          "gains; B lifts the contention ceiling; C starts from "
          "utilizations near Mowry-Gupta's .11-.19 and prefetching "
          "recovers multiples, matching their large reported "
          "speedups. The contrast is the paper's whole point: the "
          "benefit of prefetching is a property of the memory system, "
          "not of prefetching.\n";
}

} // namespace mowry_gupta

} // namespace

const std::vector<Experiment> &
experiments()
{
#define PREFSIM_EXPERIMENT(ns) Experiment{#ns, ns::enqueue, ns::render}
    static const std::vector<Experiment> registry = {
        PREFSIM_EXPERIMENT(table1_workloads),
        PREFSIM_EXPERIMENT(fig1_miss_rates),
        PREFSIM_EXPERIMENT(table2_bus_util),
        PREFSIM_EXPERIMENT(fig2_exec_time),
        PREFSIM_EXPERIMENT(fig2_components),
        PREFSIM_EXPERIMENT(fig3_miss_components),
        PREFSIM_EXPERIMENT(proc_util),
        PREFSIM_EXPERIMENT(table3_false_sharing),
        PREFSIM_EXPERIMENT(table4_restructured_miss),
        PREFSIM_EXPERIMENT(table5_restructured_time),
        PREFSIM_EXPERIMENT(ablation_prefetch),
        PREFSIM_EXPERIMENT(ablation_cache),
        PREFSIM_EXPERIMENT(sensitivity_procs),
        PREFSIM_EXPERIMENT(ablation_protocol),
        PREFSIM_EXPERIMENT(mowry_gupta),
    };
#undef PREFSIM_EXPERIMENT
    return registry;
}

std::vector<const Experiment *>
selectExperiments(const std::vector<std::string> &names)
{
    std::vector<const Experiment *> selected;
    if (names.empty()) {
        for (const Experiment &e : experiments())
            selected.push_back(&e);
        return selected;
    }
    for (const std::string &name : names) {
        const auto it =
            std::find_if(experiments().begin(), experiments().end(),
                         [&](const Experiment &e) { return name == e.name; });
        if (it == experiments().end()) {
            std::string known;
            for (const Experiment &e : experiments())
                known += std::string(known.empty() ? "" : ", ") + e.name;
            prefsim_fatal("unknown experiment '", name, "' (known: ", known,
                          ")");
        }
        selected.push_back(&*it);
    }
    return selected;
}

} // namespace prefsim
