#include "core/report.hh"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <ostream>
#include <tuple>

#include "common/json.hh"
#include "common/log.hh"
#include "core/paper_reference.hh"
#include "core/result_io.hh"
#include "stats/table.hh"

namespace fs = std::filesystem;

namespace prefsim
{
namespace report
{

namespace
{

/** workloadFromName/strategyFromName fatal() on unknown names; report
 *  parsing must survive arbitrary directory contents, so reverse-look
 *  the display names up instead. */
std::optional<WorkloadKind>
workloadFromNameSoft(const std::string &name)
{
    for (const WorkloadKind k : allWorkloads())
        if (workloadName(k) == name)
            return k;
    return std::nullopt;
}

std::optional<Strategy>
strategyFromNameSoft(const std::string &name)
{
    for (const Strategy s : allStrategies())
        if (strategyName(s) == name)
            return s;
    return std::nullopt;
}

/** The grouping axes every report table iterates over. */
std::tuple<int, int, Cycle, int>
sortKey(const RunArtifact &r)
{
    return {static_cast<int>(r.workload), r.restructured ? 1 : 0,
            r.dataTransfer, static_cast<int>(r.strategy)};
}

std::string
workloadCell(const RunArtifact &r)
{
    return workloadName(r.workload) + (r.restructured ? "-r" : "");
}

/** Group = one (workload, restructured, transfer) slice of the sorted
 *  run list; every table prints one block of rows per group. */
struct Group
{
    std::size_t first; ///< Index range [first, last) into RunSet::runs.
    std::size_t last;
    const RunArtifact *np; ///< The group's NP baseline, if present.
};

std::vector<Group>
groupRuns(const RunSet &rs)
{
    std::vector<Group> groups;
    std::size_t i = 0;
    while (i < rs.runs.size()) {
        const RunArtifact &head = rs.runs[i];
        Group g{i, i, nullptr};
        while (g.last < rs.runs.size()) {
            const RunArtifact &r = rs.runs[g.last];
            if (r.workload != head.workload ||
                r.restructured != head.restructured ||
                r.dataTransfer != head.dataTransfer)
                break;
            if (r.strategy == Strategy::NP)
                g.np = &r;
            ++g.last;
        }
        groups.push_back(g);
        i = g.last;
    }
    return groups;
}

/** Sum of one ProcStats cycle component over all processors. */
template <typename Member>
double
sumOver(const SimStats &s, Member member)
{
    double total = 0.0;
    for (const ProcStats &p : s.procs)
        total += static_cast<double>(p.*member);
    return total;
}

/** Aggregate processor-cycles (the Fig. 2 normalisation base). */
double
totalProcCycles(const SimStats &s)
{
    double total = 0.0;
    for (const ProcStats &p : s.procs)
        total += static_cast<double>(p.finishedAt);
    return total;
}

std::string
signedNum(double v, int precision)
{
    return (v >= 0.0 ? "+" : "") + TextTable::num(v, precision);
}

} // namespace

std::optional<RunArtifact>
parseRunLabel(const std::string &label)
{
    const std::size_t slash = label.find('/');
    const std::size_t at = label.rfind('@');
    if (slash == std::string::npos || at == std::string::npos ||
        at < slash)
        return std::nullopt;

    RunArtifact r;
    r.label = label;
    std::string workload = label.substr(0, slash);
    if (workload.size() > 2 &&
        workload.compare(workload.size() - 2, 2, "-r") == 0) {
        r.restructured = true;
        workload.resize(workload.size() - 2);
    }
    const std::optional<WorkloadKind> kind = workloadFromNameSoft(workload);
    if (!kind)
        return std::nullopt;
    r.workload = *kind;

    const std::optional<Strategy> strategy =
        strategyFromNameSoft(label.substr(slash + 1, at - slash - 1));
    if (!strategy)
        return std::nullopt;
    r.strategy = *strategy;

    const std::string transfer = label.substr(at + 1);
    char *end = nullptr;
    const unsigned long long value =
        std::strtoull(transfer.c_str(), &end, 10);
    if (transfer.empty() || end == nullptr || *end != '\0')
        return std::nullopt;
    r.dataTransfer = static_cast<Cycle>(value);
    return r;
}

RunSet
loadRunDirectory(const std::string &dir)
{
    RunSet rs;
    std::error_code ec;
    for (const fs::directory_entry &entry :
         fs::directory_iterator(dir, ec)) {
        if (!entry.is_regular_file() ||
            entry.path().extension() != ".json")
            continue;
        ++rs.filesScanned;
        const std::optional<std::string> text =
            readTextFile(entry.path().string());
        const auto sim = text ? readResultSimJson(*text) : std::nullopt;
        if (!sim) {
            ++rs.filesSkipped;
            continue;
        }
        std::optional<RunArtifact> run = parseRunLabel(sim->first);
        if (!run) {
            ++rs.filesSkipped;
            continue;
        }
        run->sim = sim->second;
        rs.runs.push_back(std::move(*run));
    }
    if (ec)
        prefsim_warn("cannot read run directory ", dir, ": ",
                     ec.message());
    std::sort(rs.runs.begin(), rs.runs.end(),
              [](const RunArtifact &a, const RunArtifact &b) {
                  // Labels break sort-key ties (identical axes can
                  // only come from duplicate points; keep them stable).
                  return std::make_pair(sortKey(a), a.label) <
                         std::make_pair(sortKey(b), b.label);
              });
    return rs;
}

void
writeFig2Report(std::ostream &os, const RunSet &rs)
{
    os << "Figure 2: execution-time components, normalised to NP = 100\n"
          "(time = execution cycles vs NP; component columns are\n"
          " aggregate processor-cycles relative to the NP total)\n";
    TextTable table({"workload", "xfer", "strategy", "time", "busy",
                     "demand", "upgrade", "pf-queue", "lock",
                     "barrier"});
    for (const Group &g : groupRuns(rs)) {
        if (g.np == nullptr || g.np->sim.cycles == 0 ||
            totalProcCycles(g.np->sim) == 0.0)
            continue; // Relative report needs the NP baseline.
        const double np_cycles = static_cast<double>(g.np->sim.cycles);
        const double np_total = totalProcCycles(g.np->sim);
        if (table.numRows() > 0)
            table.addRule();
        for (std::size_t i = g.first; i < g.last; ++i) {
            const RunArtifact &r = rs.runs[i];
            const SimStats &s = r.sim;
            auto part = [&](Cycle ProcStats::*member) {
                return TextTable::num(
                    sumOver(s, member) / np_total * 100.0, 1);
            };
            table.addRow(
                {workloadCell(r), TextTable::count(r.dataTransfer),
                 strategyName(r.strategy),
                 TextTable::num(static_cast<double>(s.cycles) /
                                    np_cycles * 100.0,
                                1),
                 part(&ProcStats::busy), part(&ProcStats::stallDemand),
                 part(&ProcStats::stallUpgrade),
                 part(&ProcStats::stallPrefetchQueue),
                 part(&ProcStats::spinLock),
                 part(&ProcStats::waitBarrier)});
        }
    }
    if (table.numRows() == 0)
        os << "(no groups with an NP baseline)\n";
    else
        table.print(os);
}

void
writeTable2Report(std::ostream &os, const RunSet &rs)
{
    os << "Table 2: bus utilisation (paper column: transcribed Table 2 "
          "values, where listed)\n";
    TextTable table(
        {"workload", "xfer", "strategy", "bus util", "paper", "drift"});
    for (const Group &g : groupRuns(rs)) {
        if (table.numRows() > 0)
            table.addRule();
        for (std::size_t i = g.first; i < g.last; ++i) {
            const RunArtifact &r = rs.runs[i];
            const double measured = r.sim.busUtilization();
            // The paper's table covers the unrestructured programs
            // only; restructured runs have no reference point.
            std::optional<double> ref;
            if (!r.restructured)
                ref = paper::busUtilization(r.workload, r.strategy,
                                            r.dataTransfer);
            table.addRow(
                {workloadCell(r), TextTable::count(r.dataTransfer),
                 strategyName(r.strategy), TextTable::num(measured, 2),
                 ref ? TextTable::num(*ref, 2) : "-",
                 ref ? signedNum(measured - *ref, 2) : "-"});
        }
    }
    if (table.numRows() == 0)
        os << "(no runs)\n";
    else
        table.print(os);
}

void
writeTable3Report(std::ostream &os, const RunSet &rs)
{
    os << "Table 3: sharing-related miss rates (per demand reference;\n"
          " the paper's Table 3 values are not transcribed, so this is\n"
          " measured-only)\n";
    TextTable table({"workload", "xfer", "strategy", "total miss",
                     "invalidation", "false sharing", "fs share"});
    for (const Group &g : groupRuns(rs)) {
        if (table.numRows() > 0)
            table.addRule();
        for (std::size_t i = g.first; i < g.last; ++i) {
            const RunArtifact &r = rs.runs[i];
            const SimStats &s = r.sim;
            const double inval = s.invalidationMissRate();
            const double fsr = s.falseSharingMissRate();
            table.addRow(
                {workloadCell(r), TextTable::count(r.dataTransfer),
                 strategyName(r.strategy),
                 TextTable::percent(s.totalMissRate(), 2),
                 TextTable::percent(inval, 2),
                 TextTable::percent(fsr, 2),
                 inval > 0.0 ? TextTable::percent(fsr / inval, 1)
                             : "-"});
        }
    }
    if (table.numRows() == 0)
        os << "(no runs)\n";
    else
        table.print(os);
}

namespace
{

/** Parsed essentials of one prefsim-bench-simcore-v1 document. */
struct BenchDoc
{
    std::uint64_t refsPerProc = 0;
    struct Run
    {
        std::string engine;
        std::uint64_t procs = 0;
        double simOnlySec = 0.0;
        std::uint64_t simCycles = 0;
    };
    std::map<std::string, Run> runs; ///< Ordered: deterministic output.
    /** Top-level `speedup_*` members, by key. */
    std::map<std::string, double> speedups;
};

std::optional<BenchDoc>
parseBenchDoc(const std::string &text, const std::string &which,
              std::vector<verify::Finding> &findings)
{
    const std::optional<JsonValue> doc = parseJson(text);
    const JsonValue *schema = doc ? doc->find("schema") : nullptr;
    if (!schema || !schema->isString() ||
        schema->asString() != "prefsim-bench-simcore-v1") {
        findings.push_back({"perf.schema", verify::Severity::Error,
                            "not a prefsim-bench-simcore-v1 document",
                            which});
        return std::nullopt;
    }
    BenchDoc out;
    try {
        const JsonField root(*doc);
        if (const std::optional<JsonField> refs = root.find("refs_per_proc"))
            out.refsPerProc = refs->u64();
        for (const auto &[label, run] : root["runs"].members()) {
            BenchDoc::Run r;
            r.engine = run["engine"].str();
            r.procs = run["procs"].u64();
            r.simOnlySec = run["sim_only_s"].number();
            r.simCycles = run["sim_cycles"].u64();
            if (r.simOnlySec <= 0.0 || r.simCycles == 0) {
                findings.push_back({"perf.schema", verify::Severity::Error,
                                    "run \"" + label +
                                        "\" has no simulation volume "
                                        "(crashed or truncated run?)",
                                    which});
                return std::nullopt;
            }
            out.runs.emplace(label, r);
        }
        for (const auto &[key, value] : root.members()) {
            if (key.rfind("speedup_", 0) == 0 && value.value().isNumber())
                out.speedups.emplace(key, value.number());
        }
    } catch (const JsonError &e) {
        findings.push_back(
            {"perf.schema", verify::Severity::Error, e.what(), which});
        return std::nullopt;
    }
    return out;
}

} // namespace

CompareReport
compareBenchReports(const std::string &baseline_text,
                    const std::string &fresh_text,
                    const CompareOptions &opts)
{
    CompareReport out;
    const std::optional<BenchDoc> base =
        parseBenchDoc(baseline_text, "baseline", out.findings);
    const std::optional<BenchDoc> fresh =
        parseBenchDoc(fresh_text, "fresh", out.findings);
    if (!base || !fresh)
        return out;

    if (base->refsPerProc != fresh->refsPerProc) {
        out.findings.push_back(
            {"perf.config", verify::Severity::Warning,
             "refs_per_proc differs (baseline " +
                 std::to_string(base->refsPerProc) + ", fresh " +
                 std::to_string(fresh->refsPerProc) +
                 "): throughput ratios are still comparable, wall "
                 "times are not",
             "fresh"});
    }

    for (const auto &[label, b] : base->runs) {
        const auto it = fresh->runs.find(label);
        if (it == fresh->runs.end()) {
            out.findings.push_back({"perf.missing_run",
                                    verify::Severity::Error,
                                    "baseline run \"" + label +
                                        "\" is absent from the fresh "
                                        "report",
                                    "fresh"});
            continue;
        }
        const BenchDoc::Run &f = it->second;
        if (b.engine != f.engine || b.procs != f.procs) {
            out.findings.push_back(
                {"perf.config", verify::Severity::Warning,
                 "run \"" + label +
                     "\" changed configuration (engine/procs); "
                     "comparison is not apples-to-apples",
                 "fresh"});
        }
        CompareRow row;
        row.label = label;
        row.baselineCyclesPerSec =
            static_cast<double>(b.simCycles) / b.simOnlySec;
        row.freshCyclesPerSec =
            static_cast<double>(f.simCycles) / f.simOnlySec;
        row.delta = (row.freshCyclesPerSec - row.baselineCyclesPerSec) /
                    row.baselineCyclesPerSec;
        out.rows.push_back(row);
        if (row.delta <= -opts.warnFrac) {
            out.findings.push_back(
                {"perf.throughput", verify::Severity::Warning,
                 "run \"" + label + "\" sim throughput fell " +
                     TextTable::percent(-row.delta, 1) + " (" +
                     TextTable::num(row.baselineCyclesPerSec / 1e6, 2) +
                     " -> " +
                     TextTable::num(row.freshCyclesPerSec / 1e6, 2) +
                     " Mcycles/s; warn-only, host speed drifts between "
                     "runs)",
                 label});
        }
    }

    if (base->speedups.empty()) {
        out.findings.push_back({"perf.config", verify::Severity::Warning,
                                "baseline has no speedup_* ratios: "
                                "nothing to gate on",
                                "baseline"});
    }
    for (const auto &[key, b] : base->speedups) {
        const auto it = fresh->speedups.find(key);
        if (it == fresh->speedups.end()) {
            out.findings.push_back({"perf.missing_run",
                                    verify::Severity::Error,
                                    "baseline \"" + key +
                                        "\" is absent from the fresh "
                                        "report",
                                    "fresh"});
            continue;
        }
        SpeedupRow row{key, b, it->second,
                       b > 0.0 ? it->second / b - 1.0 : 0.0};
        out.speedups.push_back(row);
        if (row.delta > -opts.warnFrac)
            continue;
        const bool fail = row.delta <= -opts.failFrac;
        out.findings.push_back(
            {"perf.regression",
             fail ? verify::Severity::Error : verify::Severity::Warning,
             "\"" + key + "\" fell " + TextTable::percent(-row.delta, 1) +
                 " (" + TextTable::num(row.baseline, 2) + "x -> " +
                 TextTable::num(row.fresh, 2) + "x" +
                 (fail ? ")"
                       : ", below the " +
                             TextTable::percent(opts.failFrac, 0) +
                             " failure threshold)"),
             key});
    }

    for (const auto &[label, f] : fresh->runs) {
        (void)f;
        if (base->runs.find(label) == base->runs.end()) {
            out.findings.push_back(
                {"perf.config", verify::Severity::Warning,
                 "fresh run \"" + label +
                     "\" has no baseline entry (regenerate "
                     "BENCH_simcore.json?)",
                 "baseline"});
        }
    }
    return out;
}

} // namespace report
} // namespace prefsim
