/**
 * @file
 * Analysis and perf-regression front end over telemetry and bench
 * documents. The paper's tables are not rendered here: prefsim_repro
 * renders them, and re-renders them from a warm --cache-dir without
 * simulating.
 *
 * Profile mode — contention attribution from a --profile-out document:
 *
 *   prefsim_report --profile FILE.json [--top N]
 *
 * Reads a prefsim-profile-v1 document and prints the top-N hot lines
 * by attributed bus occupancy, a per-run sharing-classification table
 * (cold/replacement vs. true- vs. false-sharing misses — the paper's
 * Figure 3 taxonomy at address granularity), and a prefetch-waste
 * table decomposing where issued prefetches went (useful, late,
 * killed, displaced) — the per-line anatomy of the Figure 2 gap.
 *
 * Drift mode — static-prediction vs simulated-outcome tables:
 *
 *   prefsim_report --drift ANALYSIS.json
 *
 * Reads a prefsim-analysis-v1 document (prefsim_analyze --json) and
 * prints the per-run predicted prefetch-class summary plus, for runs
 * carrying a --validate block, the predicted-vs-observed confusion
 * matrix and the late-recall headline. Exit mirrors the document's
 * findings.
 *
 * Critpath mode — critical-path and what-if bottleneck analysis:
 *
 *   prefsim_report --critpath FILE.json [--top N] [--profile FILE.json]
 *
 * Reads a prefsim-critpath-v1 document (--critpath-out) and prints,
 * per run, the per-resource critical-path breakdown with slack, the
 * what-if speedup table (with measured drift when --whatif-validate
 * ran), the top-N chain segments, and the hottest lines by on-path
 * cycles. With --profile, hot lines are joined against the matching
 * prefsim-profile-v1 run to show attributed bus occupancy next to
 * on-path cycles.
 *
 * Compare mode — the perf-regression gate:
 *
 *   prefsim_report --compare BASELINE.json FRESH.json
 *                  [--warn FRAC] [--fail FRAC] [--json]
 *   prefsim_report --compare BENCH_history.jsonl
 *                  [--warn FRAC] [--fail FRAC] [--json]
 *
 * The two-file form diffs two scripts/bench_perf.sh reports
 * (prefsim-bench-simcore-v1) on their same-run engine speedups
 * (speedup_fig2_sim, speedup_micro3_sim), in which host speed cancels.
 * A speedup loss of at least --warn (default 0.02) warns; at least
 * --fail (default 0.10) is an error. Per-run sim-only throughput is
 * printed too and a loss of at least --warn only warns. The one-file
 * form reads the cumulative history that
 * bench_perf.sh appends (one prefsim-bench-history-v1 JSON object per
 * line), prints the per-run throughput trend across entries, and
 * gates the newest entry against the one before it with the same
 * thresholds. Findings use the shared verification vocabulary; --json
 * emits prefsim-findings-v1. Exit codes: 0 clean, 1 at least one
 * error finding, 2 usage/IO or a malformed input document (the
 * diagnostic names the key path) — the convention shared by
 * prefsim_lint / prefsim_verify / validate_telemetry, which is what
 * lets scripts/check.sh gate on it.
 */

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hh"
#include "common/parse_uint.hh"
#include "core/report.hh"
#include "obs/critpath/critpath.hh"
#include "obs/profile/attribution_profiler.hh"
#include "stats/table.hh"
#include "verify/finding.hh"

namespace
{

using namespace prefsim;
using namespace prefsim::verify;

[[noreturn]] void
usage()
{
    std::cerr
        << "usage: prefsim_report --profile FILE.json [--top N]\n"
           "       prefsim_report --critpath FILE.json [--top N]\n"
           "                      [--profile PROFILE.json]\n"
           "       prefsim_report --drift ANALYSIS.json\n"
           "       prefsim_report --compare BASELINE.json FRESH.json\n"
           "                      [--warn FRAC] [--fail FRAC] [--json]\n"
           "       prefsim_report --compare BENCH_history.jsonl\n"
           "                      [--warn FRAC] [--fail FRAC] [--json]\n";
    std::exit(kExitUsage);
}

double
parseFrac(const std::string &flag, const char *text)
{
    char *end = nullptr;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || v < 0.0) {
        std::cerr << "prefsim_report: " << flag
                  << " expects a non-negative fraction, got '" << text
                  << "'\n";
        std::exit(kExitUsage);
    }
    return v;
}

std::string
hexAddr(std::uint64_t addr)
{
    std::ostringstream os;
    os << "0x" << std::hex << addr;
    return os.str();
}

/** Print a load failure and return the usage exit code. */
int
loadFailed(const std::exception &e)
{
    std::cerr << "prefsim_report: " << e.what() << "\n";
    return kExitUsage;
}

int
runProfile(const std::string &path, std::size_t top_n)
{
    std::vector<obs::ProfileRun> runs;
    try {
        runs = obs::loadProfileJson(path);
    } catch (const std::runtime_error &e) {
        return loadFailed(e);
    }

    struct LineRow
    {
        const std::string *label;
        const obs::ProfileLine *line;
    };
    std::vector<LineRow> lines;
    std::vector<const obs::ProfileRun *> profiled;
    std::size_t skipped = 0;
    for (const obs::ProfileRun &run : runs) {
        if (run.skipped) {
            ++skipped;
            continue;
        }
        profiled.push_back(&run);
        for (const obs::ProfileLine &l : run.lines)
            lines.push_back({&run.label, &l});
    }
    if (profiled.empty()) {
        std::cerr << "prefsim_report: " << path
                  << " holds no profiled runs ("
                  << skipped << " cache-hit skips)\n";
        return kExitUsage;
    }

    std::cout << "profile: " << profiled.size() << " runs, "
              << lines.size() << " attributed lines";
    if (skipped)
        std::cout << " (" << skipped << " cache-hit skips)";
    std::cout << "\n\n";

    // 1. Hot lines: the addresses that bought the most bus time.
    std::stable_sort(lines.begin(), lines.end(),
                     [](const LineRow &a, const LineRow &b) {
                         if (a.line->busCycles != b.line->busCycles)
                             return a.line->busCycles > b.line->busCycles;
                         if (*a.label != *b.label)
                             return *a.label < *b.label;
                         return a.line->addr < b.line->addr;
                     });
    std::cout << "Top " << std::min(top_n, lines.size())
              << " hot lines by attributed bus occupancy\n";
    TextTable hot({"line", "run", "misses", "inval miss", "false",
                   "invals", "bus cyc", "bus ops"});
    for (std::size_t i = 0; i < lines.size() && i < top_n; ++i) {
        const obs::ProfileLine &l = *lines[i].line;
        const std::uint64_t inval_misses =
            l.missInvalidation + l.missInvalidationPrefetched;
        const std::uint64_t misses = l.missNonSharing +
                                     l.missNonSharingPrefetched +
                                     inval_misses + l.missPrefetchInflight;
        hot.addRow({hexAddr(l.addr), *lines[i].label,
                    std::to_string(misses), std::to_string(inval_misses),
                    std::to_string(l.missFalseSharing),
                    std::to_string(l.invalidations),
                    std::to_string(l.busCycles),
                    std::to_string(l.busOps)});
    }
    hot.print(std::cout);

    // 2. Sharing classification (Figure 3 taxonomy): the invalidation
    // component splits into true sharing (data actually communicated)
    // and false sharing (distinct words on one line).
    std::cout << "\nSharing classification per run\n";
    TextTable share({"run", "misses", "cold/repl", "true shr",
                     "false shr", "false %"});
    for (const obs::ProfileRun *run : profiled) {
        const obs::ProfileTotals t = obs::ProfileTotals::of(*run);
        const double false_pct =
            t.missInvalidation
                ? static_cast<double>(t.missFalseSharing) /
                      static_cast<double>(t.missInvalidation)
                : 0.0;
        share.addRow({run->label, std::to_string(t.misses),
                      std::to_string(t.misses - t.missInvalidation),
                      std::to_string(t.missInvalidation -
                                     t.missFalseSharing),
                      std::to_string(t.missFalseSharing),
                      TextTable::percent(false_pct, 1)});
    }
    share.print(std::cout);

    // 3. Prefetch waste: where issued prefetches went. Everything that
    // is not "useful" is bus traffic the paper's Figure 2 gap is made
    // of.
    std::cout << "\nPrefetch outcome decomposition per run\n";
    TextTable waste({"run", "issued", "useful", "late", "killed",
                     "displaced", "useful %", "pf bus cyc"});
    for (const obs::ProfileRun *run : profiled) {
        const obs::ProfileTotals t = obs::ProfileTotals::of(*run);
        const double useful_pct =
            t.pfIssued ? static_cast<double>(t.pfUseful) /
                             static_cast<double>(t.pfIssued)
                       : 0.0;
        waste.addRow({run->label, std::to_string(t.pfIssued),
                      std::to_string(t.pfUseful),
                      std::to_string(t.pfLate),
                      std::to_string(t.pfKilled),
                      std::to_string(t.pfDisplaced),
                      TextTable::percent(useful_pct, 1),
                      std::to_string(t.busCyclesPrefetch)});
    }
    waste.print(std::cout);
    return kExitOk;
}

int
runCritPath(const std::string &path, std::size_t top_n,
            const std::string &profile_path)
{
    std::vector<obs::CritPathRun> runs;
    // Optional per-(label, addr) bus-occupancy join source: the
    // attribution profile of the same sweep.
    std::map<std::pair<std::string, Addr>, std::uint64_t> profile_bus;
    try {
        runs = obs::loadCritPathJson(path);
        if (!profile_path.empty()) {
            for (const obs::ProfileRun &run :
                 obs::loadProfileJson(profile_path)) {
                for (const obs::ProfileLine &l : run.lines)
                    profile_bus[{run.label, l.addr}] = l.busCycles;
            }
        }
    } catch (const std::runtime_error &e) {
        return loadFailed(e);
    }

    std::size_t shown = 0, skipped = 0;
    for (const obs::CritPathRun &run : runs) {
        if (run.skipped) {
            ++skipped;
            continue;
        }
        if (shown++)
            std::cout << "\n";
        const std::uint64_t total = run.totalCycles;
        std::cout << "Critical path, run " << run.label << ": " << total
                  << " cycles (" << run.procs << " procs, "
                  << "cycles " << run.warmupEnd << ".." << run.endCycle
                  << ")\n";

        // 1. Per-resource path breakdown: where the binding chain
        // spent its time, and how much of each resource ran off-path.
        TextTable res({"resource", "on-path cyc", "% of path",
                       "slack cyc"});
        for (std::size_t c = 0; c < obs::kNumResClasses; ++c) {
            const std::uint64_t cyc = run.pathCycles[c];
            res.addRow({obs::resClassName(static_cast<obs::ResClass>(c)),
                        std::to_string(cyc),
                        TextTable::percent(
                            total ? static_cast<double>(cyc) /
                                        static_cast<double>(total)
                                  : 0.0,
                            1),
                        std::to_string(run.slackCycles[c])});
        }
        res.print(std::cout);

        // 2. What-if speedup bounds (with drift when validated).
        std::cout << "\nWhat-if speedup bounds\n";
        TextTable whatif({"scenario", "predicted cyc", "speedup",
                          "actual cyc", "drift"});
        for (const obs::WhatIf &w : run.whatif) {
            const bool validated = w.actualCycles > 0;
            whatif.addRow(
                {w.scenario, std::to_string(w.predictedCycles),
                 TextTable::num(w.speedup, 2) + "x",
                 validated ? std::to_string(w.actualCycles) : "-",
                 validated ? TextTable::percent(w.drift, 1) : "-"});
        }
        whatif.print(std::cout);

        // 3. The longest chain segments: contiguous stretches where
        // one processor's one resource bound the whole machine.
        std::vector<obs::CritChainSeg> segs = run.chain;
        std::stable_sort(segs.begin(), segs.end(),
                         [](const obs::CritChainSeg &a,
                            const obs::CritChainSeg &b) {
                             return a.end - a.start > b.end - b.start;
                         });
        std::cout << "\nTop " << std::min(top_n, segs.size())
                  << " chain segments by length\n";
        TextTable chain({"start", "cycles", "proc", "class", "line"});
        for (std::size_t i = 0; i < segs.size() && i < top_n; ++i) {
            const obs::CritChainSeg &seg = segs[i];
            chain.addRow({std::to_string(seg.start),
                          std::to_string(seg.end - seg.start),
                          std::to_string(seg.proc),
                          obs::resClassName(seg.cls),
                          seg.line == kNoAddr ? "-" : hexAddr(seg.line)});
        }
        chain.print(std::cout);

        // 4. Hot lines by on-path cycles, joined against the profile's
        // attributed bus occupancy when one was given.
        std::vector<std::pair<Addr, std::uint64_t>> rows = run.lines;
        std::stable_sort(rows.begin(), rows.end(),
                         [](const auto &a, const auto &b) {
                             return a.second > b.second;
                         });
        std::cout << "\nTop " << std::min(top_n, rows.size())
                  << " lines by on-path cycles\n";
        std::vector<std::string> head = {"line", "path cyc"};
        if (!profile_path.empty())
            head.push_back("profile bus cyc");
        TextTable lines(head);
        for (std::size_t i = 0; i < rows.size() && i < top_n; ++i) {
            const auto [addr, cycles] = rows[i];
            std::vector<std::string> row = {hexAddr(addr),
                                            std::to_string(cycles)};
            if (!profile_path.empty()) {
                const auto it = profile_bus.find({run.label, addr});
                row.push_back(it == profile_bus.end()
                                  ? "-"
                                  : std::to_string(it->second));
            }
            lines.addRow(row);
        }
        lines.print(std::cout);
    }
    if (skipped)
        std::cout << "\n(" << skipped
                  << " cache-hit skips — rerun with --no-cache for "
                     "full coverage)\n";
    if (!shown) {
        std::cerr << "prefsim_report: " << path
                  << " holds no analyzed runs\n";
        return kExitUsage;
    }
    return kExitOk;
}

int
runHistory(const std::string &path, const report::CompareOptions &opts,
           bool json)
{
    const std::optional<std::string> text = readTextFile(path);
    if (!text) {
        std::cerr << "prefsim_report: cannot open " << path << "\n";
        return kExitUsage;
    }

    // One JSON object per line (JSONL); blank lines are permitted.
    // Insertion order is the trend axis, so labels keep their
    // append order per configuration.
    std::map<std::string, std::vector<double>> trend; ///< cycles/s.
    std::vector<std::string> order;
    std::istringstream in(*text);
    std::string line;
    std::size_t lineno = 0, entries = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty())
            continue;
        std::string label;
        double cycles_per_s = 0.0;
        try {
            const std::optional<JsonValue> doc = parseJson(line);
            if (!doc)
                throw JsonError("not strict JSON");
            const JsonField entry(*doc);
            if (entry["schema"].str() != "prefsim-bench-history-v1")
                throw JsonError("not a prefsim-bench-history-v1 entry");
            label = entry["label"].str();
            cycles_per_s = entry["cycles_per_s"].number();
        } catch (const JsonError &e) {
            std::cerr << "prefsim_report: " << path << ":" << lineno
                      << ": " << e.what() << "\n";
            return kExitUsage;
        }
        if (!trend.count(label))
            order.push_back(label);
        trend[label].push_back(cycles_per_s);
        ++entries;
    }
    if (trend.empty()) {
        std::cerr << "prefsim_report: " << path
                  << " holds no history entries\n";
        return kExitUsage;
    }

    // Trend table plus the regression gate: newest vs the entry
    // before it, same thresholds as the two-file compare.
    std::vector<Finding> findings;
    std::vector<report::CompareRow> rows;
    for (const std::string &label : order) {
        const std::vector<double> &points = trend[label];
        report::CompareRow row;
        row.label = label;
        row.freshCyclesPerSec = points.back();
        row.baselineCyclesPerSec = points.size() > 1
                                       ? points[points.size() - 2]
                                       : points.back();
        row.delta = row.baselineCyclesPerSec > 0.0
                        ? row.freshCyclesPerSec /
                                  row.baselineCyclesPerSec -
                              1.0
                        : 0.0;
        if (-row.delta >= opts.warnFrac) {
            Finding f;
            f.rule = "perf.trend";
            f.severity = -row.delta >= opts.failFrac
                             ? Severity::Error
                             : Severity::Warning;
            f.message = label + " throughput fell " +
                        TextTable::percent(-row.delta, 1) +
                        " against the previous history entry";
            f.location = path;
            findings.push_back(std::move(f));
        }
        rows.push_back(std::move(row));
    }

    if (json) {
        JsonWriter j(std::cout);
        j.beginObject();
        j.key("schema").value("prefsim-findings-v1");
        j.key("tool").value("prefsim_report");
        j.key("runs").beginArray();
        for (const report::CompareRow &row : rows) {
            j.beginObject();
            j.key("label").value(row.label);
            j.key("entries").value(
                std::uint64_t{trend[row.label].size()});
            j.key("baseline_cycles_per_s")
                .value(row.baselineCyclesPerSec);
            j.key("fresh_cycles_per_s").value(row.freshCyclesPerSec);
            j.key("delta").value(row.delta);
            j.endObject();
        }
        j.endArray();
        writeFindingsJson(j, findings);
        j.key("ok").value(!anyError(findings));
        j.endObject();
        std::cout << "\n";
        return findingsExitCode(findings);
    }

    std::cout << "history: " << entries << " entries, " << order.size()
              << " configurations\n\n";
    TextTable table({"run", "entries", "first Mcyc/s", "prev Mcyc/s",
                     "last Mcyc/s", "vs prev"});
    for (const report::CompareRow &row : rows) {
        const std::vector<double> &points = trend[row.label];
        table.addRow(
            {row.label, std::to_string(points.size()),
             TextTable::num(points.front() / 1e6, 2),
             points.size() > 1
                 ? TextTable::num(row.baselineCyclesPerSec / 1e6, 2)
                 : "-",
             TextTable::num(row.freshCyclesPerSec / 1e6, 2),
             points.size() > 1 ? (row.delta >= 0.0 ? "+" : "") +
                                     TextTable::percent(row.delta, 1)
                               : "-"});
    }
    table.print(std::cout);
    writeFindingsText(std::cout, findings);
    if (findings.empty())
        std::cout << "trend gate ok: no regressions beyond "
                  << TextTable::percent(opts.warnFrac, 0) << "\n";
    return findingsExitCode(findings);
}

/** Write the drift tables of an analysis document to @p out.
 *  @return the exit code its findings imply. */
int
writeDrift(std::ostream &out, const JsonField &doc)
{
    const std::vector<JsonField> runs = doc["runs"].items();
    if (runs.empty())
        throw JsonError("runs: empty");

    // 1. Static prediction summary, every analyzed run.
    out << "Static prefetch-quality prediction per run\n";
    TextTable pred({"run", "prefetches", "timely", "late", "useless",
                    "redundant"});
    for (const JsonField &run : runs) {
        pred.addRow({run["label"].str(),
                     std::to_string(run["prefetches"].u64()),
                     std::to_string(run["pf_timely"].u64()),
                     std::to_string(run["pf_late"].u64()),
                     std::to_string(run["pf_useless"].u64()),
                     std::to_string(run["pf_redundant"].u64())});
    }
    pred.print(out);

    // 2. Prediction-vs-profile drift, runs that carried a validation
    // block (prefsim_analyze --validate).
    bool validated = false;
    for (const JsonField &run : runs) {
        const std::optional<JsonField> v = run.find("validation");
        if (!v)
            continue;
        validated = true;
        out << "\nDrift vs profile, run " << run["label"].str()
                  << ": " << (*v)["pf_issued"].u64()
                  << " issued prefetches, late recall "
                  << TextTable::percent((*v)["late_recall"].number(), 1)
                  << " (floor "
                  << TextTable::percent((*v)["late_floor"].number(), 0)
                  << "), " << (*v)["uncovered"].u64() << " uncovered\n";
        TextTable cm({"predicted \\ observed", "late", "useless",
                      "timely", "other"});
        for (const JsonField &row : (*v)["matrix"].items()) {
            cm.addRow({row["predicted"].str(),
                       std::to_string(row["late"].u64()),
                       std::to_string(row["useless"].u64()),
                       std::to_string(row["timely"].u64()),
                       std::to_string(row["other"].u64())});
        }
        cm.print(out);
    }
    if (!validated)
        out << "\n(no validation blocks — run prefsim_analyze "
                     "--validate for drift tables)\n";

    // Findings travel with the document; surface them here too.
    std::vector<Finding> findings;
    for (const JsonField &f : doc["findings"].items()) {
        findings.push_back({f["rule"].str(),
                            f["severity"].str() == "error"
                                ? Severity::Error
                                : Severity::Warning,
                            f["message"].str(), f["location"].str()});
    }
    if (!findings.empty()) {
        out << "\n";
        writeFindingsText(out, findings);
    }
    return findingsExitCode(findings);
}

int
runDrift(const std::string &path)
{
    try {
        // Render fully before printing: a malformed document ends in
        // a diagnostic alone, not in half a table.
        const JsonValue doc =
            loadJsonDocument(path, "prefsim-analysis-v1");
        std::ostringstream out;
        const int code = writeDrift(out, JsonField(doc));
        std::cout << out.str();
        return code;
    } catch (const JsonError &e) {
        std::cerr << "prefsim_report: " << path << ": " << e.what()
                  << "\n";
    } catch (const std::runtime_error &e) {
        std::cerr << "prefsim_report: " << e.what() << "\n";
    }
    return kExitUsage;
}

int
runCompare(const std::string &baseline_path,
           const std::string &fresh_path,
           const report::CompareOptions &opts, bool json)
{
    const std::optional<std::string> baseline = readTextFile(baseline_path);
    if (!baseline) {
        std::cerr << "prefsim_report: cannot open " << baseline_path
                  << "\n";
        return kExitUsage;
    }
    const std::optional<std::string> fresh = readTextFile(fresh_path);
    if (!fresh) {
        std::cerr << "prefsim_report: cannot open " << fresh_path
                  << "\n";
        return kExitUsage;
    }
    const report::CompareReport cmp =
        report::compareBenchReports(*baseline, *fresh, opts);

    if (json) {
        JsonWriter j(std::cout);
        j.beginObject();
        j.key("schema").value("prefsim-findings-v1");
        j.key("tool").value("prefsim_report");
        j.key("runs").beginArray();
        for (const report::CompareRow &row : cmp.rows) {
            j.beginObject();
            j.key("label").value(row.label);
            j.key("baseline_cycles_per_s")
                .value(row.baselineCyclesPerSec);
            j.key("fresh_cycles_per_s").value(row.freshCyclesPerSec);
            j.key("delta").value(row.delta);
            j.endObject();
        }
        j.endArray();
        j.key("speedups").beginArray();
        for (const report::SpeedupRow &row : cmp.speedups) {
            j.beginObject();
            j.key("key").value(row.key);
            j.key("baseline").value(row.baseline);
            j.key("fresh").value(row.fresh);
            j.key("delta").value(row.delta);
            j.endObject();
        }
        j.endArray();
        writeFindingsJson(j, cmp.findings);
        j.key("ok").value(!anyError(cmp.findings));
        j.endObject();
        std::cout << "\n";
        return findingsExitCode(cmp.findings);
    }

    if (!cmp.rows.empty()) {
        TextTable table({"run", "baseline Mcyc/s", "fresh Mcyc/s",
                         "delta"});
        for (const report::CompareRow &row : cmp.rows) {
            table.addRow(
                {row.label,
                 TextTable::num(row.baselineCyclesPerSec / 1e6, 2),
                 TextTable::num(row.freshCyclesPerSec / 1e6, 2),
                 (row.delta >= 0.0 ? "+" : "") +
                     TextTable::percent(row.delta, 1)});
        }
        table.print(std::cout);
    }
    if (!cmp.speedups.empty()) {
        TextTable table({"engine speedup (gated)", "baseline", "fresh",
                         "delta"});
        for (const report::SpeedupRow &row : cmp.speedups) {
            table.addRow({row.key, TextTable::num(row.baseline, 2) + "x",
                          TextTable::num(row.fresh, 2) + "x",
                          (row.delta >= 0.0 ? "+" : "") +
                              TextTable::percent(row.delta, 1)});
        }
        table.print(std::cout);
    }
    writeFindingsText(std::cout, cmp.findings);
    if (cmp.findings.empty())
        std::cout << "perf gate ok: no regressions beyond "
                  << TextTable::percent(opts.warnFrac, 0) << "\n";
    return findingsExitCode(cmp.findings);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string profile_path;
    std::string critpath_path;
    std::string drift_path;
    std::size_t top_n = 10;
    std::vector<std::string> compare_paths;
    report::CompareOptions opts;
    bool json = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::cerr << "prefsim_report: missing value for " << arg
                          << "\n";
                std::exit(kExitUsage);
            }
            return argv[++i];
        };
        if (arg == "--profile") {
            profile_path = next();
        } else if (arg == "--critpath") {
            critpath_path = next();
        } else if (arg == "--drift") {
            drift_path = next();
        } else if (arg == "--top") {
            const char *text = next();
            const std::optional<std::uint64_t> v =
                parseUint(text, std::numeric_limits<std::size_t>::max());
            if (!v || *v == 0) {
                std::cerr << "prefsim_report: --top expects a positive "
                             "integer, got '"
                          << text << "'\n";
                return kExitUsage;
            }
            top_n = static_cast<std::size_t>(*v);
        } else if (arg == "--compare") {
            // One path = a BENCH_history.jsonl trend; two = the
            // classic baseline-vs-fresh diff.
            compare_paths.push_back(next());
            if (i + 1 < argc &&
                std::string(argv[i + 1]).rfind("--", 0) != 0)
                compare_paths.push_back(next());
        } else if (arg == "--warn") {
            opts.warnFrac = parseFrac(arg, next());
        } else if (arg == "--fail") {
            opts.failFrac = parseFrac(arg, next());
        } else if (arg == "--json") {
            json = true;
        } else if (arg == "--help" || arg == "-h") {
            usage();
        } else {
            std::cerr << "prefsim_report: unknown option " << arg
                      << "\n";
            return kExitUsage;
        }
    }

    // --profile doubles as the join source of --critpath mode, so it
    // only counts as a mode of its own when --critpath is absent.
    const int modes = (!compare_paths.empty() ? 1 : 0) +
                      (!profile_path.empty() && critpath_path.empty()
                           ? 1
                           : 0) +
                      (!critpath_path.empty() ? 1 : 0) +
                      (!drift_path.empty() ? 1 : 0);
    if (modes != 1) // Exactly one mode, please.
        usage();
    if (compare_paths.size() == 1)
        return runHistory(compare_paths[0], opts, json);
    if (!compare_paths.empty())
        return runCompare(compare_paths[0], compare_paths[1], opts,
                          json);
    if (!critpath_path.empty())
        return runCritPath(critpath_path, top_n, profile_path);
    if (!profile_path.empty())
        return runProfile(profile_path, top_n);
    return runDrift(drift_path);
}
