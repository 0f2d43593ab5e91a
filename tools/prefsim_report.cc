/**
 * @file
 * Analysis and perf-regression front end over sweep/bench artifacts.
 *
 * Report mode — paper-style tables from a sweep cache directory:
 *
 *   prefsim_report --runs DIR [--fig2] [--table2] [--table3]
 *
 * DIR is any --cache-dir a bench binary wrote; each cached result
 * embeds its run label, so no re-simulation happens. With none of the
 * table flags, all three reports print. Exit 0 on success, 2 when the
 * directory yields no parseable runs.
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
 * error finding, 2 usage/IO — the convention shared by prefsim_lint /
 * prefsim_verify / validate_telemetry, which is what lets
 * scripts/check.sh gate on it.
 */

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
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
        << "usage: prefsim_report --runs DIR [--fig2] [--table2] "
           "[--table3]\n"
           "       prefsim_report --profile FILE.json [--top N]\n"
           "       prefsim_report --critpath FILE.json [--top N]\n"
           "                      [--profile PROFILE.json]\n"
           "       prefsim_report --drift ANALYSIS.json\n"
           "       prefsim_report --compare BASELINE.json FRESH.json\n"
           "                      [--warn FRAC] [--fail FRAC] [--json]\n"
           "       prefsim_report --compare BENCH_history.jsonl\n"
           "                      [--warn FRAC] [--fail FRAC] [--json]\n";
    std::exit(kExitUsage);
}

std::optional<std::string>
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return std::nullopt;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
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

int
runReports(const std::string &dir, bool fig2, bool table2, bool table3)
{
    const report::RunSet rs = report::loadRunDirectory(dir);
    if (rs.runs.empty()) {
        std::cerr << "prefsim_report: no sweep results under " << dir
                  << " (" << rs.filesScanned << " json files scanned, "
                  << rs.filesSkipped << " skipped)\n";
        return kExitUsage;
    }
    std::cout << "runs: " << rs.runs.size() << " (from "
              << rs.filesScanned << " files, " << rs.filesSkipped
              << " skipped)\n\n";
    if (!fig2 && !table2 && !table3)
        fig2 = table2 = table3 = true;
    bool first = true;
    auto section = [&](void (*writer)(std::ostream &,
                                      const report::RunSet &)) {
        if (!first)
            std::cout << "\n";
        first = false;
        writer(std::cout, rs);
    };
    if (fig2)
        section(report::writeFig2Report);
    if (table2)
        section(report::writeTable2Report);
    if (table3)
        section(report::writeTable3Report);
    return kExitOk;
}

std::string
hexAddr(std::uint64_t addr)
{
    std::ostringstream os;
    os << "0x" << std::hex << addr;
    return os.str();
}

int
runProfile(const std::string &path, std::size_t top_n)
{
    const std::optional<std::string> text = slurp(path);
    if (!text) {
        std::cerr << "prefsim_report: cannot open " << path << "\n";
        return kExitUsage;
    }
    const std::optional<JsonValue> doc = parseJson(*text);
    if (!doc) {
        std::cerr << "prefsim_report: " << path
                  << " is not strict JSON\n";
        return kExitUsage;
    }
    const JsonValue *schema = doc->find("schema");
    if (!schema || !schema->isString() ||
        schema->asString() != "prefsim-profile-v1") {
        std::cerr << "prefsim_report: " << path
                  << " is not a prefsim-profile-v1 document\n";
        return kExitUsage;
    }
    const JsonValue *runs = doc->find("runs");
    if (!runs || !runs->isArray()) {
        std::cerr << "prefsim_report: " << path << " has no runs\n";
        return kExitUsage;
    }

    const auto u64 = [](const JsonValue &obj, const char *key) {
        const JsonValue *v = obj.find(key);
        return v ? v->asU64() : std::uint64_t{0};
    };

    struct LineRow
    {
        std::string label;
        std::uint64_t addr = 0;
        std::uint64_t misses = 0;
        std::uint64_t invalMisses = 0;
        std::uint64_t falseSharing = 0;
        std::uint64_t invalidations = 0;
        std::uint64_t busCycles = 0;
        std::uint64_t busOps = 0;
    };
    struct RunRow
    {
        std::string label;
        std::uint64_t misses = 0;
        std::uint64_t invalMisses = 0;
        std::uint64_t falseSharing = 0;
        std::uint64_t busCycles = 0;
        std::uint64_t busCyclesPrefetch = 0;
        std::uint64_t pfIssued = 0;
        std::uint64_t pfUseful = 0;
        std::uint64_t pfLate = 0;
        std::uint64_t pfKilled = 0;
        std::uint64_t pfDisplaced = 0;
    };

    std::vector<LineRow> lines;
    std::vector<RunRow> run_rows;
    std::size_t skipped = 0;
    for (const JsonValue &run : runs->array()) {
        const JsonValue *label = run.find("label");
        const std::string name =
            label && label->isString() ? label->asString() : "?";
        if (run.find("skipped")) {
            ++skipped;
            continue;
        }
        RunRow rr;
        rr.label = name;
        if (const JsonValue *totals = run.find("totals")) {
            rr.misses = u64(*totals, "misses");
            rr.invalMisses = u64(*totals, "miss_invalidation");
            rr.falseSharing = u64(*totals, "miss_false_sharing");
            rr.busCycles = u64(*totals, "bus_cycles");
            rr.busCyclesPrefetch = u64(*totals, "bus_cycles_prefetch");
            rr.pfIssued = u64(*totals, "pf_issued");
            rr.pfUseful = u64(*totals, "pf_useful");
            rr.pfLate = u64(*totals, "pf_late");
            rr.pfKilled = u64(*totals, "pf_killed");
            rr.pfDisplaced = u64(*totals, "pf_displaced");
        }
        run_rows.push_back(std::move(rr));
        const JsonValue *run_lines = run.find("lines");
        if (!run_lines || !run_lines->isArray())
            continue;
        for (const JsonValue &l : run_lines->array()) {
            LineRow row;
            row.label = name;
            row.addr = u64(l, "addr");
            row.misses = u64(l, "miss_nonsharing") +
                         u64(l, "miss_nonsharing_prefetched") +
                         u64(l, "miss_invalidation") +
                         u64(l, "miss_invalidation_prefetched") +
                         u64(l, "miss_prefetch_inflight");
            row.invalMisses = u64(l, "miss_invalidation") +
                              u64(l, "miss_invalidation_prefetched");
            row.falseSharing = u64(l, "miss_false_sharing");
            row.invalidations = u64(l, "invalidations");
            row.busCycles = u64(l, "bus_cycles");
            row.busOps = u64(l, "bus_ops");
            lines.push_back(std::move(row));
        }
    }
    if (run_rows.empty()) {
        std::cerr << "prefsim_report: " << path
                  << " holds no profiled runs ("
                  << skipped << " cache-hit skips)\n";
        return kExitUsage;
    }

    std::cout << "profile: " << run_rows.size() << " runs, "
              << lines.size() << " attributed lines";
    if (skipped)
        std::cout << " (" << skipped << " cache-hit skips)";
    std::cout << "\n\n";

    // 1. Hot lines: the addresses that bought the most bus time.
    std::stable_sort(lines.begin(), lines.end(),
                     [](const LineRow &a, const LineRow &b) {
                         if (a.busCycles != b.busCycles)
                             return a.busCycles > b.busCycles;
                         if (a.label != b.label)
                             return a.label < b.label;
                         return a.addr < b.addr;
                     });
    std::cout << "Top " << std::min(top_n, lines.size())
              << " hot lines by attributed bus occupancy\n";
    TextTable hot({"line", "run", "misses", "inval miss", "false",
                   "invals", "bus cyc", "bus ops"});
    for (std::size_t i = 0; i < lines.size() && i < top_n; ++i) {
        const LineRow &r = lines[i];
        hot.addRow({hexAddr(r.addr), r.label, std::to_string(r.misses),
                    std::to_string(r.invalMisses),
                    std::to_string(r.falseSharing),
                    std::to_string(r.invalidations),
                    std::to_string(r.busCycles),
                    std::to_string(r.busOps)});
    }
    hot.print(std::cout);

    // 2. Sharing classification (Figure 3 taxonomy): the invalidation
    // component splits into true sharing (data actually communicated)
    // and false sharing (distinct words on one line).
    std::cout << "\nSharing classification per run\n";
    TextTable share({"run", "misses", "cold/repl", "true shr",
                     "false shr", "false %"});
    for (const RunRow &r : run_rows) {
        const std::uint64_t non = r.misses - r.invalMisses;
        const std::uint64_t true_shr = r.invalMisses - r.falseSharing;
        const double false_pct =
            r.invalMisses
                ? static_cast<double>(r.falseSharing) /
                      static_cast<double>(r.invalMisses)
                : 0.0;
        share.addRow({r.label, std::to_string(r.misses),
                      std::to_string(non), std::to_string(true_shr),
                      std::to_string(r.falseSharing),
                      TextTable::percent(false_pct, 1)});
    }
    share.print(std::cout);

    // 3. Prefetch waste: where issued prefetches went. Everything that
    // is not "useful" is bus traffic the paper's Figure 2 gap is made
    // of.
    std::cout << "\nPrefetch outcome decomposition per run\n";
    TextTable waste({"run", "issued", "useful", "late", "killed",
                     "displaced", "useful %", "pf bus cyc"});
    for (const RunRow &r : run_rows) {
        const double useful_pct =
            r.pfIssued ? static_cast<double>(r.pfUseful) /
                             static_cast<double>(r.pfIssued)
                       : 0.0;
        waste.addRow({r.label, std::to_string(r.pfIssued),
                      std::to_string(r.pfUseful),
                      std::to_string(r.pfLate),
                      std::to_string(r.pfKilled),
                      std::to_string(r.pfDisplaced),
                      TextTable::percent(useful_pct, 1),
                      std::to_string(r.busCyclesPrefetch)});
    }
    waste.print(std::cout);
    return kExitOk;
}

int
runCritPath(const std::string &path, std::size_t top_n,
            const std::string &profile_path)
{
    const std::optional<std::string> text = slurp(path);
    if (!text) {
        std::cerr << "prefsim_report: cannot open " << path << "\n";
        return kExitUsage;
    }
    const std::optional<JsonValue> doc = parseJson(*text);
    if (!doc) {
        std::cerr << "prefsim_report: " << path
                  << " is not strict JSON\n";
        return kExitUsage;
    }
    const JsonValue *schema = doc->find("schema");
    if (!schema || !schema->isString() ||
        schema->asString() != "prefsim-critpath-v1") {
        std::cerr << "prefsim_report: " << path
                  << " is not a prefsim-critpath-v1 document\n";
        return kExitUsage;
    }
    const JsonValue *runs = doc->find("runs");
    if (!runs || !runs->isArray()) {
        std::cerr << "prefsim_report: " << path << " has no runs\n";
        return kExitUsage;
    }

    // Optional per-(label, addr) bus-occupancy join source: the PR 7
    // attribution profile of the same sweep.
    std::map<std::pair<std::string, std::uint64_t>, std::uint64_t>
        profile_bus;
    if (!profile_path.empty()) {
        const std::optional<std::string> ptext = slurp(profile_path);
        if (!ptext) {
            std::cerr << "prefsim_report: cannot open " << profile_path
                      << "\n";
            return kExitUsage;
        }
        const std::optional<JsonValue> pdoc = parseJson(*ptext);
        const JsonValue *pschema = pdoc ? pdoc->find("schema") : nullptr;
        if (!pdoc || !pschema || !pschema->isString() ||
            pschema->asString() != "prefsim-profile-v1") {
            std::cerr << "prefsim_report: " << profile_path
                      << " is not a prefsim-profile-v1 document\n";
            return kExitUsage;
        }
        if (const JsonValue *pruns = pdoc->find("runs")) {
            for (const JsonValue &run : pruns->array()) {
                const JsonValue *label = run.find("label");
                const JsonValue *plines = run.find("lines");
                if (!label || !label->isString() || !plines ||
                    !plines->isArray())
                    continue;
                for (const JsonValue &l : plines->array()) {
                    const JsonValue *addr = l.find("addr");
                    const JsonValue *bus = l.find("bus_cycles");
                    if (addr && bus)
                        profile_bus[{label->asString(),
                                     addr->asU64()}] = bus->asU64();
                }
            }
        }
    }

    const auto u64 = [](const JsonValue &obj, const char *key) {
        const JsonValue *v = obj.find(key);
        return v ? v->asU64() : std::uint64_t{0};
    };

    static const char *kClasses[] = {
        "compute",       "bus_arb", "data_transfer", "memory_latency",
        "coherence_inval", "lock",  "barrier",       "prefetch_stall"};

    std::size_t shown = 0, skipped = 0;
    for (const JsonValue &run : runs->array()) {
        const JsonValue *label = run.find("label");
        const std::string name =
            label && label->isString() ? label->asString() : "?";
        if (run.find("skipped")) {
            ++skipped;
            continue;
        }
        if (shown++)
            std::cout << "\n";
        const std::uint64_t total = u64(run, "total_cycles");
        std::cout << "Critical path, run " << name << ": " << total
                  << " cycles (" << u64(run, "procs") << " procs, "
                  << "cycles " << u64(run, "warmup_end") << ".."
                  << u64(run, "end_cycle") << ")\n";

        // 1. Per-resource path breakdown: where the binding chain
        // spent its time, and how much of each resource ran off-path.
        if (const JsonValue *res = run.find("resources")) {
            TextTable t({"resource", "on-path cyc", "% of path",
                         "slack cyc"});
            for (const char *c : kClasses) {
                const JsonValue *r = res->find(c);
                if (!r)
                    continue;
                const std::uint64_t cyc = u64(*r, "cycles");
                t.addRow({c, std::to_string(cyc),
                          TextTable::percent(
                              total ? static_cast<double>(cyc) /
                                          static_cast<double>(total)
                                    : 0.0,
                              1),
                          std::to_string(u64(*r, "slack"))});
            }
            t.print(std::cout);
        }

        // 2. What-if speedup bounds (with drift when validated).
        if (const JsonValue *whatif = run.find("whatif")) {
            std::cout << "\nWhat-if speedup bounds\n";
            TextTable t({"scenario", "predicted cyc", "speedup",
                         "actual cyc", "drift"});
            for (const JsonValue &w : whatif->array()) {
                const JsonValue *scenario = w.find("scenario");
                const JsonValue *speedup = w.find("speedup");
                const JsonValue *drift = w.find("drift");
                const std::uint64_t actual = u64(w, "actual_cycles");
                t.addRow({scenario && scenario->isString()
                              ? scenario->asString()
                              : "?",
                          std::to_string(u64(w, "predicted_cycles")),
                          TextTable::num(
                              speedup ? speedup->asDouble() : 0.0, 2) +
                              "x",
                          actual ? std::to_string(actual) : "-",
                          drift ? TextTable::percent(drift->asDouble(),
                                                     1)
                                : "-"});
            }
            t.print(std::cout);
        }

        // 3. The longest chain segments: contiguous stretches where
        // one processor's one resource bound the whole machine.
        if (const JsonValue *chain = run.find("chain")) {
            std::vector<const JsonValue *> segs;
            for (const JsonValue &seg : chain->array())
                segs.push_back(&seg);
            std::stable_sort(segs.begin(), segs.end(),
                             [&](const JsonValue *a, const JsonValue *b) {
                                 return u64(*a, "cycles") >
                                        u64(*b, "cycles");
                             });
            std::cout << "\nTop " << std::min(top_n, segs.size())
                      << " chain segments by length\n";
            TextTable t({"start", "cycles", "proc", "class", "line"});
            for (std::size_t i = 0; i < segs.size() && i < top_n; ++i) {
                const JsonValue &seg = *segs[i];
                const JsonValue *cls = seg.find("class");
                const JsonValue *line = seg.find("line");
                t.addRow({std::to_string(u64(seg, "start")),
                          std::to_string(u64(seg, "cycles")),
                          std::to_string(u64(seg, "proc")),
                          cls && cls->isString() ? cls->asString()
                                                 : "?",
                          line ? hexAddr(line->asU64()) : "-"});
            }
            t.print(std::cout);
        }

        // 4. Hot lines by on-path cycles, joined against the profile's
        // attributed bus occupancy when one was given.
        if (const JsonValue *lines = run.find("lines")) {
            std::vector<const JsonValue *> rows;
            for (const JsonValue &l : lines->array())
                rows.push_back(&l);
            std::stable_sort(rows.begin(), rows.end(),
                             [&](const JsonValue *a, const JsonValue *b) {
                                 return u64(*a, "cycles") >
                                        u64(*b, "cycles");
                             });
            std::cout << "\nTop " << std::min(top_n, rows.size())
                      << " lines by on-path cycles\n";
            std::vector<std::string> head = {"line", "path cyc"};
            if (!profile_path.empty())
                head.push_back("profile bus cyc");
            TextTable t(head);
            for (std::size_t i = 0; i < rows.size() && i < top_n; ++i) {
                const std::uint64_t addr = u64(*rows[i], "line");
                std::vector<std::string> row = {
                    hexAddr(addr),
                    std::to_string(u64(*rows[i], "cycles"))};
                if (!profile_path.empty()) {
                    const auto it = profile_bus.find({name, addr});
                    row.push_back(it == profile_bus.end()
                                      ? "-"
                                      : std::to_string(it->second));
                }
                t.addRow(row);
            }
            t.print(std::cout);
        }
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

/** One BENCH_history.jsonl entry for one benchmark configuration. */
struct HistoryPoint
{
    std::string utc;
    double cyclesPerSec = 0.0;
};

int
runHistory(const std::string &path, const report::CompareOptions &opts,
           bool json)
{
    const std::optional<std::string> text = slurp(path);
    if (!text) {
        std::cerr << "prefsim_report: cannot open " << path << "\n";
        return kExitUsage;
    }

    // One JSON object per line (JSONL); blank lines are permitted.
    // Insertion order is the trend axis, so labels keep their
    // append order per configuration.
    std::map<std::string, std::vector<HistoryPoint>> trend;
    std::vector<std::string> order;
    std::istringstream in(*text);
    std::string line;
    std::size_t lineno = 0, entries = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty())
            continue;
        const std::optional<JsonValue> doc = parseJson(line);
        if (!doc) {
            std::cerr << "prefsim_report: " << path << ":" << lineno
                      << " is not strict JSON\n";
            return kExitUsage;
        }
        const JsonValue *schema = doc->find("schema");
        if (!schema || !schema->isString() ||
            schema->asString() != "prefsim-bench-history-v1") {
            std::cerr << "prefsim_report: " << path << ":" << lineno
                      << " is not a prefsim-bench-history-v1 entry\n";
            return kExitUsage;
        }
        const JsonValue *label = doc->find("label");
        const JsonValue *cps = doc->find("cycles_per_s");
        if (!label || !label->isString() || !cps) {
            std::cerr << "prefsim_report: " << path << ":" << lineno
                      << " lacks label/cycles_per_s\n";
            return kExitUsage;
        }
        HistoryPoint p;
        if (const JsonValue *utc = doc->find("utc"))
            p.utc = utc->isString() ? utc->asString() : "";
        p.cyclesPerSec = cps->asDouble();
        if (!trend.count(label->asString()))
            order.push_back(label->asString());
        trend[label->asString()].push_back(p);
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
        const std::vector<HistoryPoint> &points = trend[label];
        report::CompareRow row;
        row.label = label;
        row.freshCyclesPerSec = points.back().cyclesPerSec;
        row.baselineCyclesPerSec = points.size() > 1
                                       ? points[points.size() - 2]
                                             .cyclesPerSec
                                       : points.back().cyclesPerSec;
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
        const std::vector<HistoryPoint> &points = trend[row.label];
        table.addRow(
            {row.label, std::to_string(points.size()),
             TextTable::num(points.front().cyclesPerSec / 1e6, 2),
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

int
runDrift(const std::string &path)
{
    const std::optional<std::string> text = slurp(path);
    if (!text) {
        std::cerr << "prefsim_report: cannot open " << path << "\n";
        return kExitUsage;
    }
    const std::optional<JsonValue> doc = parseJson(*text);
    if (!doc) {
        std::cerr << "prefsim_report: " << path
                  << " is not strict JSON\n";
        return kExitUsage;
    }
    const JsonValue *schema = doc->find("schema");
    if (!schema || !schema->isString() ||
        schema->asString() != "prefsim-analysis-v1") {
        std::cerr << "prefsim_report: " << path
                  << " is not a prefsim-analysis-v1 document\n";
        return kExitUsage;
    }
    const JsonValue *runs = doc->find("runs");
    if (!runs || !runs->isArray() || runs->array().empty()) {
        std::cerr << "prefsim_report: " << path << " has no runs\n";
        return kExitUsage;
    }

    const auto u64 = [](const JsonValue &obj, const char *key) {
        const JsonValue *v = obj.find(key);
        return v ? v->asU64() : std::uint64_t{0};
    };

    // 1. Static prediction summary, every analyzed run.
    std::cout << "Static prefetch-quality prediction per run\n";
    TextTable pred({"run", "prefetches", "timely", "late", "useless",
                    "redundant"});
    for (const JsonValue &run : runs->array()) {
        const JsonValue *label = run.find("label");
        pred.addRow({label && label->isString() ? label->asString()
                                                : "?",
                     std::to_string(u64(run, "prefetches")),
                     std::to_string(u64(run, "pf_timely")),
                     std::to_string(u64(run, "pf_late")),
                     std::to_string(u64(run, "pf_useless")),
                     std::to_string(u64(run, "pf_redundant"))});
    }
    pred.print(std::cout);

    // 2. Prediction-vs-profile drift, runs that carried a validation
    // block (prefsim_analyze --validate).
    bool validated = false;
    for (const JsonValue &run : runs->array()) {
        const JsonValue *v = run.find("validation");
        if (!v)
            continue;
        validated = true;
        const JsonValue *label = run.find("label");
        std::cout << "\nDrift vs profile, run "
                  << (label && label->isString() ? label->asString()
                                                 : "?")
                  << ": " << u64(*v, "pf_issued")
                  << " issued prefetches, late recall ";
        const JsonValue *recall = v->find("late_recall");
        std::cout << TextTable::percent(
                         recall ? recall->asDouble() : 0.0, 1)
                  << " (floor ";
        const JsonValue *floor = v->find("late_floor");
        std::cout << TextTable::percent(
                         floor ? floor->asDouble() : 0.0, 0)
                  << "), " << u64(*v, "uncovered") << " uncovered\n";
        const JsonValue *matrix = v->find("matrix");
        if (!matrix || !matrix->isArray())
            continue;
        TextTable cm({"predicted \\ observed", "late", "useless",
                      "timely", "other"});
        for (const JsonValue &row : matrix->array()) {
            const JsonValue *name = row.find("predicted");
            cm.addRow({name && name->isString() ? name->asString()
                                                : "?",
                       std::to_string(u64(row, "late")),
                       std::to_string(u64(row, "useless")),
                       std::to_string(u64(row, "timely")),
                       std::to_string(u64(row, "other"))});
        }
        cm.print(std::cout);
    }
    if (!validated)
        std::cout << "\n(no validation blocks — run prefsim_analyze "
                     "--validate for drift tables)\n";

    // Findings travel with the document; surface them here too.
    if (const JsonValue *findings = doc->find("findings")) {
        std::vector<Finding> parsed;
        for (const JsonValue &f : findings->array()) {
            Finding out;
            if (const JsonValue *rule = f.find("rule"))
                out.rule = rule->asString();
            if (const JsonValue *sev = f.find("severity"))
                out.severity = sev->asString() == "error"
                                   ? Severity::Error
                                   : Severity::Warning;
            if (const JsonValue *msg = f.find("message"))
                out.message = msg->asString();
            if (const JsonValue *loc = f.find("location"))
                out.location = loc->asString();
            parsed.push_back(std::move(out));
        }
        if (!parsed.empty()) {
            std::cout << "\n";
            writeFindingsText(std::cout, parsed);
        }
        return findingsExitCode(parsed);
    }
    return kExitOk;
}

int
runCompare(const std::string &baseline_path,
           const std::string &fresh_path,
           const report::CompareOptions &opts, bool json)
{
    const std::optional<std::string> baseline = slurp(baseline_path);
    if (!baseline) {
        std::cerr << "prefsim_report: cannot open " << baseline_path
                  << "\n";
        return kExitUsage;
    }
    const std::optional<std::string> fresh = slurp(fresh_path);
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
    std::string runs_dir;
    std::string profile_path;
    std::string critpath_path;
    std::string drift_path;
    std::size_t top_n = 10;
    std::vector<std::string> compare_paths;
    report::CompareOptions opts;
    bool fig2 = false, table2 = false, table3 = false, json = false;

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
        if (arg == "--runs") {
            runs_dir = next();
        } else if (arg == "--profile") {
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
        } else if (arg == "--fig2") {
            fig2 = true;
        } else if (arg == "--table2") {
            table2 = true;
        } else if (arg == "--table3") {
            table3 = true;
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
    const int modes = (!runs_dir.empty() ? 1 : 0) +
                      (!compare_paths.empty() ? 1 : 0) +
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
    if (!drift_path.empty())
        return runDrift(drift_path);
    return runReports(runs_dir, fig2, table2, table3);
}
