#include "core/report.hh"

#include <cstdint>
#include <map>
#include <optional>

#include "common/json.hh"
#include "stats/table.hh"

namespace prefsim
{
namespace report
{

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
