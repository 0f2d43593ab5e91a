#include "verify/telemetry_check.hh"

#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "common/json.hh"
#include "obs/critpath/critpath.hh"
#include "obs/interval_sampler.hh"
#include "obs/profile/attribution_profiler.hh"

namespace prefsim
{
namespace verify
{

namespace
{

/** A violation of @p rule; aborts the containing check. (A check that
 *  finds an array where it needs one uses obs::formatArray, whose
 *  FormatError carries the format's rule.) */
struct Violation
{
    std::string rule;
    std::string message;
};

[[noreturn]] void
fail(const std::string &rule, const std::string &what)
{
    throw Violation{rule, what};
}

/** (runs, counted items) of a per-run document, for its ok line. */
using Counts = std::pair<std::size_t, std::uint64_t>;

void
checkHistogram(const JsonField &h)
{
    const std::string &name = h.path();
    const std::vector<JsonField> bounds = h["bounds"].items();
    const std::vector<JsonField> counts = h["counts"].items();
    if (bounds.empty())
        fail("telemetry.histogram", name + ": empty bounds");
    if (counts.size() + 1 != bounds.size())
        fail("telemetry.histogram", name + ": counts/bounds size mismatch");
    for (std::size_t i = 1; i < bounds.size(); ++i) {
        if (bounds[i].u64() <= bounds[i - 1].u64())
            fail("telemetry.histogram",
                 name + ": bounds not strictly ascending");
    }
    std::uint64_t total = h["underflow"].u64() + h["overflow"].u64();
    for (const JsonField &c : counts)
        total += c.u64();
    if (total != h["count"].u64())
        fail("telemetry.histogram",
             name + ": bucket totals do not sum to count");

    // The derived summary block must agree with the raw buckets.
    const JsonField s = h["summary"];
    if (s["count"].u64() != total)
        fail("telemetry.histogram",
             name + ": summary count disagrees with buckets");
    if (s["sum"].u64() != h["sum"].u64())
        fail("telemetry.histogram",
             name + ": summary sum disagrees with histogram sum");
    const double p50 = s["p50"].number();
    const double p90 = s["p90"].number();
    const double p99 = s["p99"].number();
    if (p50 > p90 || p90 > p99)
        fail("telemetry.histogram",
             name + ": percentiles are not monotone (p50<=p90<=p99)");
    if (s["min_bound"].u64() > s["max_bound"].u64())
        fail("telemetry.histogram",
             name + ": summary min_bound exceeds max_bound");
}

void
checkMetrics(const JsonField &doc)
{
    const JsonField sweep = doc["sweep"];
    for (const char *key :
         {"traces_generated", "annotations_run", "simulations_run",
          "cache_hits", "cache_stores", "cache_rejected",
          "simulated_cycles", "simulated_refs", "trace_nanos",
          "annotate_nanos", "simulate_nanos"}) {
        sweep[key].u64();
    }
    if (const std::optional<JsonField> metrics = doc.find("metrics")) {
        for (const auto &[name, h] : (*metrics)["histograms"].members())
            checkHistogram(h);
    }
    if (const std::optional<JsonField> tracing = doc.find("tracing")) {
        (*tracing)["enabled"].boolean();
        (*tracing)["sessions"].u64();
        (*tracing)["events"].u64();
        // Ring-buffer truncation must be visible, not silent: a trace
        // that dropped events advertises how many.
        (*tracing)["dropped_events"].u64();
    }
    if (const std::optional<JsonField> profile = doc.find("profile")) {
        (*profile)["enabled"].boolean();
        (*profile)["runs"].u64();
        (*profile)["lines"].u64();
    }
}

/** One run's column must be an array of the advertised length. */
std::vector<JsonField>
needColumn(const JsonField &columns, const char *key, std::uint64_t samples,
           const std::string &where)
{
    const JsonField col = columns[key];
    if (!col.value().isArray())
        fail("telemetry.timeseries",
             where + ": column \"" + key + "\" is not an array");
    std::vector<JsonField> items = col.items();
    if (items.size() != samples)
        fail("telemetry.timeseries",
             where + ": column \"" + key + "\" has " +
                 std::to_string(items.size()) + " entries, expected " +
                 std::to_string(samples));
    return items;
}

Counts
checkTimeseries(const JsonField &doc)
{
    const std::vector<JsonField> runs = obs::formatArray(doc, "runs");
    std::uint64_t total_samples = 0;
    for (const JsonField &run : runs) {
        const std::string where = "run \"" + run["label"].str() + "\"";
        if (obs::isSkipMarker(run))
            continue;
        if (run["interval"].u64() < 1)
            fail("telemetry.timeseries",
                 where + ": interval must be at least 1");
        const std::uint64_t procs = run["procs"].u64();
        const std::uint64_t samples = run["samples"].u64();
        const std::uint64_t warmup_end = run["warmup_end"].u64();
        total_samples += samples;

        const JsonField columns = run["columns"];
        const std::vector<JsonField> cycle =
            needColumn(columns, "cycle", samples, where);
        const std::vector<JsonField> window =
            needColumn(columns, "window", samples, where);
        // Windows tile the covered span: each row accounts for exactly
        // the cycles since the previous boundary, except that the first
        // row past warmup_end measures from the warmup rebase point
        // (stats were reset there, discarding the cycles in between).
        std::uint64_t prev_cycle = 0;
        for (std::size_t i = 0; i < cycle.size(); ++i) {
            const std::uint64_t c = cycle[i].u64();
            if (c <= prev_cycle)
                fail("telemetry.timeseries",
                     where + ": cycle column is not strictly "
                             "increasing at sample " +
                         std::to_string(i));
            const std::uint64_t w = window[i].u64();
            if (w < 1)
                fail("telemetry.timeseries",
                     where + ": window must be at least 1 (sample " +
                         std::to_string(i) + ")");
            const std::uint64_t base =
                prev_cycle < warmup_end && c > warmup_end ? warmup_end
                                                          : prev_cycle;
            if (c - base != w)
                fail("telemetry.timeseries",
                     where + ": window does not match the cycle step "
                             "at sample " +
                         std::to_string(i));
            prev_cycle = c;
        }
        for (const char *key :
             {"bus_busy", "bus_util", "bus_queue_depth", "bus_active",
              "mshrs", "miss_nonsharing", "miss_invalidation",
              "miss_false_sharing", "pf_issued", "pf_dropped",
              "pf_useful", "pf_late", "pf_useless", "pf_cancelled"}) {
            needColumn(columns, key, samples, where);
        }

        const JsonField proc_columns = run["proc_columns"];
        for (const char *key :
             {"busy", "stall_demand", "stall_upgrade",
              "stall_prefetch_queue", "spin_lock", "wait_barrier"}) {
            const JsonField per_proc = proc_columns[key];
            if (!per_proc.value().isArray() ||
                per_proc.value().array().size() != procs)
                fail("telemetry.timeseries",
                     where + ": proc column \"" + key +
                         "\" is not [procs] arrays");
            for (const JsonValue &col : per_proc.value().array()) {
                if (!col.isArray() || col.array().size() != samples)
                    fail("telemetry.timeseries",
                         where + ": proc column \"" + key +
                             "\" rows must each hold " +
                             std::to_string(samples) + " samples");
            }
        }
    }
    return {runs.size(), total_samples};
}

Counts
checkProfile(const JsonField &doc)
{
    // The reader already enforces ascending lines, in-range prefetch
    // processors and totals == Σ rows (the Table 3 contract).
    const std::vector<obs::ProfileRun> runs =
        obs::readProfileJson(doc.value());
    std::uint64_t total_lines = 0;
    for (const obs::ProfileRun &run : runs) {
        total_lines += run.lines.size();
        for (const obs::ProfileLine &l : run.lines) {
            const std::string where = "run \"" + run.label + "\" line " +
                                      std::to_string(l.addr);
            if (l.invalidationsFalse > l.invalidations)
                fail("telemetry.profile",
                     where + ": invalidations_false exceeds "
                             "invalidations");
            if (l.busOps == 0 && l.busCycles != 0)
                fail("telemetry.profile",
                     where + ": bus cycles without bus operations");
        }
    }
    return {runs.size(), total_lines};
}

Counts
checkCritPath(const JsonField &doc)
{
    const std::vector<obs::CritPathRun> runs =
        obs::readCritPathJson(doc.value());
    std::uint64_t total_segs = 0;
    for (const obs::CritPathRun &run : runs) {
        if (run.skipped)
            continue;
        const std::string where = "run \"" + run.label + "\"";
        if (run.endCycle < run.warmupEnd ||
            run.endCycle - run.warmupEnd != run.totalCycles)
            fail("telemetry.critpath",
                 where + ": total_cycles does not equal "
                         "end_cycle - warmup_end");
        std::uint64_t class_sum = 0;
        for (const std::uint64_t cycles : run.pathCycles)
            class_sum += cycles;
        if (class_sum != run.totalCycles)
            fail("telemetry.critpath",
                 where + ": per-class path cycles do not sum to "
                         "total_cycles");

        for (const obs::WhatIf &w : run.whatif) {
            const std::string scenario = "\"" + w.scenario + "\"";
            if (w.predictedCycles > run.totalCycles)
                fail("telemetry.critpath",
                     where + ": " + scenario +
                         " predicts more cycles than measured");
            if (w.speedup < 1.0)
                fail("telemetry.critpath",
                     where + ": " + scenario + " speedup below 1.0");
            if (w.drift < 0.0)
                fail("telemetry.critpath",
                     where + ": " + scenario + " drift is negative");
        }

        // The chain tiles forward in time: half-open, non-overlapping,
        // ascending (segments may be sparse — only the top K survive).
        total_segs += run.chain.size();
        Cycle prev_end = run.warmupEnd;
        for (const obs::CritChainSeg &seg : run.chain) {
            if (seg.start >= seg.end)
                fail("telemetry.critpath",
                     where + ": empty or inverted chain segment");
            if (seg.start < prev_end)
                fail("telemetry.critpath",
                     where + ": chain segments overlap or regress");
            if (seg.end > run.endCycle)
                fail("telemetry.critpath",
                     where + ": chain segment past end_cycle");
            prev_end = seg.end;
        }

        for (std::size_t i = 1; i < run.lines.size(); ++i) {
            if (run.lines[i].first <= run.lines[i - 1].first)
                fail("telemetry.critpath",
                     where + ": line addresses are not strictly "
                             "ascending");
        }
    }
    return {runs.size(), total_segs};
}

/** Dotted lowercase rule id: "race.lockset", "prefetch.quality.late". */
bool
isRuleId(const std::string &rule)
{
    if (rule.empty() || rule.front() == '.' || rule.back() == '.')
        return false;
    bool dotted = false;
    for (std::size_t i = 0; i < rule.size(); ++i) {
        const char c = rule[i];
        if (c == '.') {
            if (rule[i - 1] == '.')
                return false;
            dotted = true;
        } else if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                     c == '_')) {
            return false;
        }
    }
    return dotted;
}

Counts
checkAnalysis(const JsonField &doc)
{
    static const char *kPrefetchClasses[] = {"timely", "late", "useless",
                                     "redundant"};
    const std::vector<JsonField> runs = obs::formatArray(doc, "runs");
    std::uint64_t total_prefetches = 0;
    for (const JsonField &run : runs) {
        const std::string where = "run \"" + run["label"].str() + "\"";
        const std::uint64_t procs = run["procs"].u64();
        const std::uint64_t prefetches = run["prefetches"].u64();
        total_prefetches += prefetches;
        std::uint64_t class_total = 0;
        for (const char *key : kPrefetchClasses)
            class_total += run[std::string("pf_") + key].u64();
        if (class_total != prefetches)
            fail("telemetry.analysis",
                 where + ": class totals do not sum to prefetches");

        const JsonField bounds = run["bounds"];
        if (bounds["floor"].u64() > bounds["fill"].u64() ||
            bounds["fill"].u64() > bounds["contention"].u64())
            fail("telemetry.analysis",
                 where + ": latency bounds are not monotone "
                         "(floor<=fill<=contention)");
        const JsonField race = run["race"];
        if (race["lock_serialised"].u64() > race["race_candidates"].u64())
            fail("telemetry.analysis",
                 where + ": lock_serialised exceeds race_candidates");
        if (race["race_candidates"].u64() > race["words_checked"].u64())
            fail("telemetry.analysis",
                 where + ": race_candidates exceeds words_checked");

        // The per-line ledger must be ascending and sum back to the
        // run's class totals (same contract as the profile schema).
        std::map<std::string, std::uint64_t> sum;
        std::uint64_t prev_addr = 0;
        bool first = true;
        for (const JsonField &l : obs::formatArray(run, "lines")) {
            const std::uint64_t addr = l["addr"].u64();
            if (!first && addr <= prev_addr)
                fail("telemetry.analysis",
                     where + ": line addresses are not strictly "
                             "ascending at " +
                         std::to_string(addr));
            first = false;
            prev_addr = addr;
            for (const JsonField &p : obs::formatArray(l, "pf")) {
                if (p["proc"].u64() >= procs)
                    fail("telemetry.analysis",
                         where + ": pf proc out of range");
                for (const char *key : kPrefetchClasses)
                    sum[key] += p[key].u64();
            }
        }
        for (const char *key : kPrefetchClasses) {
            if (sum[key] != run[std::string("pf_") + key].u64())
                fail("telemetry.analysis",
                     where + ": pf_" + key +
                         " does not equal the sum of its lines");
        }

        if (const std::optional<JsonField> v = run.find("validation")) {
            (*v)["profile_label"].str();
            (*v)["uncovered"].u64();
            const double recall = (*v)["late_recall"].number();
            if (recall < 0.0 || recall > 1.0)
                fail("telemetry.analysis",
                     where + ": late_recall outside [0,1]");
            (*v)["late_floor"].number();
            const JsonField matrix = (*v)["matrix"];
            if (!matrix.value().isArray() ||
                matrix.value().array().size() != 4)
                fail("telemetry.analysis",
                     where + ": matrix must have 4 predicted rows");
            std::uint64_t matrix_total = 0;
            for (const JsonField &row : matrix.items()) {
                row["predicted"].str();
                for (const char *key :
                     {"late", "useless", "timely", "other"}) {
                    matrix_total += row[key].u64();
                }
            }
            // The reconciliation contract: every issued prefetch lands
            // in exactly one cell.
            if (matrix_total != (*v)["pf_issued"].u64())
                fail("telemetry.analysis",
                     where + ": matrix cells do not sum to pf_issued");
        }
    }

    for (const JsonField &f : obs::formatArray(doc, "findings")) {
        const std::string &rule = f["rule"].str();
        if (!isRuleId(rule))
            fail("telemetry.analysis",
                 "malformed rule id \"" + rule + "\"");
        const std::string &sev = f["severity"].str();
        if (sev != "warning" && sev != "error")
            fail("telemetry.analysis",
                 "finding severity must be warning or error");
        f["message"].str();
        f["location"].str();
    }
    return {runs.size(), total_prefetches};
}

std::uint64_t
checkTrace(const JsonField &doc)
{
    std::map<std::uint64_t, std::uint64_t> last_ts;
    std::map<std::pair<std::uint64_t, std::uint64_t>,
             std::vector<std::string>>
        open_spans;
    std::map<std::tuple<std::string, std::uint64_t, std::string>, long>
        open_async;
    std::uint64_t emitted = 0;

    for (const JsonField &ev : obs::formatArray(doc, "traceEvents")) {
        const std::string &ph = ev["ph"].str();
        const std::uint64_t pid = ev["pid"].u64();
        if (ph == "M")
            continue;
        ++emitted;
        const std::uint64_t ts = ev["ts"].u64();
        const std::uint64_t tid = ev["tid"].u64();
        const auto it = last_ts.find(pid);
        if (it != last_ts.end() && ts < it->second)
            fail("telemetry.trace", "timestamps regress within one pid");
        last_ts[pid] = ts;

        const std::string &name = ev["name"].str();
        if (ph == "B") {
            open_spans[{pid, tid}].push_back(name);
        } else if (ph == "E") {
            auto &stack = open_spans[{pid, tid}];
            if (stack.empty())
                fail("telemetry.trace",
                     "E without matching B (" + name + ")");
            if (stack.back() != name)
                fail("telemetry.trace",
                     "spans cross instead of nesting (" + name + ")");
            stack.pop_back();
        } else if (ph == "b" || ph == "e") {
            long &open = open_async[{ev["cat"].str(), ev["id"].u64(),
                                     ev["scope"].str()}];
            open += ph == "b" ? 1 : -1;
            if (open < 0)
                fail("telemetry.trace",
                     "async e before its b (" + name + ")");
        } else if (ph != "i") {
            fail("telemetry.trace",
                 "unexpected event phase \"" + ph + "\"");
        }
    }
    for (const auto &[key, stack] : open_spans) {
        if (!stack.empty())
            fail("telemetry.trace",
                 "unclosed span \"" + stack.back() + "\"");
    }
    for (const auto &[key, open] : open_async) {
        if (open != 0)
            fail("telemetry.trace",
                 "unclosed async span id " +
                     std::to_string(std::get<1>(key)));
    }
    return emitted;
}

/** A schema-tagged document with per-run contents. */
struct Format
{
    const char *schema;
    const char *name; ///< Ok-line prefix.
    const char *rule; ///< Rule of a FormatError.
    const char *unit; ///< What the ok line counts.
    Counts (*check)(const JsonField &doc);
};

const Format kFormats[] = {
    {obs::TimeSeries::kSchema, "timeseries", "telemetry.timeseries",
     "samples", checkTimeseries},
    {obs::ProfileRun::kSchema, "profile", "telemetry.profile", "lines",
     checkProfile},
    {obs::CritPathRun::kSchema, "critpath", "telemetry.critpath",
     "chain segments", checkCritPath},
    {"prefsim-analysis-v1", "analysis", "telemetry.analysis",
     "prefetches", checkAnalysis},
};

} // namespace

TelemetryCheck
checkTelemetry(const std::string &text, const std::string &path)
{
    TelemetryCheck out;
    const char *format_rule = "telemetry.schema";
    const auto violation = [&](std::string rule, std::string message) {
        out.violation = Finding{std::move(rule), Severity::Error,
                                std::move(message), path};
    };
    try {
        const std::optional<JsonValue> parsed = parseJson(text);
        if (!parsed)
            fail("telemetry.parse", "file is not strict JSON");
        // Each file declares what it is: dispatch on its "schema"
        // string (or the traceEvents array, which Chrome's format
        // carries instead of a schema tag).
        const JsonField doc(*parsed);
        const JsonValue *schema = parsed->find("schema");
        const std::string kind =
            schema && schema->isString() ? schema->asString() : "";
        if (kind == "prefsim-telemetry-v1") {
            checkMetrics(doc);
            out.okLine = "metrics ok: " + path;
            return out;
        }
        for (const Format &f : kFormats) {
            if (kind != f.schema)
                continue;
            format_rule = f.rule;
            const auto [runs, n] = f.check(doc);
            out.okLine = std::string(f.name) + " ok: " + path + " (" +
                         std::to_string(runs) + " runs, " +
                         std::to_string(n) + " " + f.unit + ")";
            return out;
        }
        if (parsed->find("traceEvents") == nullptr)
            fail("telemetry.schema",
                 "unrecognised document (expected prefsim-telemetry-v1,"
                 " prefsim-timeseries-v1, prefsim-profile-v1,"
                 " prefsim-critpath-v1, prefsim-analysis-v1 or a"
                 " traceEvents document)");
        format_rule = "telemetry.trace";
        out.traceEvents = checkTrace(doc);
        out.okLine = "trace ok: " + path + " (" +
                     std::to_string(out.traceEvents) + " events)";
    } catch (const Violation &v) {
        violation(v.rule, v.message);
    } catch (const obs::FormatError &e) {
        violation(format_rule, e.what());
    } catch (const JsonError &e) {
        violation("telemetry.schema", e.what());
    }
    return out;
}

} // namespace verify
} // namespace prefsim
