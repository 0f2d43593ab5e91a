/**
 * @file
 * Structural validator for the observability layer's JSON outputs.
 *
 *   validate_telemetry [--json] FILE.json [FILE.json ...]
 *
 * Strict-parses each file (common/json.hh — the same parser the result
 * cache uses to detect corruption), dispatches on its schema, and
 * checks shape:
 *
 *  - prefsim-telemetry-v1 (--metrics-out) must carry the sweep stage
 *    counters/timings, and any histogram present must be internally
 *    consistent (counts match bounds, bucket totals + under/overflow
 *    == count, the summary block agrees with the raw buckets);
 *  - prefsim-timeseries-v1 (--timeseries-out) must have interval >= 1
 *    per run, a strictly increasing cycle column, every column the
 *    advertised sample count long, per-window widths >= 1 that sum to
 *    the covered span, and proc_columns shaped [procs][samples];
 *  - prefsim-profile-v1 (--profile-out) must list each run's lines in
 *    strictly ascending address order with the full per-line counter
 *    set, and the run's totals block must equal the sum of its rows
 *    (the Table 3 consistency contract);
 *  - prefsim-critpath-v1 (--critpath-out) must carry exactly the
 *    closed resource-class set per run, per-class path cycles that sum
 *    to the critical-path length, non-negative slack, what-if speedups
 *    >= 1.0 with predicted cycles <= the measured total, and a chain
 *    of non-overlapping segments in ascending time order;
 *  - prefsim-analysis-v1 (prefsim_analyze --json) must sum its
 *    per-class prefetch counts back to the run total, list ledger
 *    lines in strictly ascending address order, carry well-formed
 *    dotted rule ids on every finding, and — when a validation block
 *    is present — have confusion-matrix cells that sum exactly to the
 *    profiled issued-prefetch count;
 *  - runs in either per-run document may instead carry
 *    `"skipped": "cache-hit"` — the sweep loaded that point from the
 *    result cache and never simulated it;
 *  - a Chrome trace-event document (--trace-out): a traceEvents array
 *    whose synchronous B/E events pair up in stack order per
 *    (pid, tid), whose async b/e events pair by (cat, id, scope), and
 *    whose timestamps are monotone per pid.
 *
 * Violations are reported in the shared verification vocabulary
 * (src/verify/finding.hh) under the telemetry.* rules; --json emits a
 * prefsim-findings-v1 document. Exit codes: 0 everything holds,
 * 1 violations, 2 usage or I/O error — the convention shared by
 * prefsim_lint and prefsim_verify. scripts/check.sh runs this over the
 * bench telemetry and Chrome-trace output of the default build.
 */

#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/json.hh"
#include "verify/finding.hh"

namespace
{

using prefsim::JsonValue;
using prefsim::JsonWriter;
using namespace prefsim::verify;

/** A structural violation; aborts the containing check. */
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

std::string
slurp(const char *path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::cerr << "validate_telemetry: cannot open " << path << "\n";
        std::exit(kExitUsage);
    }
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

const JsonValue &
need(const JsonValue &obj, const std::string &key,
     const std::string &where)
{
    const JsonValue *v = obj.find(key);
    if (!v)
        fail("telemetry.schema", where + " is missing \"" + key + "\"");
    return *v;
}

void
checkHistogram(const std::string &name, const JsonValue &h)
{
    const auto &bounds = need(h, "bounds", name).array();
    const auto &counts = need(h, "counts", name).array();
    if (bounds.empty())
        fail("telemetry.histogram", name + ": empty bounds");
    if (counts.size() + 1 != bounds.size())
        fail("telemetry.histogram", name + ": counts/bounds size mismatch");
    for (std::size_t i = 1; i < bounds.size(); ++i) {
        if (bounds[i].asU64() <= bounds[i - 1].asU64())
            fail("telemetry.histogram",
                 name + ": bounds not strictly ascending");
    }
    std::uint64_t total = need(h, "underflow", name).asU64() +
                          need(h, "overflow", name).asU64();
    for (const JsonValue &c : counts)
        total += c.asU64();
    if (total != need(h, "count", name).asU64())
        fail("telemetry.histogram",
             name + ": bucket totals do not sum to count");

    // The derived summary block must agree with the raw buckets.
    const JsonValue &s = need(h, "summary", name);
    if (need(s, "count", name).asU64() != total)
        fail("telemetry.histogram",
             name + ": summary count disagrees with buckets");
    if (need(s, "sum", name).asU64() != need(h, "sum", name).asU64())
        fail("telemetry.histogram",
             name + ": summary sum disagrees with histogram sum");
    const double p50 = need(s, "p50", name).asDouble();
    const double p90 = need(s, "p90", name).asDouble();
    const double p99 = need(s, "p99", name).asDouble();
    if (p50 > p90 || p90 > p99)
        fail("telemetry.histogram",
             name + ": percentiles are not monotone (p50<=p90<=p99)");
    if (need(s, "min_bound", name).asU64() >
        need(s, "max_bound", name).asU64())
        fail("telemetry.histogram",
             name + ": summary min_bound exceeds max_bound");
}

void
checkMetrics(const JsonValue &doc)
{
    const JsonValue &sweep = need(doc, "sweep", "document");
    for (const char *key :
         {"traces_generated", "annotations_run", "simulations_run",
          "cache_hits", "cache_stores", "cache_rejected",
          "simulated_cycles", "simulated_refs", "trace_nanos",
          "annotate_nanos", "simulate_nanos"}) {
        need(sweep, key, "sweep");
    }
    if (const JsonValue *metrics = doc.find("metrics")) {
        const JsonValue &hists = need(*metrics, "histograms", "metrics");
        for (const auto &[name, h] : hists.members())
            checkHistogram(name, h);
    }
    if (const JsonValue *tracing = doc.find("tracing")) {
        need(*tracing, "enabled", "tracing");
        need(*tracing, "sessions", "tracing");
        need(*tracing, "events", "tracing");
        // Ring-buffer truncation must be visible, not silent: a trace
        // that dropped events advertises how many.
        need(*tracing, "dropped_events", "tracing");
    }
    if (const JsonValue *profile = doc.find("profile")) {
        need(*profile, "enabled", "profile");
        need(*profile, "runs", "profile");
        need(*profile, "lines", "profile");
    }
}

/** A run loaded from the sweep's result cache carries a skip marker
 *  instead of data; accept (and report) it in both per-run schemas. */
bool
isSkippedRun(const JsonValue &run, const std::string &where,
             const char *rule)
{
    const JsonValue *skipped = run.find("skipped");
    if (!skipped)
        return false;
    if (!skipped->isString() || skipped->asString() != "cache-hit")
        fail(rule, where + ": \"skipped\" must be \"cache-hit\"");
    return true;
}

/** One run's column must be an array of the advertised length. */
const std::vector<JsonValue> &
needColumn(const JsonValue &columns, const char *key,
           std::size_t samples, const std::string &where)
{
    const JsonValue &col = need(columns, key, where);
    if (!col.isArray())
        fail("telemetry.timeseries",
             where + ": column \"" + std::string(key) +
                 "\" is not an array");
    if (col.array().size() != samples)
        fail("telemetry.timeseries",
             where + ": column \"" + std::string(key) + "\" has " +
                 std::to_string(col.array().size()) + " entries, " +
                 "expected " + std::to_string(samples));
    return col.array();
}

/** Returns (runs, total samples) for the ok line. */
std::pair<std::size_t, std::uint64_t>
checkTimeseries(const JsonValue &doc)
{
    const JsonValue &runs = need(doc, "runs", "document");
    if (!runs.isArray())
        fail("telemetry.timeseries", "runs is not an array");
    std::uint64_t total_samples = 0;
    for (const JsonValue &run : runs.array()) {
        const std::string where =
            "run \"" + need(run, "label", "run").asString() + "\"";
        if (isSkippedRun(run, where, "telemetry.timeseries"))
            continue;
        const std::uint64_t interval =
            need(run, "interval", where).asU64();
        if (interval < 1)
            fail("telemetry.timeseries",
                 where + ": interval must be at least 1");
        const std::uint64_t procs = need(run, "procs", where).asU64();
        const std::size_t samples =
            static_cast<std::size_t>(need(run, "samples", where).asU64());
        const std::uint64_t warmup_end =
            need(run, "warmup_end", where).asU64();
        total_samples += samples;

        const JsonValue &columns = need(run, "columns", where);
        const auto &cycle =
            needColumn(columns, "cycle", samples, where);
        const auto &window =
            needColumn(columns, "window", samples, where);
        // Windows tile the covered span: each row accounts for exactly
        // the cycles since the previous boundary, except that the first
        // row past warmup_end measures from the warmup rebase point
        // (stats were reset there, discarding the cycles in between).
        std::uint64_t prev_cycle = 0;
        for (std::size_t i = 0; i < samples; ++i) {
            const std::uint64_t c = cycle[i].asU64();
            if (c <= prev_cycle)
                fail("telemetry.timeseries",
                     where + ": cycle column is not strictly "
                             "increasing at sample " +
                         std::to_string(i));
            const std::uint64_t w = window[i].asU64();
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

        const JsonValue &proc_columns =
            need(run, "proc_columns", where);
        for (const char *key :
             {"busy", "stall_demand", "stall_upgrade",
              "stall_prefetch_queue", "spin_lock", "wait_barrier"}) {
            const JsonValue &per_proc =
                need(proc_columns, key, where);
            if (!per_proc.isArray() ||
                per_proc.array().size() != procs)
                fail("telemetry.timeseries",
                     where + ": proc column \"" + std::string(key) +
                         "\" is not [procs] arrays");
            for (const JsonValue &col : per_proc.array()) {
                if (!col.isArray() || col.array().size() != samples)
                    fail("telemetry.timeseries",
                         where + ": proc column \"" + std::string(key) +
                             "\" rows must each hold " +
                             std::to_string(samples) + " samples");
            }
        }
    }
    return {runs.array().size(), total_samples};
}

/** Returns (runs, total lines) for the ok line. */
std::pair<std::size_t, std::uint64_t>
checkProfile(const JsonValue &doc)
{
    const JsonValue &runs = need(doc, "runs", "document");
    if (!runs.isArray())
        fail("telemetry.profile", "runs is not an array");
    std::uint64_t total_lines = 0;
    for (const JsonValue &run : runs.array()) {
        const std::string where =
            "run \"" + need(run, "label", "run").asString() + "\"";
        if (isSkippedRun(run, where, "telemetry.profile"))
            continue;
        const std::uint64_t procs = need(run, "procs", where).asU64();
        need(run, "warmup_end", where);
        const JsonValue &lines = need(run, "lines", where);
        if (!lines.isArray())
            fail("telemetry.profile", where + ": lines is not an array");
        total_lines += lines.array().size();

        // Sum the rows while walking them; the totals block below must
        // agree exactly (Table 3 aggregates == Σ per-line attribution).
        std::map<std::string, std::uint64_t> sum;
        std::uint64_t prev_addr = 0;
        bool first = true;
        for (const JsonValue &l : lines.array()) {
            const std::uint64_t addr = need(l, "addr", where).asU64();
            if (!first && addr <= prev_addr)
                fail("telemetry.profile",
                     where + ": line addresses are not strictly "
                             "ascending at 0x" +
                         std::to_string(addr));
            first = false;
            prev_addr = addr;
            std::uint64_t misses = 0;
            for (const char *key :
                 {"miss_nonsharing", "miss_nonsharing_prefetched",
                  "miss_invalidation", "miss_invalidation_prefetched",
                  "miss_prefetch_inflight"}) {
                misses += need(l, key, where).asU64();
            }
            sum["misses"] += misses;
            sum["miss_invalidation"] +=
                need(l, "miss_invalidation", where).asU64() +
                need(l, "miss_invalidation_prefetched", where).asU64();
            sum["miss_false_sharing"] +=
                need(l, "miss_false_sharing", where).asU64();
            sum["invalidations"] +=
                need(l, "invalidations", where).asU64();
            if (need(l, "invalidations_false", where).asU64() >
                need(l, "invalidations", where).asU64())
                fail("telemetry.profile",
                     where + ": invalidations_false exceeds "
                             "invalidations");
            sum["downgrades"] += need(l, "downgrades", where).asU64();
            need(l, "inflight_kills", where);
            sum["bus_cycles"] += need(l, "bus_cycles", where).asU64();
            sum["bus_cycles_prefetch"] +=
                need(l, "bus_cycles_prefetch", where).asU64();
            if (need(l, "bus_ops", where).asU64() == 0 &&
                need(l, "bus_cycles", where).asU64() != 0)
                fail("telemetry.profile",
                     where + ": bus cycles without bus operations");
            const JsonValue &pf = need(l, "pf", where);
            if (!pf.isArray())
                fail("telemetry.profile",
                     where + ": pf is not an array");
            for (const JsonValue &p : pf.array()) {
                if (need(p, "proc", where).asU64() >= procs)
                    fail("telemetry.profile",
                         where + ": pf proc out of range");
                sum["pf_issued"] += need(p, "issued", where).asU64();
                sum["pf_useful"] += need(p, "useful", where).asU64();
                sum["pf_late"] += need(p, "late", where).asU64();
                need(p, "lateness_cycles", where);
                sum["pf_killed"] += need(p, "killed", where).asU64();
                sum["pf_displaced"] +=
                    need(p, "displaced", where).asU64();
            }
        }
        const JsonValue &totals = need(run, "totals", where);
        for (const auto &[key, value] : sum) {
            if (need(totals, key, where + " totals").asU64() != value)
                fail("telemetry.profile",
                     where + ": totals \"" + key +
                         "\" does not equal the sum of its rows");
        }
    }
    return {runs.array().size(), total_lines};
}

/** Returns (runs, total chain segments) for the ok line. */
std::pair<std::size_t, std::uint64_t>
checkCritPath(const JsonValue &doc)
{
    // The closed resource-class set; the schema may not grow keys
    // silently (obs/critpath/critpath.hh keeps the enum in sync).
    static const char *kClasses[] = {
        "compute",       "bus_arb", "data_transfer", "memory_latency",
        "coherence_inval", "lock",  "barrier",       "prefetch_stall"};
    const JsonValue &runs = need(doc, "runs", "document");
    if (!runs.isArray())
        fail("telemetry.critpath", "runs is not an array");
    std::uint64_t total_segs = 0;
    for (const JsonValue &run : runs.array()) {
        const std::string where =
            "run \"" + need(run, "label", "run").asString() + "\"";
        if (isSkippedRun(run, where, "telemetry.critpath"))
            continue;
        need(run, "procs", where);
        const std::uint64_t warmup_end =
            need(run, "warmup_end", where).asU64();
        const std::uint64_t end_cycle =
            need(run, "end_cycle", where).asU64();
        const std::uint64_t total =
            need(run, "total_cycles", where).asU64();
        if (end_cycle < warmup_end || end_cycle - warmup_end != total)
            fail("telemetry.critpath",
                 where + ": total_cycles does not equal "
                         "end_cycle - warmup_end");

        // Exactly the closed class set, with Σ path cycles == total.
        const JsonValue &resources = need(run, "resources", where);
        std::set<std::string> seen;
        for (const auto &[name, r] : resources.members()) {
            bool known = false;
            for (const char *c : kClasses)
                known = known || name == c;
            if (!known)
                fail("telemetry.critpath",
                     where + ": unknown resource class \"" + name +
                         "\"");
            seen.insert(name);
            need(r, "cycles", where);
            need(r, "slack", where); // Unsigned by schema: slack >= 0.
        }
        std::uint64_t class_sum = 0;
        for (const char *c : kClasses) {
            if (!seen.count(c))
                fail("telemetry.critpath",
                     where + ": missing resource class \"" +
                         std::string(c) + "\"");
            class_sum +=
                need(need(resources, c, where), "cycles", where).asU64();
        }
        if (class_sum != total)
            fail("telemetry.critpath",
                 where + ": per-class path cycles do not sum to "
                         "total_cycles");

        const JsonValue &whatif = need(run, "whatif", where);
        if (!whatif.isArray())
            fail("telemetry.critpath", where + ": whatif is not an array");
        for (const JsonValue &w : whatif.array()) {
            const std::string scenario =
                need(w, "scenario", where).asString();
            const std::uint64_t predicted =
                need(w, "predicted_cycles", where).asU64();
            if (predicted > total)
                fail("telemetry.critpath",
                     where + ": \"" + scenario +
                         "\" predicts more cycles than measured");
            if (need(w, "speedup", where).asDouble() < 1.0)
                fail("telemetry.critpath",
                     where + ": \"" + scenario + "\" speedup below 1.0");
            if (const JsonValue *drift = w.find("drift")) {
                if (drift->asDouble() < 0.0)
                    fail("telemetry.critpath",
                         where + ": \"" + scenario +
                             "\" drift is negative");
                need(w, "actual_cycles", where);
            }
        }

        // The chain tiles forward in time: half-open, non-overlapping,
        // ascending (segments may be sparse — only the top K survive).
        const JsonValue &chain = need(run, "chain", where);
        if (!chain.isArray())
            fail("telemetry.critpath", where + ": chain is not an array");
        total_segs += chain.array().size();
        std::uint64_t prev_end = warmup_end;
        for (const JsonValue &seg : chain.array()) {
            const std::uint64_t start = need(seg, "start", where).asU64();
            const std::uint64_t end = need(seg, "end", where).asU64();
            if (start >= end)
                fail("telemetry.critpath",
                     where + ": empty or inverted chain segment");
            if (start < prev_end)
                fail("telemetry.critpath",
                     where + ": chain segments overlap or regress");
            if (end > end_cycle)
                fail("telemetry.critpath",
                     where + ": chain segment past end_cycle");
            if (need(seg, "cycles", where).asU64() != end - start)
                fail("telemetry.critpath",
                     where + ": chain segment cycles != end - start");
            const std::string cls =
                need(seg, "class", where).asString();
            bool known = false;
            for (const char *c : kClasses)
                known = known || cls == c;
            if (!known)
                fail("telemetry.critpath",
                     where + ": unknown chain class \"" + cls + "\"");
            need(seg, "proc", where);
            prev_end = end;
        }

        const JsonValue &lines = need(run, "lines", where);
        if (!lines.isArray())
            fail("telemetry.critpath", where + ": lines is not an array");
        std::uint64_t prev_addr = 0;
        bool first = true;
        for (const JsonValue &l : lines.array()) {
            const std::uint64_t addr = need(l, "line", where).asU64();
            if (!first && addr <= prev_addr)
                fail("telemetry.critpath",
                     where + ": line addresses are not strictly "
                             "ascending");
            first = false;
            prev_addr = addr;
            need(l, "cycles", where);
        }
    }
    return {runs.array().size(), total_segs};
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

/** Returns (runs, total prefetches) for the ok line. */
std::pair<std::size_t, std::uint64_t>
checkAnalysis(const JsonValue &doc)
{
    const JsonValue &runs = need(doc, "runs", "document");
    if (!runs.isArray())
        fail("telemetry.analysis", "runs is not an array");
    std::uint64_t total_prefetches = 0;
    for (const JsonValue &run : runs.array()) {
        const std::string where =
            "run \"" + need(run, "label", "run").asString() + "\"";
        const std::uint64_t procs = need(run, "procs", where).asU64();
        const std::uint64_t prefetches =
            need(run, "prefetches", where).asU64();
        total_prefetches += prefetches;
        std::uint64_t class_total = 0;
        for (const char *key :
             {"pf_timely", "pf_late", "pf_useless", "pf_redundant"}) {
            class_total += need(run, key, where).asU64();
        }
        if (class_total != prefetches)
            fail("telemetry.analysis",
                 where + ": class totals do not sum to prefetches");

        const JsonValue &bounds = need(run, "bounds", where);
        if (need(bounds, "floor", where).asU64() >
                need(bounds, "fill", where).asU64() ||
            need(bounds, "fill", where).asU64() >
                need(bounds, "contention", where).asU64())
            fail("telemetry.analysis",
                 where + ": latency bounds are not monotone "
                         "(floor<=fill<=contention)");
        const JsonValue &race = need(run, "race", where);
        if (need(race, "lock_serialised", where).asU64() >
            need(race, "race_candidates", where).asU64())
            fail("telemetry.analysis",
                 where + ": lock_serialised exceeds race_candidates");
        if (need(race, "race_candidates", where).asU64() >
            need(race, "words_checked", where).asU64())
            fail("telemetry.analysis",
                 where + ": race_candidates exceeds words_checked");

        // The per-line ledger must be ascending and sum back to the
        // run's class totals (same contract as the profile schema).
        const JsonValue &lines = need(run, "lines", where);
        if (!lines.isArray())
            fail("telemetry.analysis", where + ": lines is not an array");
        std::map<std::string, std::uint64_t> sum;
        std::uint64_t prev_addr = 0;
        bool first = true;
        for (const JsonValue &l : lines.array()) {
            const std::uint64_t addr = need(l, "addr", where).asU64();
            if (!first && addr <= prev_addr)
                fail("telemetry.analysis",
                     where + ": line addresses are not strictly "
                             "ascending at 0x" +
                         std::to_string(addr));
            first = false;
            prev_addr = addr;
            const JsonValue &pf = need(l, "pf", where);
            if (!pf.isArray())
                fail("telemetry.analysis", where + ": pf is not an array");
            for (const JsonValue &p : pf.array()) {
                if (need(p, "proc", where).asU64() >= procs)
                    fail("telemetry.analysis",
                         where + ": pf proc out of range");
                for (const char *key :
                     {"timely", "late", "useless", "redundant"}) {
                    sum[key] += need(p, key, where).asU64();
                }
            }
        }
        for (const char *key :
             {"timely", "late", "useless", "redundant"}) {
            if (sum[key] !=
                need(run, ("pf_" + std::string(key)).c_str(), where)
                    .asU64())
                fail("telemetry.analysis",
                     where + ": pf_" + key +
                         " does not equal the sum of its lines");
        }

        if (const JsonValue *v = run.find("validation")) {
            need(*v, "profile_label", where);
            need(*v, "uncovered", where);
            const double recall =
                need(*v, "late_recall", where).asDouble();
            if (recall < 0.0 || recall > 1.0)
                fail("telemetry.analysis",
                     where + ": late_recall outside [0,1]");
            need(*v, "late_floor", where);
            const JsonValue &matrix = need(*v, "matrix", where);
            if (!matrix.isArray() || matrix.array().size() != 4)
                fail("telemetry.analysis",
                     where + ": matrix must have 4 predicted rows");
            std::uint64_t matrix_total = 0;
            for (const JsonValue &row : matrix.array()) {
                need(row, "predicted", where);
                for (const char *key :
                     {"late", "useless", "timely", "other"}) {
                    matrix_total += need(row, key, where).asU64();
                }
            }
            // The reconciliation contract: every issued prefetch lands
            // in exactly one cell.
            if (matrix_total != need(*v, "pf_issued", where).asU64())
                fail("telemetry.analysis",
                     where + ": matrix cells do not sum to pf_issued");
        }
    }

    const JsonValue &findings = need(doc, "findings", "document");
    if (!findings.isArray())
        fail("telemetry.analysis", "findings is not an array");
    for (const JsonValue &f : findings.array()) {
        const std::string &rule = need(f, "rule", "finding").asString();
        if (!isRuleId(rule))
            fail("telemetry.analysis",
                 "malformed rule id \"" + rule + "\"");
        const std::string &sev =
            need(f, "severity", "finding").asString();
        if (sev != "warning" && sev != "error")
            fail("telemetry.analysis",
                 "finding severity must be warning or error");
        need(f, "message", "finding");
        need(f, "location", "finding");
    }
    return {runs.array().size(), total_prefetches};
}

std::size_t
checkTrace(const JsonValue &doc)
{
    const JsonValue &events = need(doc, "traceEvents", "document");
    if (!events.isArray())
        fail("telemetry.trace", "traceEvents is not an array");

    std::map<std::uint64_t, std::uint64_t> last_ts;
    std::map<std::pair<std::uint64_t, std::uint64_t>,
             std::vector<std::string>>
        open_spans;
    std::map<std::tuple<std::string, std::uint64_t, std::string>,
             long>
        open_async;
    std::size_t emitted = 0;

    for (const JsonValue &ev : events.array()) {
        const std::string ph = need(ev, "ph", "event").asString();
        const std::uint64_t pid = need(ev, "pid", "event").asU64();
        if (ph == "M")
            continue;
        ++emitted;
        const std::uint64_t ts = need(ev, "ts", "event").asU64();
        const std::uint64_t tid = need(ev, "tid", "event").asU64();
        const auto it = last_ts.find(pid);
        if (it != last_ts.end() && ts < it->second)
            fail("telemetry.trace", "timestamps regress within one pid");
        last_ts[pid] = ts;

        const std::string &name = need(ev, "name", "event").asString();
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
            const auto key = std::make_tuple(
                need(ev, "cat", "event").asString(),
                need(ev, "id", "event").asU64(),
                need(ev, "scope", "event").asString());
            long &open = open_async[key];
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

} // namespace

int
main(int argc, char **argv)
{
    bool json = false;
    std::vector<const char *> paths;
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--json")
            json = true;
        else
            paths.push_back(argv[i]);
    }
    if (paths.empty()) {
        std::cerr << "usage: validate_telemetry [--json] FILE.json "
                     "[FILE.json ...]\n";
        return kExitUsage;
    }

    std::vector<Finding> findings;
    std::size_t trace_events = 0;
    std::vector<std::string> ok_lines;
    // Each file declares what it is: dispatch on its "schema" string
    // (or the traceEvents array, which Chrome's format carries instead
    // of a schema tag).
    auto checkFile = [&](const char *path) {
        const auto doc = prefsim::parseJson(slurp(path));
        if (!doc)
            fail("telemetry.parse", "file is not strict JSON");
        const JsonValue *schema = doc->find("schema");
        const std::string kind =
            schema && schema->isString() ? schema->asString() : "";
        if (kind == "prefsim-telemetry-v1") {
            checkMetrics(*doc);
            ok_lines.push_back("metrics ok: " + std::string(path));
        } else if (kind == "prefsim-timeseries-v1") {
            const auto [runs, samples] = checkTimeseries(*doc);
            ok_lines.push_back(
                "timeseries ok: " + std::string(path) + " (" +
                std::to_string(runs) + " runs, " +
                std::to_string(samples) + " samples)");
        } else if (kind == "prefsim-profile-v1") {
            const auto [runs, lines] = checkProfile(*doc);
            ok_lines.push_back(
                "profile ok: " + std::string(path) + " (" +
                std::to_string(runs) + " runs, " +
                std::to_string(lines) + " lines)");
        } else if (kind == "prefsim-critpath-v1") {
            const auto [runs, segs] = checkCritPath(*doc);
            ok_lines.push_back(
                "critpath ok: " + std::string(path) + " (" +
                std::to_string(runs) + " runs, " +
                std::to_string(segs) + " chain segments)");
        } else if (kind == "prefsim-analysis-v1") {
            const auto [runs, prefetches] = checkAnalysis(*doc);
            ok_lines.push_back(
                "analysis ok: " + std::string(path) + " (" +
                std::to_string(runs) + " runs, " +
                std::to_string(prefetches) + " prefetches)");
        } else if (doc->find("traceEvents") != nullptr) {
            trace_events += checkTrace(*doc);
            ok_lines.push_back("trace ok: " + std::string(path) + " (" +
                               std::to_string(trace_events) +
                               " events)");
        } else {
            fail("telemetry.schema",
                 "unrecognised document (expected prefsim-telemetry-v1,"
                 " prefsim-timeseries-v1, prefsim-profile-v1,"
                 " prefsim-critpath-v1, prefsim-analysis-v1 or a"
                 " traceEvents document)");
        }
    };
    for (const char *path : paths) {
        try {
            checkFile(path);
        } catch (const Violation &v) {
            Finding f;
            f.rule = v.rule;
            f.message = v.message;
            f.location = path;
            findings.push_back(std::move(f));
        }
    }

    if (json) {
        JsonWriter j(std::cout);
        j.beginObject();
        j.key("schema").value("prefsim-findings-v1");
        j.key("tool").value("validate_telemetry");
        j.key("trace_events").value(std::uint64_t{trace_events});
        writeFindingsJson(j, findings);
        j.key("ok").value(findings.empty());
        j.endObject();
        std::cout << "\n";
    } else {
        writeFindingsText(std::cout, findings);
        for (const std::string &line : ok_lines)
            std::cout << line << "\n";
    }
    return findingsExitCode(findings);
}
