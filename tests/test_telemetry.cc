/**
 * @file
 * Tests for the telemetry document formats: the per-run store, the
 * strict profile and critical-path readers, and the telemetry.* rules
 * of verify::checkTelemetry (the library behind validate_telemetry).
 *
 * The rule table starts from real documents — small instrumented
 * sweeps plus one validated static analysis — and applies one mutation
 * per check, asserting the rule id and the diagnostic it reports.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analysis_json.hh"
#include "analysis/cross_validate.hh"
#include "analysis/prefetch_quality.hh"
#include "analysis/race_detect.hh"
#include "common/json.hh"
#include "core/sweep.hh"
#include "mem/split_bus.hh"
#include "prefetch/inserter.hh"
#include "sim/simulator.hh"
#include "trace/workload.hh"
#include "verify/telemetry_check.hh"

namespace prefsim
{
namespace
{

enum class Doc { Metrics, Trace, Timeseries, Profile, CritPath, Analysis };

WorkloadParams
smallParams()
{
    WorkloadParams p;
    p.numProcs = 4;
    p.refsPerProc = 600;
    p.seed = 5;
    return p;
}

/** The documents of one small instrumented simulation: metrics and
 *  the Chrome trace when @p traced (tracing's fixed-size ring buffers
 *  dominate the cost), else the three per-run documents. */
std::vector<std::string>
sweepDocuments(bool traced)
{
    SweepOptions so;
    so.metrics = traced;
    so.tracing = traced;
    so.sampleInterval = traced ? 0 : 300;
    so.profile = !traced;
    so.critpath = !traced;
    so.whatifValidate = !traced;
    SweepEngine engine(smallParams(), CacheGeometry::paperDefault(), so);
    engine.enqueue(WorkloadKind::Mp3d, false, Strategy::PREF, 8);
    engine.runPending();
    std::ostringstream a, b, c;
    if (traced) {
        engine.writeTelemetryJson(a);
        engine.obs()->tracer.exportChromeTrace(b);
        return {a.str(), b.str()};
    }
    engine.writeTimeseriesJson(a);
    engine.writeProfileJson(b);
    engine.writeCritPathJson(c);
    return {a.str(), b.str(), c.str()};
}

/** The prefsim_analyze --json --validate pipeline, in process. */
std::string
analysisDocument()
{
    const CacheGeometry geom = CacheGeometry::paperDefault();
    const AnnotatedTrace annotated = annotateTrace(
        generateWorkload(WorkloadKind::Topopt, smallParams()),
        Strategy::PREF, geom);
    analysis::AnalysisRun run;
    run.label = "topopt/PREF@8";
    run.procs = smallParams().numProcs;
    run.quality = analysis::analyzePrefetchQuality(annotated.trace, geom,
                                                   BusTiming{});
    run.race = analysis::detectRaces(annotated.trace);
    ObsContext obs;
    SimConfig cfg;
    cfg.obs = &obs;
    cfg.profile = true;
    cfg.traceLabel = run.label;
    simulate(annotated.trace, cfg);
    run.validation = analysis::crossValidate(
        run.quality, obs.profile.snapshot().at(0), 0.0);
    std::ostringstream os;
    analysis::writeAnalysisJson(os, {run}, analysis::collectFindings(run));
    return os.str();
}

/** One instance of each document kind, generated on first use. */
const std::string &
document(Doc kind)
{
    switch (kind) {
      case Doc::Metrics:
      case Doc::Trace: {
        static const std::vector<std::string> docs =
            sweepDocuments(true);
        return docs.at(kind == Doc::Metrics ? 0 : 1);
      }
      case Doc::Analysis: {
        static const std::string doc = analysisDocument();
        return doc;
      }
      default: {
        static const std::vector<std::string> docs =
            sweepDocuments(false);
        return docs.at(static_cast<std::size_t>(kind) -
                       static_cast<std::size_t>(Doc::Timeseries));
      }
    }
}

// A path addresses one value of a compact document: "runs/0/lines/1/addr"
// (object keys and array indices separated by '/'; histogram names
// contain dots).

/** End of the JSON value that starts at @p p. */
std::size_t
valueEnd(const std::string &t, std::size_t p)
{
    const char first = t.at(p);
    if (first == '"') {
        for (++p; t.at(p) != '"'; ++p)
            p += t[p] == '\\';
        return p + 1;
    }
    if (first != '{' && first != '[') {
        while (p < t.size() && t[p] != ',' && t[p] != '}' && t[p] != ']')
            ++p;
        return p;
    }
    int depth = 0;
    for (;; ++p) {
        const char c = t.at(p);
        if (c == '"')
            p = valueEnd(t, p) - 1;
        else if (c == '{' || c == '[')
            ++depth;
        else if ((c == '}' || c == ']') && --depth == 0)
            return p + 1;
    }
}

/** [begin, end) of the value at @p path. */
std::pair<std::size_t, std::size_t>
locate(const std::string &t, const std::string &path)
{
    std::size_t p = 0;
    std::istringstream steps(path);
    std::string step;
    while (std::getline(steps, step, '/')) {
        if (t.at(p) == '[') {
            ++p;
            for (unsigned long i = std::stoul(step); i > 0; --i)
                p = valueEnd(t, p) + 1;
            continue;
        }
        ++p; // '{'
        for (;;) {
            const std::size_t key_end = valueEnd(t, p);
            const bool match = t.compare(p + 1, key_end - p - 2, step) == 0;
            p = key_end + 1; // ':'
            if (match)
                break;
            p = valueEnd(t, p) + 1;
        }
    }
    return {p, valueEnd(t, p)};
}

std::string
get(const std::string &doc, const std::string &path)
{
    const auto [begin, end] = locate(doc, path);
    return doc.substr(begin, end - begin);
}

std::uint64_t
getU64(const std::string &doc, const std::string &path)
{
    return std::stoull(get(doc, path));
}

/** @p doc with the value at @p path replaced by raw JSON @p value. */
std::string
set(const std::string &doc, const std::string &path,
    const std::string &value)
{
    const auto [begin, end] = locate(doc, path);
    return doc.substr(0, begin) + value + doc.substr(end);
}

std::string
setU64(const std::string &doc, const std::string &path, std::uint64_t v)
{
    return set(doc, path, std::to_string(v));
}

/** @p doc with @p events prepended to its traceEvents array. */
std::string
prependEvents(const std::string &doc, const std::string &events)
{
    const std::size_t at = doc.find("\"traceEvents\":[") + 15;
    return doc.substr(0, at) + events + "," + doc.substr(at);
}

/** Index of the first array element under @p array whose member
 *  @p key satisfies @p pred. */
std::size_t
firstWhere(const std::string &doc, const std::string &array,
           const std::string &key,
           const std::function<bool(const std::string &)> &pred)
{
    for (std::size_t i = 0;; ++i) {
        const std::string elem = array + "/" + std::to_string(i);
        if (pred(get(doc, elem + "/" + key)))
            return i;
    }
}

const auto kNonZero = [](const std::string &v) { return v != "0"; };
const auto kNonEmpty = [](const std::string &v) { return v != "[]"; };

// A per-run skip marker other than "cache-hit" on the first run.
std::string
badSkipMarker(const std::string &doc)
{
    const std::size_t at = doc.find("{\"label\":");
    return doc.substr(0, at + 1) + "\"skipped\":\"lost\"," +
           doc.substr(at + 1);
}

struct Mutation
{
    const char *name;
    Doc doc;
    std::function<std::string(const std::string &)> apply;
    const char *rule;
    const char *message; ///< Substring of the finding's message.
};

std::ostream &
operator<<(std::ostream &os, const Mutation &m)
{
    return os << m.name;
}

const std::string kHist = "metrics/histograms/bus.queue_depth/";

const std::vector<Mutation> &
mutations()
{
    static const std::vector<Mutation> table = {
        // --- any document ---------------------------------------------
        {"Truncated", Doc::Profile,
         [](const std::string &d) { return d.substr(0, d.size() / 2); },
         "telemetry.parse", "not strict JSON"},
        {"UnknownSchema", Doc::Profile,
         [](const std::string &d) {
             return set(d, "schema", "\"prefsim-other-v1\"");
         },
         "telemetry.schema", "unrecognised document"},

        // --- prefsim-telemetry-v1 ---------------------------------------
        {"MetricsMissingSweepCounter", Doc::Metrics,
         [](const std::string &d) { return set(d, "sweep", "{}"); },
         "telemetry.schema", "missing \"traces_generated\""},
        {"MetricsTracingWithoutDropCount", Doc::Metrics,
         [](const std::string &d) {
             return set(d, "tracing",
                        "{\"enabled\":true,\"sessions\":1,\"events\":1}");
         },
         "telemetry.schema", "missing \"dropped_events\""},
        {"HistogramEmptyBounds", Doc::Metrics,
         [](const std::string &d) { return set(d, kHist + "bounds", "[]"); },
         "telemetry.histogram", "empty bounds"},
        {"HistogramCountsBoundsMismatch", Doc::Metrics,
         [](const std::string &d) { return set(d, kHist + "counts", "[]"); },
         "telemetry.histogram", "counts/bounds size mismatch"},
        {"HistogramBoundsNotAscending", Doc::Metrics,
         [](const std::string &d) {
             return set(d, kHist + "bounds/1", get(d, kHist + "bounds/0"));
         },
         "telemetry.histogram", "bounds not strictly ascending"},
        {"HistogramBucketsNotCount", Doc::Metrics,
         [](const std::string &d) {
             return setU64(d, kHist + "count",
                           getU64(d, kHist + "count") + 1);
         },
         "telemetry.histogram", "bucket totals do not sum to count"},
        {"HistogramSummaryCount", Doc::Metrics,
         [](const std::string &d) {
             return setU64(d, kHist + "summary/count",
                           getU64(d, kHist + "summary/count") + 1);
         },
         "telemetry.histogram", "summary count disagrees"},
        {"HistogramBadSum", Doc::Metrics,
         [](const std::string &d) {
             return setU64(d, kHist + "summary/sum",
                           getU64(d, kHist + "summary/sum") + 1);
         },
         "telemetry.histogram", "summary sum disagrees"},
        {"HistogramPercentilesNotMonotone", Doc::Metrics,
         [](const std::string &d) {
             return set(d, kHist + "summary/p50", "1e9");
         },
         "telemetry.histogram", "percentiles are not monotone"},
        {"HistogramMinAboveMax", Doc::Metrics,
         [](const std::string &d) {
             return setU64(d, kHist + "summary/min_bound",
                           getU64(d, kHist + "summary/max_bound") + 1);
         },
         "telemetry.histogram", "min_bound exceeds max_bound"},
        {"HistogramNegativeCount", Doc::Metrics,
         [](const std::string &d) { return set(d, kHist + "count", "-1"); },
         "telemetry.schema", "bus.queue_depth.count"},

        // --- prefsim-timeseries-v1 --------------------------------------
        {"TimeseriesRunsNotArray", Doc::Timeseries,
         [](const std::string &d) { return set(d, "runs", "{}"); },
         "telemetry.timeseries", "runs: not an array"},
        {"TimeseriesBadSkipMarker", Doc::Timeseries, badSkipMarker,
         "telemetry.timeseries", "must be \"cache-hit\""},
        {"TimeseriesZeroInterval", Doc::Timeseries,
         [](const std::string &d) { return set(d, "runs/0/interval", "0"); },
         "telemetry.timeseries", "interval must be at least 1"},
        {"TimeseriesColumnNotArray", Doc::Timeseries,
         [](const std::string &d) {
             return set(d, "runs/0/columns/mshrs", "7");
         },
         "telemetry.timeseries", "column \"mshrs\" is not an array"},
        {"TimeseriesColumnLength", Doc::Timeseries,
         [](const std::string &d) {
             return set(d, "runs/0/columns/window", "[1]");
         },
         "telemetry.timeseries", "column \"window\" has 1 entries"},
        {"TimeseriesCycleNotIncreasing", Doc::Timeseries,
         [](const std::string &d) {
             return set(d, "runs/0/columns/cycle/1",
                        get(d, "runs/0/columns/cycle/0"));
         },
         "telemetry.timeseries", "not strictly increasing at sample 1"},
        {"TimeseriesZeroWindow", Doc::Timeseries,
         [](const std::string &d) {
             return set(d, "runs/0/columns/window/0", "0");
         },
         "telemetry.timeseries", "window must be at least 1"},
        {"TimeseriesWindowNotCycleStep", Doc::Timeseries,
         [](const std::string &d) {
             const std::string w = "runs/0/columns/window/1";
             return setU64(d, w, getU64(d, w) + 1);
         },
         "telemetry.timeseries", "window does not match the cycle step"},
        {"TimeseriesProcColumnShape", Doc::Timeseries,
         [](const std::string &d) {
             return set(d, "runs/0/proc_columns/busy", "[]");
         },
         "telemetry.timeseries", "\"busy\" is not [procs] arrays"},
        {"TimeseriesProcRowLength", Doc::Timeseries,
         [](const std::string &d) {
             return set(d, "runs/0/proc_columns/spin_lock/0", "[]");
         },
         "telemetry.timeseries", "rows must each hold"},

        // --- prefsim-profile-v1 -----------------------------------------
        {"ProfileProcsString", Doc::Profile,
         [](const std::string &d) { return set(d, "runs/0/procs", "\"2\""); },
         "telemetry.schema", "runs[0].procs: expected an unsigned"},
        {"ProfileMissingRowCounter", Doc::Profile,
         [](const std::string &d) {
             return set(d, "runs/0/lines/0", "{\"addr\":0}");
         },
         "telemetry.schema", "missing \"miss_nonsharing\""},
        {"ProfileRunsNotArray", Doc::Profile,
         [](const std::string &d) { return set(d, "runs", "7"); },
         "telemetry.profile", "runs: not an array"},
        {"ProfileBadSkipMarker", Doc::Profile, badSkipMarker,
         "telemetry.profile", "must be \"cache-hit\""},
        {"ProfileLinesNotArray", Doc::Profile,
         [](const std::string &d) { return set(d, "runs/0/lines", "{}"); },
         "telemetry.profile", "lines: not an array"},
        {"ProfileLinesNotAscending", Doc::Profile,
         [](const std::string &d) {
             return set(d, "runs/0/lines/1/addr",
                        get(d, "runs/0/lines/0/addr"));
         },
         "telemetry.profile", "not strictly ascending"},
        {"ProfileFalseInvalidationsExceedAll", Doc::Profile,
         [](const std::string &d) {
             const std::string l = "runs/0/lines/0/";
             return setU64(d, l + "invalidations_false",
                           getU64(d, l + "invalidations") + 1);
         },
         "telemetry.profile", "invalidations_false exceeds"},
        {"ProfileBusCyclesWithoutOps", Doc::Profile,
         [](const std::string &d) {
             const std::size_t i =
                 firstWhere(d, "runs/0/lines", "bus_cycles", kNonZero);
             return set(d, "runs/0/lines/" + std::to_string(i) + "/bus_ops",
                        "0");
         },
         "telemetry.profile", "bus cycles without bus operations"},
        {"ProfilePfNotArray", Doc::Profile,
         [](const std::string &d) {
             return set(d, "runs/0/lines/0/pf", "{}");
         },
         "telemetry.profile", "pf: not an array"},
        {"ProfilePfProcOutOfRange", Doc::Profile,
         [](const std::string &d) {
             const std::size_t i =
                 firstWhere(d, "runs/0/lines", "pf", kNonEmpty);
             return set(d,
                        "runs/0/lines/" + std::to_string(i) + "/pf/0/proc",
                        "99");
         },
         "telemetry.profile", "pf proc out of range"},
        {"ProfileTotalsNotRowSum", Doc::Profile,
         [](const std::string &d) {
             return setU64(d, "runs/0/totals/misses",
                           getU64(d, "runs/0/totals/misses") + 1);
         },
         "telemetry.profile", "totals.misses: does not equal the sum"},

        // --- prefsim-critpath-v1 ----------------------------------------
        {"CritPathLabelNumber", Doc::CritPath,
         [](const std::string &d) { return set(d, "runs/0/label", "7"); },
         "telemetry.schema", "runs[0].label: expected a string"},
        {"CritPathRunsNotArray", Doc::CritPath,
         [](const std::string &d) { return set(d, "runs", "{}"); },
         "telemetry.critpath", "runs: not an array"},
        {"CritPathBadSkipMarker", Doc::CritPath, badSkipMarker,
         "telemetry.critpath", "must be \"cache-hit\""},
        {"CritPathTotalNotSpan", Doc::CritPath,
         [](const std::string &d) {
             return setU64(d, "runs/0/total_cycles",
                           getU64(d, "runs/0/total_cycles") + 1);
         },
         "telemetry.critpath", "total_cycles does not equal"},
        {"CritPathUnknownResourceClass", Doc::CritPath,
         [](const std::string &d) {
             return set(d, "runs/0/resources", "{\"gpu\":{}}");
         },
         "telemetry.critpath", "resources.gpu: unknown resource class"},
        {"CritPathMissingResourceClass", Doc::CritPath,
         [](const std::string &d) {
             return set(d, "runs/0/resources",
                        "{\"lock\":{\"cycles\":0,\"slack\":0}}");
         },
         "telemetry.critpath", "missing resource class \"compute\""},
        {"CritPathClassesNotTotal", Doc::CritPath,
         [](const std::string &d) {
             const std::string c = "runs/0/resources/compute/cycles";
             return setU64(d, c, getU64(d, c) + 1);
         },
         "telemetry.critpath", "do not sum to total_cycles"},
        {"CritPathWhatIfNotArray", Doc::CritPath,
         [](const std::string &d) { return set(d, "runs/0/whatif", "{}"); },
         "telemetry.critpath", "whatif: not an array"},
        {"CritPathPredictsMoreThanMeasured", Doc::CritPath,
         [](const std::string &d) {
             return setU64(d, "runs/0/whatif/0/predicted_cycles",
                           getU64(d, "runs/0/total_cycles") + 1);
         },
         "telemetry.critpath", "predicts more cycles than measured"},
        {"CritPathSpeedupBelowOne", Doc::CritPath,
         [](const std::string &d) {
             return set(d, "runs/0/whatif/0/speedup", "0.5");
         },
         "telemetry.critpath", "speedup below 1.0"},
        {"CritPathNegativeDrift", Doc::CritPath,
         [](const std::string &d) {
             return set(d, "runs/0/whatif/0/drift", "-0.25");
         },
         "telemetry.critpath", "drift is negative"},
        {"CritPathChainNotArray", Doc::CritPath,
         [](const std::string &d) { return set(d, "runs/0/chain", "3"); },
         "telemetry.critpath", "chain: not an array"},
        {"CritPathEmptySegment", Doc::CritPath,
         [](const std::string &d) {
             const std::string s = "runs/0/chain/0/";
             return set(set(d, s + "end", get(d, s + "start")),
                        s + "cycles", "0");
         },
         "telemetry.critpath", "empty or inverted chain segment"},
        {"CritPathOverlappingSegments", Doc::CritPath,
         [](const std::string &d) {
             const std::string s = "runs/0/chain/1/";
             const std::uint64_t start = getU64(d, "runs/0/chain/0/start");
             return setU64(setU64(d, s + "start", start), s + "cycles",
                           getU64(d, s + "end") - start);
         },
         "telemetry.critpath", "chain segments overlap or regress"},
        {"CritPathSegmentPastEnd", Doc::CritPath,
         [](const std::string &d) {
             const std::string s = "runs/0/chain/0/";
             const std::uint64_t end = getU64(d, "runs/0/end_cycle") + 5;
             // Keep the segment the last one so only the end bound
             // breaks: move it past every other segment.
             std::string out = set(d, "runs/0/chain", "[" +
                                   get(d, "runs/0/chain/0") + "]");
             out = setU64(out, s + "end", end);
             return setU64(out, s + "cycles",
                           end - getU64(out, s + "start"));
         },
         "telemetry.critpath", "chain segment past end_cycle"},
        {"CritPathSegmentCyclesNotSpan", Doc::CritPath,
         [](const std::string &d) {
             const std::string c = "runs/0/chain/0/cycles";
             return setU64(d, c, getU64(d, c) + 1);
         },
         "telemetry.critpath", "chain segment cycles != end - start"},
        {"CritPathUnknownChainClass", Doc::CritPath,
         [](const std::string &d) {
             return set(d, "runs/0/chain/0/class", "\"gpu\"");
         },
         "telemetry.critpath", "unknown chain class \"gpu\""},
        {"CritPathLinesNotArray", Doc::CritPath,
         [](const std::string &d) { return set(d, "runs/0/lines", "{}"); },
         "telemetry.critpath", "lines: not an array"},
        {"CritPathLinesNotAscending", Doc::CritPath,
         [](const std::string &d) {
             return set(d, "runs/0/lines/1/line",
                        get(d, "runs/0/lines/0/line"));
         },
         "telemetry.critpath", "line addresses are not strictly"},

        // --- prefsim-analysis-v1 ----------------------------------------
        {"AnalysisRunsNotArray", Doc::Analysis,
         [](const std::string &d) { return set(d, "runs", "{}"); },
         "telemetry.analysis", "runs: not an array"},
        {"AnalysisClassesNotPrefetches", Doc::Analysis,
         [](const std::string &d) {
             return setU64(d, "runs/0/prefetches",
                           getU64(d, "runs/0/prefetches") + 1);
         },
         "telemetry.analysis", "class totals do not sum to prefetches"},
        {"AnalysisBoundsNotMonotone", Doc::Analysis,
         [](const std::string &d) {
             return setU64(d, "runs/0/bounds/floor",
                           getU64(d, "runs/0/bounds/fill") + 1);
         },
         "telemetry.analysis", "latency bounds are not monotone"},
        {"AnalysisLockSerialisedExceedsCandidates", Doc::Analysis,
         [](const std::string &d) {
             return setU64(d, "runs/0/race/lock_serialised",
                           getU64(d, "runs/0/race/race_candidates") + 1);
         },
         "telemetry.analysis", "lock_serialised exceeds race_candidates"},
        {"AnalysisCandidatesExceedWords", Doc::Analysis,
         [](const std::string &d) {
             return setU64(d, "runs/0/race/race_candidates",
                           getU64(d, "runs/0/race/words_checked") + 1);
         },
         "telemetry.analysis", "race_candidates exceeds words_checked"},
        {"AnalysisLinesNotArray", Doc::Analysis,
         [](const std::string &d) { return set(d, "runs/0/lines", "{}"); },
         "telemetry.analysis", "lines: not an array"},
        {"AnalysisLinesNotAscending", Doc::Analysis,
         [](const std::string &d) {
             return set(d, "runs/0/lines/1/addr",
                        get(d, "runs/0/lines/0/addr"));
         },
         "telemetry.analysis", "not strictly ascending"},
        {"AnalysisPfNotArray", Doc::Analysis,
         [](const std::string &d) {
             return set(d, "runs/0/lines/0/pf", "{}");
         },
         "telemetry.analysis", "pf: not an array"},
        {"AnalysisPfProcOutOfRange", Doc::Analysis,
         [](const std::string &d) {
             return set(d, "runs/0/lines/0/pf/0/proc", "99");
         },
         "telemetry.analysis", "pf proc out of range"},
        {"AnalysisClassNotLineSum", Doc::Analysis,
         [](const std::string &d) {
             // Move one prefetch between classes: the run total still
             // holds, the per-class ledger sums do not.
             const std::string from = getU64(d, "runs/0/pf_timely") > 0
                                          ? "runs/0/pf_timely"
                                          : "runs/0/pf_late";
             const std::string to = from == "runs/0/pf_timely"
                                        ? "runs/0/pf_late"
                                        : "runs/0/pf_timely";
             return setU64(setU64(d, from, getU64(d, from) - 1), to,
                           getU64(d, to) + 1);
         },
         "telemetry.analysis", "does not equal the sum of its lines"},
        {"AnalysisRecallOutOfRange", Doc::Analysis,
         [](const std::string &d) {
             return set(d, "runs/0/validation/late_recall", "1.5");
         },
         "telemetry.analysis", "late_recall outside [0,1]"},
        {"AnalysisMatrixRows", Doc::Analysis,
         [](const std::string &d) {
             return set(d, "runs/0/validation/matrix", "[]");
         },
         "telemetry.analysis", "matrix must have 4 predicted rows"},
        {"AnalysisMatrixNotIssued", Doc::Analysis,
         [](const std::string &d) {
             const std::string v = "runs/0/validation/pf_issued";
             return setU64(d, v, getU64(d, v) + 1);
         },
         "telemetry.analysis", "matrix cells do not sum to pf_issued"},
        {"AnalysisFindingsNotArray", Doc::Analysis,
         [](const std::string &d) { return set(d, "findings", "{}"); },
         "telemetry.analysis", "findings: not an array"},
        {"AnalysisMalformedRuleId", Doc::Analysis,
         [](const std::string &d) {
             return set(d, "findings",
                        "[{\"rule\":\"Race\",\"severity\":\"error\","
                        "\"message\":\"m\",\"location\":\"l\"}]");
         },
         "telemetry.analysis", "malformed rule id \"Race\""},
        {"AnalysisBadSeverity", Doc::Analysis,
         [](const std::string &d) {
             return set(d, "findings",
                        "[{\"rule\":\"race.x\",\"severity\":\"fatal\","
                        "\"message\":\"m\",\"location\":\"l\"}]");
         },
         "telemetry.analysis", "severity must be warning or error"},

        // --- Chrome trace -----------------------------------------------
        {"TraceEventsNotArray", Doc::Trace,
         [](const std::string &d) { return set(d, "traceEvents", "{}"); },
         "telemetry.trace", "traceEvents: not an array"},
        {"TraceTimestampsRegress", Doc::Trace,
         [](const std::string &d) {
             return prependEvents(d, "{\"ph\":\"i\",\"name\":\"x\",\"pid\":0,"
                                     "\"tid\":0,\"ts\":99999999999}");
         },
         "telemetry.trace", "timestamps regress within one pid"},
        {"TraceEndWithoutBegin", Doc::Trace,
         [](const std::string &d) {
             return prependEvents(d, "{\"ph\":\"E\",\"name\":\"x\",\"pid\":0,"
                                     "\"tid\":0,\"ts\":0}");
         },
         "telemetry.trace", "E without matching B (x)"},
        {"TraceSpansCross", Doc::Trace,
         [](const std::string &d) {
             return prependEvents(
                 d, "{\"ph\":\"B\",\"name\":\"x\",\"pid\":0,\"tid\":0,"
                    "\"ts\":0},{\"ph\":\"E\",\"name\":\"y\",\"pid\":0,"
                    "\"tid\":0,\"ts\":0}");
         },
         "telemetry.trace", "spans cross instead of nesting (y)"},
        {"TraceAsyncEndBeforeBegin", Doc::Trace,
         [](const std::string &d) {
             return prependEvents(
                 d, "{\"ph\":\"e\",\"name\":\"x\",\"cat\":\"c\",\"id\":1,"
                    "\"scope\":\"s\",\"pid\":0,\"tid\":0,\"ts\":0}");
         },
         "telemetry.trace", "async e before its b (x)"},
        {"TraceUnexpectedPhase", Doc::Trace,
         [](const std::string &d) {
             return prependEvents(d, "{\"ph\":\"X\",\"name\":\"x\",\"pid\":0,"
                                     "\"tid\":0,\"ts\":0}");
         },
         "telemetry.trace", "unexpected event phase \"X\""},
        {"TraceUnclosedSpan", Doc::Trace,
         [](const std::string &d) {
             return prependEvents(d, "{\"ph\":\"B\",\"name\":\"x\",\"pid\":99,"
                                     "\"tid\":0,\"ts\":0}");
         },
         "telemetry.trace", "unclosed span \"x\""},
        {"TraceUnclosedAsync", Doc::Trace,
         [](const std::string &d) {
             return prependEvents(
                 d, "{\"ph\":\"b\",\"name\":\"x\",\"cat\":\"c\",\"id\":7,"
                    "\"scope\":\"s\",\"pid\":99,\"tid\":0,\"ts\":0}");
         },
         "telemetry.trace", "unclosed async span id 7"},
        {"TraceFractionalTimestamp", Doc::Trace,
         [](const std::string &d) {
             return prependEvents(d, "{\"ph\":\"i\",\"name\":\"x\",\"pid\":99,"
                                     "\"tid\":0,\"ts\":1.5}");
         },
         "telemetry.schema", "traceEvents[0].ts: expected an unsigned"},
    };
    return table;
}

TEST(TelemetryCheck, GeneratedDocumentsHold)
{
    for (const Doc kind : {Doc::Metrics, Doc::Trace, Doc::Timeseries,
                           Doc::Profile, Doc::CritPath, Doc::Analysis}) {
        const verify::TelemetryCheck check =
            verify::checkTelemetry(document(kind), "doc.json");
        EXPECT_FALSE(check.violation.has_value())
            << check.violation->rule << ": " << check.violation->message;
        EXPECT_NE(check.okLine.find(" ok: doc.json"), std::string::npos);
    }
    // The mutations below need documents this rich.
    EXPECT_GE(getU64(document(Doc::Timeseries), "runs/0/samples"), 2u);
    EXPECT_NE(get(document(Doc::CritPath), "runs/0/chain/1"), "");
    EXPECT_NE(document(Doc::CritPath).find("\"drift\":"),
              std::string::npos);
    EXPECT_NE(get(document(Doc::Analysis), "runs/0/validation"), "");
}

class TelemetryRule : public testing::TestWithParam<Mutation>
{};

TEST_P(TelemetryRule, MutationReportsItsRule)
{
    const Mutation &m = GetParam();
    const std::string mutated = m.apply(document(m.doc));
    ASSERT_NE(mutated, document(m.doc));
    const verify::TelemetryCheck check =
        verify::checkTelemetry(mutated, "doc.json");
    ASSERT_TRUE(check.violation.has_value());
    EXPECT_EQ(check.violation->rule, m.rule) << check.violation->message;
    EXPECT_NE(check.violation->message.find(m.message), std::string::npos)
        << check.violation->message;
    EXPECT_EQ(check.violation->location, "doc.json");
    EXPECT_TRUE(check.okLine.empty());
}

INSTANTIATE_TEST_SUITE_P(
    AllChecks, TelemetryRule, testing::ValuesIn(mutations()),
    [](const testing::TestParamInfo<Mutation> &param) {
        return std::string(param.param.name);
    });

// ---------------------------------------------------------------------
// The store and the strict readers.

TEST(RunStore, WritesLabelSortedRunsAndSkipMarkers)
{
    obs::ProfileStore store;
    EXPECT_TRUE(store.empty());
    std::ostringstream empty;
    store.writeJson(empty);
    EXPECT_EQ(empty.str(), "{\"schema\":\"prefsim-profile-v1\",\"runs\":[]}\n");

    obs::ProfileRun run;
    run.label = "b";
    run.procs = 1;
    store.commit(run);
    store.commitSkipped("a");
    EXPECT_EQ(store.numRuns(), 2u);
    std::ostringstream os;
    store.writeJson(os);
    EXPECT_EQ(os.str().find("{\"label\":\"a\",\"skipped\":\"cache-hit\"}"),
              os.str().find("\"runs\":[") + 8);

    const std::vector<obs::ProfileRun> back =
        obs::readProfileJson(*parseJson(os.str()));
    ASSERT_EQ(back.size(), 2u);
    EXPECT_TRUE(back[0].skipped);
    EXPECT_EQ(back[1].label, "b");
    EXPECT_FALSE(back[1].skipped);
}

/** Re-serialise a document through its reader and store. */
template <typename Store, typename Read>
std::string
roundTrip(const std::string &doc, Read read)
{
    Store store;
    for (auto &run : read(*parseJson(doc)))
        store.commit(std::move(run));
    std::ostringstream os;
    store.writeJson(os);
    return os.str();
}

TEST(RunReaders, AreTheInverseOfTheWriters)
{
    EXPECT_EQ(roundTrip<obs::ProfileStore>(document(Doc::Profile),
                                           obs::readProfileJson),
              document(Doc::Profile));
    EXPECT_EQ(roundTrip<obs::CritPathStore>(document(Doc::CritPath),
                                            obs::readCritPathJson),
              document(Doc::CritPath));
}

TEST(RunReaders, LoadErrorsNameTheFileAndKey)
{
    const std::string path = testing::TempDir() + "test_telemetry.json";
    {
        std::ofstream out(path, std::ios::binary);
        out << set(document(Doc::CritPath), "runs/0/whatif", "{}");
    }
    try {
        obs::loadCritPathJson(path);
        ADD_FAILURE() << "malformed document loaded";
    } catch (const std::runtime_error &e) {
        EXPECT_EQ(std::string(e.what()),
                  path + ": runs[0].whatif: not an array");
    }
    try {
        obs::loadProfileJson(path);
        ADD_FAILURE() << "critpath document loaded as a profile";
    } catch (const std::runtime_error &e) {
        EXPECT_EQ(std::string(e.what()),
                  path + " is not a prefsim-profile-v1 document");
    }
}

} // namespace
} // namespace prefsim
