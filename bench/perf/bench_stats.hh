/**
 * @file
 * Statistics and correctness helpers of the end-to-end benchmark
 * program (prefsim_bench): in-memory spans and their self times, the
 * percentile rule, output fingerprints and the golden files they are
 * checked against. Kept apart from its main file so test_bench_stats can
 * pin each rule on hand-made inputs.
 */

#ifndef PREFSIM_BENCH_PERF_BENCH_STATS_HH
#define PREFSIM_BENCH_PERF_BENCH_STATS_HH

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/experiment.hh"

namespace prefsim::perf
{

/** One timed call across a layer boundary. */
struct Span
{
    /** "<layer>" or "<layer>.<what>", e.g. "sim" or "obs.write". */
    std::string name;
    /** The point the call served (its label); shared by all the spans
     *  of one point. */
    std::string id;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    /** Index of the enclosing span, or -1 for a root. */
    int parent = -1;

    std::int64_t durationNs() const { return endNs - startNs; }
    /** The layer: the name up to its first '.'. */
    std::string layer() const;
};

/**
 * Self time of every span: its duration minus the part of its interval
 * that its children cover. Overlapping children count their union
 * once, and children reaching outside the parent are clipped to it.
 */
std::vector<std::int64_t> selfTimesNs(const std::vector<Span> &spans);

/** A timing distribution reduced by the percentile rule. */
struct Percentiles
{
    std::size_t samples = 0;
    double p50 = 0.0;
    /** The highest of p90/p99/p99.9 that leaves at least ten samples
     *  beyond it; p50 again when none does. */
    double tail = 0.0;
    /** Which percentile @c tail is (50, 90, 99 or 99.9). */
    double tailPct = 50.0;
};

/** Nearest-rank percentiles of @p values under the rule above. */
Percentiles summarize(std::vector<double> values);

/** Median of @p values (mean of the middle two for an even count). */
double median(std::vector<double> values);

/** 16 lower-case hex digits. */
std::string hex64(std::uint64_t v);

/**
 * Fingerprint of one simulated point: fnv1a64 of its writeResultJson
 * text under experimentCacheKey — the serialization the on-disk result
 * cache already trusts, so every SimStats and AnnotateStats counter is
 * covered.
 */
std::uint64_t resultFingerprint(const ExperimentResult &result);

/** Fingerprint of one annotation: every field of every record (what
 *  writeTraceBinary encodes) plus every AnnotateStats counter. */
std::uint64_t annotationFingerprint(const AnnotatedTrace &annotated);

/** Output label -> hex fingerprint, for one workload. */
using Fingerprints = std::map<std::string, std::string>;

/** The checked-in expected outputs of one seed. */
struct Golden
{
    std::uint64_t seed = 0;
    std::uint64_t refsPerProc = 0;
    /** Workload name -> its fingerprints. */
    std::map<std::string, Fingerprints> workloads;
};

/** Serialize @p golden as a `prefsim-perf-golden-v1` document. */
void writeGolden(std::ostream &os, const Golden &golden);

/** Parse a `prefsim-perf-golden-v1` document; nullopt when malformed. */
std::optional<Golden> parseGolden(const std::string &text);

/**
 * Labels whose fingerprint differs between @p expected and @p actual,
 * including labels present on one side only. Empty means a match.
 */
std::vector<std::string> mismatches(const Fingerprints &expected,
                                    const Fingerprints &actual);

} // namespace prefsim::perf

#endif // PREFSIM_BENCH_PERF_BENCH_STATS_HH
