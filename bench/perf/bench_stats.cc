#include "bench_stats.hh"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>

#include "common/json.hh"
#include "core/result_io.hh"

namespace prefsim::perf
{

namespace
{

constexpr const char *kGoldenSchema = "prefsim-perf-golden-v1";

/** Nearest-rank percentile @p pct of sorted @p v, with its 1-based
 *  rank. */
std::pair<double, std::size_t>
nearestRank(const std::vector<double> &v, double pct)
{
    const auto rank = static_cast<std::size_t>(
        std::ceil(pct / 100.0 * static_cast<double>(v.size())));
    const std::size_t r = std::clamp<std::size_t>(rank, 1, v.size());
    return {v[r - 1], r};
}

} // namespace

std::string
Span::layer() const
{
    return name.substr(0, name.find('.'));
}

std::vector<std::int64_t>
selfTimesNs(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
        spans.size());
    for (const Span &s : spans) {
        if (s.parent >= 0 &&
            static_cast<std::size_t>(s.parent) < spans.size())
            kids[static_cast<std::size_t>(s.parent)].emplace_back(
                s.startNs, s.endNs);
    }
    std::vector<std::int64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &p = spans[i];
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0;
        std::int64_t reach = p.startNs; // End of the union so far.
        for (const auto &[b, e] : iv) {
            const std::int64_t lo = std::max(b, reach);
            const std::int64_t hi = std::min(e, p.endNs);
            if (hi > lo)
                covered += hi - lo;
            reach = std::max(reach, std::min(e, p.endNs));
        }
        self[i] = p.durationNs() - covered;
    }
    return self;
}

Percentiles
summarize(std::vector<double> values)
{
    Percentiles out;
    out.samples = values.size();
    if (values.empty())
        return out;
    std::sort(values.begin(), values.end());
    out.p50 = nearestRank(values, 50.0).first;
    out.tail = out.p50;
    for (const double pct : {90.0, 99.0, 99.9}) {
        const auto [v, rank] = nearestRank(values, pct);
        if (values.size() - rank < 10)
            break;
        out.tail = v;
        out.tailPct = pct;
    }
    return out;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
    return buf;
}

std::uint64_t
resultFingerprint(const ExperimentResult &result)
{
    const std::string key = experimentCacheKey(result.spec);
    std::ostringstream os;
    writeResultJson(os, result, key);
    return fnv1a64(os.str());
}

std::uint64_t
annotationFingerprint(const AnnotatedTrace &annotated)
{
    // FNV-1a over 64-bit words of every record field: the content of
    // writeTraceBinary, hashed without building the encoded bytes (the
    // encoding cost ~1 s per prepare pass).
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](std::uint64_t word) {
        h ^= word;
        h *= 0x100000001b3ULL;
    };
    const ParallelTrace &t = annotated.trace;
    h ^= fnv1a64(t.name);
    mix(t.numProcs());
    mix(t.numLocks);
    mix(t.numBarriers);
    for (const Trace &proc : t.procs) {
        mix(proc.size());
        for (const TraceRecord &r : proc.records()) {
            mix(static_cast<std::uint64_t>(r.kind) << 32 | r.count);
            mix(r.addr);
            mix(r.sync);
        }
    }
    const AnnotateStats &a = annotated.stats;
    for (const std::uint64_t v :
         {a.oracleCandidates, a.pwsCandidates, a.inserted,
          a.insertedExclusive, a.rtwExclusive, a.droppedShared,
          a.demandRefs})
        mix(v);
    return h;
}

void
writeGolden(std::ostream &os, const Golden &golden)
{
    // One fingerprint per line, so a diff names the outputs that moved.
    os << "{\n  \"schema\": \"" << kGoldenSchema << "\",\n  \"seed\": "
       << golden.seed << ",\n  \"refs_per_proc\": " << golden.refsPerProc
       << ",\n  \"workloads\": {";
    const char *wsep = "\n";
    for (const auto &[name, prints] : golden.workloads) {
        os << wsep << "    " << JsonWriter::escape(name) << ": {";
        const char *sep = "\n";
        for (const auto &[label, hex] : prints) {
            os << sep << "      " << JsonWriter::escape(label) << ": "
               << JsonWriter::escape(hex);
            sep = ",\n";
        }
        os << "\n    }";
        wsep = ",\n";
    }
    os << "\n  }\n}\n";
}

std::optional<Golden>
parseGolden(const std::string &text)
{
    const std::optional<JsonValue> doc = parseJson(text);
    if (!doc || !doc->isObject())
        return std::nullopt;
    const JsonValue *schema = doc->find("schema");
    const JsonValue *seed = doc->find("seed");
    const JsonValue *refs = doc->find("refs_per_proc");
    const JsonValue *workloads = doc->find("workloads");
    if (!schema || !schema->isString() ||
        schema->asString() != kGoldenSchema || !seed ||
        !seed->isNumber() || !refs || !refs->isNumber() || !workloads ||
        !workloads->isObject())
        return std::nullopt;
    Golden g;
    g.seed = seed->asU64();
    g.refsPerProc = refs->asU64();
    for (const auto &[name, prints] : workloads->members()) {
        if (!prints.isObject())
            return std::nullopt;
        Fingerprints &out = g.workloads[name];
        for (const auto &[label, hex] : prints.members()) {
            if (!hex.isString() || hex.asString().size() != 16)
                return std::nullopt;
            out[label] = hex.asString();
        }
    }
    return g;
}

std::vector<std::string>
mismatches(const Fingerprints &expected, const Fingerprints &actual)
{
    std::vector<std::string> bad;
    for (const auto &[label, hex] : expected) {
        const auto it = actual.find(label);
        if (it == actual.end() || it->second != hex)
            bad.push_back(label);
    }
    for (const auto &[label, hex] : actual) {
        if (!expected.count(label))
            bad.push_back(label);
    }
    return bad;
}

} // namespace prefsim::perf
