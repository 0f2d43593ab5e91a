/**
 * @file
 * prefsim_bench: the end-to-end benchmark program.
 *
 * Runs one workload (a sweep grid a prefsim user runs) as a closed loop
 * with one client: each pass submits the whole grid and waits for every
 * result; passes repeat while another fits in --seconds, and the
 * medians are reported. Every call goes through the layers' public functions,
 * timed from outside:
 *
 *   trace     generateWorkload / SweepEngine::baseTrace
 *   prefetch  annotateTrace / SweepEngine::annotated
 *   sim       simulate
 *   core      SweepEngine::runPending and counters()
 *   obs       the ObsContext stores and the write*Json serializers
 *
 * With --trace 1 the passes call those functions serially and record
 * one span per call in memory, giving the per-layer table; end-to-end
 * numbers always come from untraced passes.
 *
 * Outputs are checked after the clock stops: every pass must reproduce
 * the same fingerprints, which must match bench/perf/golden/<seed>.json
 * where that file exists, and otherwise a seeded sample of points
 * re-simulated from scratch on the CycleLoop oracle.
 *
 * usage: prefsim_bench --workload NAME [--seed N] [--seconds S]
 *          [--trace 0|1] [--out FILE] [--trace-out FILE]
 *          [--golden-dir DIR] [--commit SHA]
 *        prefsim_bench --write-golden [--seed N] [--golden-dir DIR]
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <random>
#include <set>
#include <sstream>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "bench_stats.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "common/thread_pool.hh"
#include "core/experiment.hh"
#include "core/result_io.hh"
#include "core/sweep.hh"
#include "obs/obs.hh"
#include "trace/trace.hh"
#include "verify/trace_lint.hh"

using namespace prefsim;
using namespace prefsim::perf;

namespace
{

using Clock = std::chrono::steady_clock;

/**
 * Demand references requested per processor. The paper-scale default
 * (100 k) makes one 16-processor Figure 2 pass take ~20 s, too long to
 * repeat within one run; at 10 k the grid keeps every workload, strategy
 * and bus speed (mp3d and pverify do not shrink below their minimum
 * iteration counts, so the mix stays simulation-heavy).
 */
constexpr std::uint64_t kRefsPerProc = 10000;
/** Sweep workers: a user's `--jobs 4`, capped at the cores present. */
constexpr unsigned kMaxWorkers = 4;
/** Points per run re-simulated on the CycleLoop oracle when the seed
 *  has no golden file. */
constexpr std::size_t kOracleSample = 4;
/** Untraced passes per run, however long they take. */
constexpr std::size_t kMinPasses = 3;
/** The seed every bench binary defaults to. */
constexpr std::uint64_t kDefaultSeed = 12345;

struct Source
{
    WorkloadKind kind;
    bool restructured;

    std::string
    name() const
    {
        return workloadName(kind) + (restructured ? "-r" : "");
    }
};

/** One benchmark workload: a grid of sweep points (or, with no
 *  transfers, of annotations). */
struct WorkloadDef
{
    std::string name;
    std::vector<unsigned> procs;
    std::vector<Source> sources;
    std::vector<Strategy> strategies;
    /** Bus transfer latencies; empty = prepare inputs, no simulation. */
    std::vector<Cycle> transfers;
    /** Metrics, interval sampling, profile and critpath all on. */
    bool observed = false;

    bool simulates() const { return !transfers.empty(); }
};

std::vector<Source>
paperSources()
{
    std::vector<Source> out;
    for (const WorkloadKind k : allWorkloads())
        out.push_back({k, false});
    return out;
}

const std::vector<WorkloadDef> &
workloadDefs()
{
    static const std::vector<WorkloadDef> defs = [] {
        std::vector<Source> prep = paperSources();
        prep.push_back({WorkloadKind::Topopt, true});
        prep.push_back({WorkloadKind::Pverify, true});
        return std::vector<WorkloadDef>{
            // The paper's headline sweep, bus-saturated: the sim layer's
            // exact-cycle path does most of the work.
            {"fig2_16p", {16}, paperSources(), allStrategies(),
             paperTransferLatencies(), false},
            // Same grid, low contention: long fast-forward windows, the
            // regime where engine skipping gains least.
            {"fig2_4p", {4}, paperSources(), allStrategies(),
             paperTransferLatencies(), false},
            // Trace generation + annotation only (the prefsim_lint /
            // prefsim_analyze path): sim does nothing here.
            {"prepare", {4, 8, 16}, prep, allStrategies(), {}, false},
            // Every instrumentation layer on, all documents serialized:
            // the only workload where obs does real work.
            {"observed", {16}, paperSources(),
             {Strategy::NP, Strategy::PREF, Strategy::PWS}, {16}, true},
        };
    }();
    return defs;
}

const WorkloadDef *
findWorkload(const std::string &name)
{
    for (const WorkloadDef &w : workloadDefs()) {
        if (w.name == name)
            return &w;
    }
    return nullptr;
}

WorkloadParams
paramsFor(unsigned procs, std::uint64_t seed, bool restructured = false)
{
    WorkloadParams p = defaultWorkloadParams();
    p.numProcs = procs;
    p.refsPerProc = kRefsPerProc;
    p.seed = seed;
    p.restructured = restructured;
    return p;
}

SweepOptions
sweepOptionsFor(const WorkloadDef &w, unsigned jobs)
{
    SweepOptions o;
    o.jobs = jobs;
    if (w.observed) {
        o.metrics = true;
        o.sampleInterval = 10000;
        o.profile = true;
        o.critpath = true;
    }
    return o;
}

/** Label of one annotation in a multi-processor-count grid. */
std::string
annotationLabel(unsigned procs, const Source &src, Strategy s)
{
    return "p" + std::to_string(procs) + ":" + src.name() + "/" +
           strategyName(s);
}

/** Every simulated point of @p w, in grid order. */
std::vector<ExperimentSpec>
gridSpecs(const WorkloadDef &w, std::uint64_t seed)
{
    std::vector<ExperimentSpec> out;
    for (const unsigned p : w.procs) {
        for (const Source &src : w.sources) {
            for (const Strategy s : w.strategies) {
                for (const Cycle t : w.transfers) {
                    ExperimentSpec spec;
                    spec.workload = src.kind;
                    spec.restructured = src.restructured;
                    spec.strategy = s;
                    spec.dataTransfer = t;
                    spec.params = paramsFor(p, seed);
                    out.push_back(spec);
                }
            }
        }
    }
    return out;
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto tv = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) / 1e6;
    };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux.
}

/** Cores this process may run on (what `nproc` prints). */
unsigned
availableCores()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
    return std::max(1u, std::thread::hardware_concurrency());
}

/** Discards what it is given and counts the bytes. */
class CountingBuf : public std::streambuf
{
  public:
    std::uint64_t bytes = 0;

  protected:
    int_type
    overflow(int_type c) override
    {
        if (!traits_type::eq_int_type(c, traits_type::eof()))
            ++bytes;
        return traits_type::not_eof(c);
    }

    std::streamsize
    xsputn(const char *, std::streamsize n) override
    {
        bytes += static_cast<std::uint64_t>(n);
        return n;
    }
};

/** Refuse to time a build whose numbers would mislead. */
void
checkBuild()
{
    std::vector<std::string> why;
#if !defined(NDEBUG) || !defined(__OPTIMIZE__)
    why.push_back("built without NDEBUG and optimization");
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    why.push_back("built with a sanitizer");
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
    why.push_back("built with a sanitizer");
#endif
#endif
#if PREFSIM_TRACING
    why.push_back("built with PREFSIM_TRACING");
#endif
#if defined(PREFSIM_VERIFY) && PREFSIM_VERIFY
    why.push_back("built with PREFSIM_VERIFY");
#endif
    if (!why.empty()) {
        for (const std::string &w : why)
            std::cerr << "prefsim_bench: refusing to run: " << w << "\n";
        std::exit(2);
    }
}

/* ------------------------------------------------------------------ */
/* Passes                                                              */
/* ------------------------------------------------------------------ */

/** One untraced pass over a workload's grid. */
struct Pass
{
    double wallS = 0.0;
    double setupS = 0.0;
    /** Demand references the pass delivered: simulated, or annotated
     *  when the workload does not simulate. */
    std::uint64_t refs = 0;
    Fingerprints prints;

    double cpuS = 0.0;
    /** @name Engine workloads only. @{ */
    SweepCounters counters;
    double serializeS = 0.0;
    /** @} */
};

/** Fingerprint the three deterministic instrumentation documents. */
void
addDocPrints(Fingerprints &prints, const ObsContext &obs)
{
    std::ostringstream ts, pr, cp;
    obs.timeseries.writeJson(ts);
    obs.profile.writeJson(pr);
    obs.critpath.writeJson(cp);
    prints["doc:timeseries"] = hex64(fnv1a64(ts.str()));
    prints["doc:profile"] = hex64(fnv1a64(pr.str()));
    prints["doc:critpath"] = hex64(fnv1a64(cp.str()));
}

/** A simulating workload through SweepEngine, as a user's sweep runs:
 *  inputs prepared first (setup), then the whole grid submitted. */
Pass
enginePass(const WorkloadDef &w, std::uint64_t seed, unsigned jobs)
{
    Pass r;
    const std::vector<ExperimentSpec> specs = gridSpecs(w, seed);
    const double cpu0 = cpuSeconds();
    const auto t0 = Clock::now();
    SweepEngine engine(paramsFor(w.procs.front(), seed),
                       CacheGeometry::paperDefault(),
                       sweepOptionsFor(w, jobs));
    for (const Source &src : w.sources) {
        for (const Strategy s : w.strategies)
            engine.annotated(src.kind, src.restructured, s);
    }
    r.setupS = secondsSince(t0);
    for (const ExperimentSpec &spec : specs)
        engine.enqueue(spec);
    engine.runPending();
    if (w.observed) {
        const auto ts = Clock::now();
        CountingBuf buf;
        std::ostream sink(&buf);
        engine.writeTelemetryJson(sink);
        engine.writeTimeseriesJson(sink);
        engine.writeProfileJson(sink);
        engine.writeCritPathJson(sink);
        r.serializeS = secondsSince(ts);
    }
    r.wallS = secondsSince(t0);
    r.cpuS = cpuSeconds() - cpu0;

    // The clock has stopped: fingerprint the outputs.
    for (const ExperimentSpec &spec : specs) {
        const ExperimentResult &res = engine.run(spec);
        r.prints[spec.label()] = hex64(resultFingerprint(res));
        r.refs += res.sim.totalDemandRefs();
    }
    if (w.observed)
        addDocPrints(r.prints, *engine.obs());
    r.counters = engine.counters();
    return r;
}

/**
 * Invariants of one annotation, independent of the inserter's logic:
 * the result lints clean, its stats agree with its records, and
 * dropping the inserted prefetches gives back the base trace exactly.
 */
bool
annotationSound(const ParallelTrace &base, const AnnotatedTrace &ann)
{
    if (!verify::lintTrace(ann.trace).ok())
        return false;
    if (ann.stats.inserted != ann.trace.totalPrefetches() ||
        ann.stats.demandRefs != base.totalDemandRefs() ||
        ann.trace.procs.size() != base.procs.size())
        return false;
    for (std::size_t p = 0; p < base.procs.size(); ++p) {
        Trace stripped;
        for (const TraceRecord &rec : ann.trace.procs[p].records()) {
            if (!isPrefetch(rec.kind))
                stripped.append(rec);
        }
        if (stripped.records() != base.procs[p].records())
            return false;
    }
    return true;
}

/** The prepare workload: the trace and prefetch layers called directly
 *  (the tools' path), fingerprints taken with the clock stopped so only
 *  one base trace and its annotations are alive at a time. */
Pass
preparePass(const WorkloadDef &w, std::uint64_t seed, bool check,
            std::set<std::string> &unsound)
{
    Pass r;
    const CacheGeometry geom = CacheGeometry::paperDefault();
    const double cpu0 = cpuSeconds();
    for (const unsigned p : w.procs) {
        for (const Source &src : w.sources) {
            const auto t0 = Clock::now();
            const ParallelTrace base = generateWorkload(
                src.kind, paramsFor(p, seed, src.restructured));
            std::vector<AnnotatedTrace> anns;
            for (const Strategy s : w.strategies)
                anns.push_back(annotateTrace(base, s, geom));
            r.wallS += secondsSince(t0);
            for (std::size_t i = 0; i < anns.size(); ++i) {
                const std::string label =
                    annotationLabel(p, src, w.strategies[i]);
                r.prints[label] = hex64(annotationFingerprint(anns[i]));
                r.refs += anns[i].stats.demandRefs;
                if (check && !annotationSound(base, anns[i]))
                    unsound.insert(label);
            }
        }
    }
    r.setupS = r.wallS;
    r.cpuS = cpuSeconds() - cpu0;
    return r;
}

Pass
untracedPass(const WorkloadDef &w, std::uint64_t seed, unsigned jobs,
             bool check, std::set<std::string> &unsound)
{
    return w.simulates() ? enginePass(w, seed, jobs)
                         : preparePass(w, seed, check, unsound);
}

/* ------------------------------------------------------------------ */
/* Traced passes                                                       */
/* ------------------------------------------------------------------ */

/** Records spans in memory; written out only when the run ends. */
class SpanLog
{
  public:
    int
    open(std::string name, std::string id, int parent)
    {
        spans_.push_back(
            Span{std::move(name), std::move(id), nowNs(), 0, parent});
        return static_cast<int>(spans_.size() - 1);
    }

    void
    close(int idx)
    {
        spans_[static_cast<std::size_t>(idx)].endNs = nowNs();
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    std::vector<Span> spans_;
};

/** What one traced pass produced besides its spans. */
struct TracedPass
{
    std::vector<Span> spans;
    Fingerprints prints;
    std::uint64_t records = 0;        ///< Base-trace records generated.
    std::uint64_t annotatedRefs = 0;  ///< Demand refs annotated.
    std::uint64_t inserted = 0;       ///< Prefetches inserted.
    std::uint64_t docBytes = 0;
    std::uint64_t samples = 0;
    std::uint64_t profileLines = 0;
    /** Plain (uninstrumented) simulation results. */
    std::vector<SimStats> sims;
};

/**
 * One serial pass of @p w, each layer call in its own span. Every
 * source gets a root span; fingerprints are taken between roots, so the
 * roots tile the pass's traced wall time exactly.
 */
TracedPass
tracedPass(const WorkloadDef &w, std::uint64_t seed)
{
    TracedPass out;
    SpanLog log;
    const CacheGeometry geom = CacheGeometry::paperDefault();
    ObsContext obs;
    for (const unsigned p : w.procs) {
        for (const Source &src : w.sources) {
            std::vector<ExperimentResult> results, plain;
            std::vector<std::pair<std::string, AnnotatedTrace>> kept;
            const int root = log.open("bench", src.name(), -1);
            int s = log.open("trace", src.name(), root);
            const ParallelTrace base = generateWorkload(
                src.kind, paramsFor(p, seed, src.restructured));
            log.close(s);
            for (const Trace &t : base.procs)
                out.records += t.size();
            for (const Strategy strat : w.strategies) {
                const std::string annLabel = annotationLabel(p, src, strat);
                s = log.open("prefetch", annLabel, root);
                AnnotatedTrace ann = annotateTrace(base, strat, geom);
                log.close(s);
                out.annotatedRefs += ann.stats.demandRefs;
                out.inserted += ann.stats.inserted;
                if (!w.simulates()) {
                    kept.emplace_back(annLabel, std::move(ann));
                    continue;
                }
                for (const Cycle t : w.transfers) {
                    ExperimentResult res;
                    res.spec.workload = src.kind;
                    res.spec.restructured = src.restructured;
                    res.spec.strategy = strat;
                    res.spec.dataTransfer = t;
                    res.spec.params = paramsFor(p, seed);
                    res.annotate = ann.stats;
                    const std::string label = res.spec.label();
                    SimConfig cfg = res.spec.simConfig();
                    s = log.open("sim", label, root);
                    res.sim = simulate(ann.trace, cfg);
                    log.close(s);
                    out.sims.push_back(res.sim);
                    if (w.observed) {
                        plain.push_back(res);
                        cfg.obs = &obs;
                        cfg.traceLabel = label;
                        cfg.sampleInterval = 10000;
                        cfg.profile = true;
                        cfg.critpath = true;
                        s = log.open("obs.sim", label, root);
                        res.sim = simulate(ann.trace, cfg);
                        log.close(s);
                    }
                    results.push_back(std::move(res));
                }
            }
            log.close(root);
            for (std::size_t i = 0; i < results.size(); ++i) {
                const std::uint64_t fp = resultFingerprint(results[i]);
                // Instrumentation must not perturb the simulation; a
                // non-hex print fails every comparison.
                const bool perturbed =
                    !plain.empty() && resultFingerprint(plain[i]) != fp;
                out.prints[results[i].spec.label()] =
                    perturbed ? "perturbed" : hex64(fp);
            }
            for (const auto &[label, ann] : kept)
                out.prints[label] = hex64(annotationFingerprint(ann));
        }
    }
    if (w.observed) {
        const int root = log.open("bench", "documents", -1);
        CountingBuf buf;
        std::ostream sink(&buf);
        const auto write = [&](const char *name, auto &&fn) {
            const int s = log.open(std::string("obs.write"), name, root);
            fn();
            log.close(s);
        };
        write("metrics", [&] {
            JsonWriter j(sink);
            obs.metrics.writeJson(j);
        });
        write("timeseries", [&] { obs.timeseries.writeJson(sink); });
        write("profile", [&] { obs.profile.writeJson(sink); });
        write("critpath", [&] { obs.critpath.writeJson(sink); });
        log.close(root);
        out.docBytes = buf.bytes;
        out.samples = obs.timeseries.totalSamples();
        out.profileLines = obs.profile.totalLines();
        addDocPrints(out.prints, obs);
    }
    out.spans = log.spans();
    return out;
}

/* ------------------------------------------------------------------ */
/* Correctness                                                         */
/* ------------------------------------------------------------------ */

std::filesystem::path
goldenPath(const std::string &dir, std::uint64_t seed)
{
    return std::filesystem::path(dir) / (std::to_string(seed) + ".json");
}

/** The golden file of @p seed, if one is checked in. A file that exists
 *  but does not parse, or was made at another scale, is fatal. */
std::optional<Golden>
loadGolden(const std::string &dir, std::uint64_t seed)
{
    const auto path = goldenPath(dir, seed);
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return std::nullopt;
    std::ostringstream text;
    text << in.rdbuf();
    std::optional<Golden> g = parseGolden(text.str());
    if (!g || g->seed != seed || g->refsPerProc != kRefsPerProc)
        prefsim_fatal("golden file ", path.string(),
                      " is malformed or was made at another scale");
    return g;
}

/**
 * Re-simulate @p specs from scratch — fresh trace, fresh annotation,
 * uninstrumented CycleLoop — on up to @p jobs threads, and return the
 * labels whose fingerprint differs from @p expected.
 */
std::set<std::string>
oracleCheck(const std::vector<ExperimentSpec> &specs,
            const Fingerprints &expected, unsigned jobs)
{
    std::vector<std::string> got(specs.size());
    std::atomic<std::size_t> next{0};
    const auto worker = [&] {
        for (std::size_t i; (i = next++) < specs.size();) {
            ExperimentSpec spec = specs[i];
            spec.sim.engine = SimEngine::CycleLoop;
            got[i] = hex64(resultFingerprint(runExperiment(spec)));
        }
    };
    std::vector<std::thread> pool;
    const unsigned n =
        std::min<unsigned>(jobs, static_cast<unsigned>(specs.size()));
    for (unsigned t = 0; t < n; ++t)
        pool.emplace_back(worker);
    for (std::thread &t : pool)
        t.join();
    std::set<std::string> bad;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const std::string label = specs[i].label();
        const auto it = expected.find(label);
        if (it == expected.end() || it->second != got[i])
            bad.insert(label);
    }
    return bad;
}

/** A seeded sample of @p n points of the grid. */
std::vector<ExperimentSpec>
oracleSample(const WorkloadDef &w, std::uint64_t seed, std::size_t n)
{
    std::vector<ExperimentSpec> specs = gridSpecs(w, seed);
    std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ULL);
    std::shuffle(specs.begin(), specs.end(), rng);
    specs.resize(std::min(n, specs.size()));
    return specs;
}

/** Outputs of one pass that disagree with the reference or were
 *  refuted (refuted labels are always reference labels). */
std::uint64_t
countFailed(const Fingerprints &prints, const Fingerprints &reference,
            const std::set<std::string> &refuted)
{
    std::set<std::string> bad = refuted;
    for (const std::string &label : mismatches(reference, prints))
        bad.insert(label);
    return bad.size();
}

/* ------------------------------------------------------------------ */
/* Output                                                              */
/* ------------------------------------------------------------------ */

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

struct Env
{
    std::string compiler;
    std::string buildType;
    unsigned nproc = 0;
    std::string commit;
    std::uint64_t seed = 0;
    unsigned workers = 0;
};

void
writeResult(std::ostream &os, const std::string &workload, bool correct,
            std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &metrics, const Env &env)
{
    os << "{\"correct\":" << (correct ? "true" : "false")
       << ",\"attempted\":" << attempted << ",\"failed\":" << failed
       << ",\"metrics\":{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        os << (i ? "," : "") << JsonWriter::escape(metrics[i].name)
           << ":{\"value\":" << num(metrics[i].value)
           << ",\"unit\":" << JsonWriter::escape(metrics[i].unit) << "}";
    }
    os << "},\"workload\":" << JsonWriter::escape(workload)
       << ",\"env\":{\"compiler\":" << JsonWriter::escape(env.compiler)
       << ",\"build_type\":" << JsonWriter::escape(env.buildType)
       << ",\"nproc\":" << env.nproc
       << ",\"commit\":" << JsonWriter::escape(env.commit)
       << ",\"seed\":" << env.seed << ",\"workers\":" << env.workers
       << ",\"refs_per_proc\":" << kRefsPerProc << "}}\n";
}

void
writeSpans(const std::string &path, const std::vector<TracedPass> &passes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        prefsim_fatal("cannot write span file ", path);
    JsonWriter j(out);
    j.beginObject();
    j.key("schema").value("prefsim-perf-spans-v1");
    j.key("passes").beginArray();
    for (const TracedPass &tp : passes) {
        j.beginArray();
        for (const Span &s : tp.spans) {
            j.beginObject();
            j.key("name").value(s.name);
            j.key("id").value(s.id);
            j.key("start_ns").value(static_cast<std::uint64_t>(s.startNs));
            j.key("end_ns").value(static_cast<std::uint64_t>(s.endNs));
            j.key("parent").value(static_cast<double>(s.parent));
            j.endObject();
        }
        j.endArray();
    }
    j.endArray();
    j.endObject();
    out << "\n";
}

/* ------------------------------------------------------------------ */
/* Metrics                                                             */
/* ------------------------------------------------------------------ */

std::vector<Metric>
endToEndMetrics(const std::vector<Pass> &passes, double rssMb)
{
    std::vector<double> wall, setup;
    for (const Pass &p : passes) {
        wall.push_back(p.wallS);
        setup.push_back(p.setupS);
    }
    // Every pass delivers the same references, so the rate is taken at
    // the median pass.
    const double wallS = median(wall);
    return {
        {"wall_s", wallS, "s"},
        {"setup_s", median(setup), "s"},
        {"refs_per_s", static_cast<double>(passes.front().refs) / wallS,
         "refs/s"},
        {"peak_rss_mb", rssMb, "MB"},
    };
}

double
ratio(double num_, double den)
{
    return den > 0 ? num_ / den : 0.0;
}

std::vector<Metric>
perLayerMetrics(const WorkloadDef &w, const Pass &untraced,
                const std::vector<TracedPass> &traced)
{
    // Self seconds per layer and per span name, for each traced pass.
    struct PassTimes
    {
        std::map<std::string, double> layer, name;
        std::map<std::string, std::uint64_t> calls;
        double wall = 0.0, untimed = 0.0;
    };
    std::vector<PassTimes> times;
    std::vector<double> simDur, prefDur;
    for (const TracedPass &tp : traced) {
        const std::vector<std::int64_t> self = selfTimesNs(tp.spans);
        PassTimes &pt = times.emplace_back();
        for (std::size_t i = 0; i < tp.spans.size(); ++i) {
            const Span &s = tp.spans[i];
            const double selfS = static_cast<double>(self[i]) / 1e9;
            if (s.parent < 0) {
                pt.wall += static_cast<double>(s.durationNs()) / 1e9;
                pt.untimed += selfS;
                continue;
            }
            pt.layer[s.layer()] += selfS;
            pt.name[s.name] += selfS;
            ++pt.calls[s.layer()];
            if (s.name == "sim")
                simDur.push_back(static_cast<double>(s.durationNs()) / 1e9);
            if (s.name == "prefetch")
                prefDur.push_back(static_cast<double>(s.durationNs()) / 1e6);
        }
    }
    // Times come from the pass with the median wall time, so that its
    // layers and untimed remainder add up to the wall time exactly.
    std::vector<std::size_t> order(times.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
        return times[x].wall < times[y].wall;
    });
    PassTimes &med = times[order[(order.size() - 1) / 2]];
    const auto selfS = [&](const char *l) { return med.layer[l]; };
    const auto nameS = [&](const char *n) { return med.name[n]; };
    auto &calls = med.calls;

    const TracedPass &tp = traced.front();
    std::uint64_t cycles = 0, refs = 0, busOps = 0, busy = 0, qwait = 0,
                  cpuMiss = 0, pfIssued = 0, pfExec = 0;
    for (const SimStats &s : tp.sims) {
        cycles += s.cycles;
        refs += s.totalDemandRefs();
        busOps += s.bus.totalOps();
        busy += s.bus.busyCycles;
        qwait += s.bus.queueWaitDemand + s.bus.queueWaitPrefetch;
        cpuMiss += s.totalMisses().cpu();
        pfIssued += s.totalPrefetchMisses();
        pfExec += s.totalPrefetchesExecuted();
    }
    const double simNs = selfS("sim") * 1e9;
    const Percentiles simP = summarize(simDur);
    const Percentiles prefP = summarize(prefDur);

    // The untraced pass's serial-equivalent cost, against which the
    // traced pass's overhead is judged. The observed workload's traced
    // pass also simulates every point uninstrumented (for obs.plain_s);
    // the untraced pass has no such work, so it is left out.
    const SweepCounters &c = untraced.counters;
    const double engineStageS =
        static_cast<double>(c.traceNanos + c.annotateNanos +
                            c.simulateNanos) / 1e9;
    const double stageS = w.simulates()
                              ? engineStageS + untraced.serializeS
                              : untraced.wallS;
    const double comparableWall =
        med.wall - (w.observed ? nameS("sim") : 0.0);

    const double plainS = w.observed ? nameS("sim") : 0.0;
    const double instrS = nameS("obs.sim");
    return {
        {"trace.calls", static_cast<double>(calls["trace"]), "count"},
        {"trace.self_s", selfS("trace"), "s"},
        {"trace.ns_per_record",
         ratio(selfS("trace") * 1e9, static_cast<double>(tp.records)),
         "ns"},
        {"prefetch.calls", static_cast<double>(calls["prefetch"]), "count"},
        {"prefetch.self_s", selfS("prefetch"), "s"},
        {"prefetch.p50_ms", prefP.p50, "ms"},
        {"prefetch.ns_per_ref",
         ratio(selfS("prefetch") * 1e9,
               static_cast<double>(tp.annotatedRefs)),
         "ns"},
        {"prefetch.inserted", static_cast<double>(tp.inserted), "count"},
        {"sim.calls", static_cast<double>(tp.sims.size()), "count"},
        {"sim.self_s", nameS("sim"), "s"},
        {"sim.p50_s", simP.p50, "s"},
        {"sim.tail_s", simP.tail, "s"},
        {"sim.tail_pct", simP.tailPct, "%"},
        {"sim.samples", static_cast<double>(simP.samples), "count"},
        {"sim.cycles", static_cast<double>(cycles), "count"},
        {"sim.demand_refs", static_cast<double>(refs), "count"},
        {"sim.ns_per_cycle", ratio(simNs, static_cast<double>(cycles)),
         "ns"},
        {"sim.ns_per_ref", ratio(simNs, static_cast<double>(refs)), "ns"},
        {"sim.ns_per_bus_op", ratio(simNs, static_cast<double>(busOps)),
         "ns"},
        {"mem.bus_ops", static_cast<double>(busOps), "count"},
        {"mem.bus_busy_cycles", static_cast<double>(busy), "count"},
        {"mem.bus_util",
         ratio(static_cast<double>(busy), static_cast<double>(cycles)),
         "ratio"},
        {"mem.queue_wait_cycles", static_cast<double>(qwait), "count"},
        {"mem.cpu_misses", static_cast<double>(cpuMiss), "count"},
        {"mem.prefetch_issue_ratio",
         ratio(static_cast<double>(pfIssued), static_cast<double>(pfExec)),
         "ratio"},
        {"core.concurrency", ratio(engineStageS, untraced.wallS), "ratio"},
        {"core.cpu_s", untraced.cpuS, "s"},
        {"core.traces_generated", static_cast<double>(c.tracesGenerated),
         "count"},
        {"core.annotations_run", static_cast<double>(c.annotationsRun),
         "count"},
        {"core.simulations_run", static_cast<double>(c.simulationsRun),
         "count"},
        {"obs.calls", static_cast<double>(calls["obs"]), "count"},
        {"obs.plain_s", plainS, "s"},
        {"obs.instrumented_s", instrS, "s"},
        {"obs.overhead_ratio", ratio(instrS, plainS), "ratio"},
        {"obs.serialize_s", nameS("obs.write"), "s"},
        {"obs.doc_bytes", static_cast<double>(tp.docBytes), "bytes"},
        {"obs.samples", static_cast<double>(tp.samples), "count"},
        {"obs.profile_lines", static_cast<double>(tp.profileLines),
         "count"},
        {"bench.traced_wall_s", med.wall, "s"},
        {"bench.untimed_s", med.untimed, "s"},
        {"bench.trace_overhead", ratio(comparableWall, stageS), "ratio"},
    };
}

/** The per-layer table: self times that, with the untimed remainder,
 *  add up to the traced wall time. */
void
printLayerTable(const std::vector<Metric> &m)
{
    std::map<std::string, double> v;
    for (const Metric &x : m)
        v[x.name] = x.value;
    const double wall = v["bench.traced_wall_s"];
    std::printf("%-10s %12s %8s %10s\n", "layer", "self_s", "share",
                "calls");
    double sum = 0.0;
    for (const char *l : {"trace", "prefetch", "sim", "obs"}) {
        const std::string k = l;
        const double s = k == "obs" ? v["obs.instrumented_s"] +
                                          v["obs.serialize_s"]
                                    : v[k + ".self_s"];
        const double calls = v[k + ".calls"];
        sum += s;
        std::printf("%-10s %12.6f %7.2f%% %10.0f\n", l, s,
                    100.0 * ratio(s, wall), calls);
    }
    const double untimed = v["bench.untimed_s"];
    std::printf("%-10s %12.6f %7.2f%%\n", "untimed", untimed,
                100.0 * ratio(untimed, wall));
    std::printf("%-10s %12.6f (layers + untimed = %.6f)\n", "wall", wall,
                sum + untimed);
}

/* ------------------------------------------------------------------ */
/* Entry point                                                         */
/* ------------------------------------------------------------------ */

struct Args
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 20.0;
    bool trace = false;
    std::string out;
    std::string traceOut;
    std::string goldenDir = "bench/perf/golden";
    std::string commit = "unknown";
    bool writeGolden = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "prefsim_bench: " << why
              << "\nusage: prefsim_bench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1]\n"
                 "         [--out FILE] [--trace-out FILE] "
                 "[--golden-dir DIR] [--commit SHA]\n"
                 "       prefsim_bench --write-golden [--seed N] "
                 "[--golden-dir DIR]\n"
                 "workloads:";
    for (const WorkloadDef &w : workloadDefs())
        std::cerr << " " << w.name;
    std::cerr << "\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value for " + arg);
            return argv[++i];
        };
        const auto nextNum = [&]() -> double {
            const std::string text = next();
            char *end = nullptr;
            const double v = std::strtod(text.c_str(), &end);
            if (text.empty() || *end != '\0' || !(v >= 0))
                usage(arg + " expects a non-negative number, got '" + text +
                      "'");
            return v;
        };
        if (arg == "--workload") {
            a.workload = next();
        } else if (arg == "--seed") {
            const std::string text = next();
            char *end = nullptr;
            a.seed = std::strtoull(text.c_str(), &end, 10);
            if (text.empty() || *end != '\0')
                usage("--seed expects a non-negative integer");
        } else if (arg == "--seconds") {
            a.seconds = nextNum();
        } else if (arg == "--trace") {
            const std::string v = next();
            if (v != "0" && v != "1")
                usage("--trace expects 0 or 1");
            a.trace = v == "1";
        } else if (arg == "--out") {
            a.out = next();
        } else if (arg == "--trace-out") {
            a.traceOut = next();
            a.trace = true;
        } else if (arg == "--golden-dir") {
            a.goldenDir = next();
        } else if (arg == "--commit") {
            a.commit = next();
        } else if (arg == "--write-golden") {
            a.writeGolden = true;
        } else {
            usage("unknown option " + arg);
        }
    }
    if (!a.writeGolden && !findWorkload(a.workload))
        usage("unknown or missing --workload '" + a.workload + "'");
    return a;
}

/**
 * --write-golden: one pass of every workload, every simulated point
 * re-simulated on the CycleLoop oracle and every annotation checked for
 * soundness; the file is written only if all of them agree.
 */
int
writeGoldenFile(const Args &a, unsigned jobs)
{
    Golden g;
    g.seed = a.seed;
    g.refsPerProc = kRefsPerProc;
    std::size_t refuted = 0;
    for (const WorkloadDef &w : workloadDefs()) {
        std::set<std::string> unsound;
        const Pass p = untracedPass(w, a.seed, jobs, true, unsound);
        std::set<std::string> bad = unsound;
        if (w.simulates()) {
            const std::vector<ExperimentSpec> specs = gridSpecs(w, a.seed);
            bad = oracleCheck(specs, p.prints, jobs);
            if (w.observed) {
                // The documents must not depend on the engine either.
                SweepOptions o = sweepOptionsFor(w, jobs);
                o.engine = SimEngine::CycleLoop;
                SweepEngine oracle(paramsFor(w.procs.front(), a.seed),
                                   CacheGeometry::paperDefault(), o);
                for (const ExperimentSpec &spec : specs)
                    oracle.enqueue(spec);
                oracle.runPending();
                Fingerprints docs;
                addDocPrints(docs, *oracle.obs());
                for (const auto &[label, hex] : docs) {
                    if (p.prints.at(label) != hex)
                        bad.insert(label);
                }
            }
        }
        for (const std::string &label : bad)
            std::cerr << "oracle disagrees: " << w.name << " " << label
                      << "\n";
        refuted += bad.size();
        std::cout << w.name << ": " << p.prints.size() << " outputs, "
                  << bad.size() << " refuted\n";
        g.workloads[w.name] = p.prints;
    }
    if (refuted != 0) {
        std::cerr << "prefsim_bench: not writing the golden file: "
                  << refuted << " outputs disagree with the oracle\n";
        return 1;
    }
    const auto path = goldenPath(a.goldenDir, a.seed);
    const auto tmp = path.string() + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        writeGolden(out, g);
        if (!out)
            prefsim_fatal("cannot write ", tmp);
    }
    std::filesystem::rename(tmp, path);
    std::cout << "wrote " << path.string() << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    checkBuild();
    setQuiet(true);
    const Args a = parseArgs(argc, argv);

    const unsigned nproc = availableCores();
    const unsigned jobs = std::min(kMaxWorkers, nproc);
    if (ThreadPool::resolveThreads(jobs) > nproc)
        prefsim_fatal("worker count exceeds the available cores");
    Env env;
#if defined(__VERSION__)
    env.compiler = __VERSION__;
#endif
    env.buildType = PREFSIM_PERF_BUILD_TYPE;
    env.nproc = nproc;
    env.commit = a.commit;
    env.seed = a.seed;
    env.workers = jobs;
    std::cout << "# env compiler=\"" << env.compiler
              << "\" build=" << env.buildType << " nproc=" << nproc
              << " commit=" << env.commit << " seed=" << a.seed
              << " workers=" << jobs << " refs_per_proc=" << kRefsPerProc
              << "\n";

    if (a.writeGolden)
        return writeGoldenFile(a, jobs);

    const WorkloadDef &w = *findWorkload(a.workload);
    const std::optional<Golden> golden = loadGolden(a.goldenDir, a.seed);

    // Measure: start another pass only while it is expected to end
    // within --seconds (judged by the previous pass), after a minimum
    // that makes the median meaningful.
    const auto start = Clock::now();
    auto passStart = start;
    const auto another = [&](std::size_t done, std::size_t minimum) {
        const double last = secondsSince(passStart);
        passStart = Clock::now();
        return done < minimum || secondsSince(start) + last <= a.seconds;
    };
    std::set<std::string> unsound;
    std::vector<Pass> passes;
    std::vector<TracedPass> traced;
    passes.push_back(untracedPass(w, a.seed, jobs, true, unsound));
    if (a.trace) {
        passStart = Clock::now();
        do {
            traced.push_back(tracedPass(w, a.seed));
        } while (another(traced.size(), 1));
    } else {
        while (another(passes.size(), kMinPasses))
            passes.push_back(untracedPass(w, a.seed, jobs, false, unsound));
    }
    const double rssMb = peakRssMb();
    for (std::size_t i = 0; i < passes.size(); ++i)
        std::cout << "# pass " << i << ": wall " << num(passes[i].wallS)
                  << " s, setup " << num(passes[i].setupS) << " s, cpu "
                  << num(passes[i].cpuS) << " s\n";

    // Check.
    Fingerprints reference;
    std::set<std::string> refuted = unsound;
    if (golden) {
        const auto it = golden->workloads.find(w.name);
        if (it == golden->workloads.end())
            prefsim_fatal("golden file has no workload ", w.name);
        reference = it->second;
    } else {
        reference = passes.front().prints;
        if (w.simulates()) {
            for (const std::string &label :
                 oracleCheck(oracleSample(w, a.seed, kOracleSample),
                             reference, jobs))
                refuted.insert(label);
        }
    }
    std::uint64_t attempted = 0, failed = 0;
    const auto account = [&](const Fingerprints &prints) {
        attempted += prints.size();
        failed += countFailed(prints, reference, refuted);
    };
    for (const Pass &p : passes)
        account(p.prints);
    for (const TracedPass &tp : traced)
        account(tp.prints);
    for (const std::string &label : refuted)
        std::cerr << "failed its check: " << label << "\n";
    if (failed != 0)
        std::cerr << "prefsim_bench: " << failed << " of " << attempted
                  << " outputs disagree with the "
                  << (golden ? "golden file" : "first pass or the oracle")
                  << "\n";

    const std::vector<Metric> metrics =
        a.trace ? perLayerMetrics(w, passes.front(), traced)
                : endToEndMetrics(passes, rssMb);
    if (a.trace) {
        printLayerTable(metrics);
        if (!a.traceOut.empty())
            writeSpans(a.traceOut, traced);
    }
    std::cout << "# " << w.name << ": " << passes.size()
              << " untraced and " << traced.size()
              << " traced passes, checked against "
              << (golden         ? "the golden file"
                  : w.simulates() ? "the CycleLoop oracle"
                                  : "the annotation invariants")
              << "\n";

    const bool correct = failed == 0;
    if (!a.out.empty()) {
        std::ofstream out(a.out, std::ios::binary | std::ios::trunc);
        writeResult(out, w.name, correct, attempted, failed, metrics, env);
        if (!out)
            prefsim_fatal("cannot write ", a.out);
    } else {
        writeResult(std::cout, w.name, correct, attempted, failed, metrics,
                    env);
    }
    return correct ? 0 : 1;
}
