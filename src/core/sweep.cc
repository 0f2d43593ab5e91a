#include "core/sweep.hh"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <set>
#include <utility>

#include "common/json.hh"
#include "common/log.hh"
#include "core/result_io.hh"
#include "common/thread_pool.hh"

namespace prefsim
{

namespace fs = std::filesystem;

namespace
{

/** Wall-clock nanoseconds since @p start. */
std::uint64_t
nanosSince(std::chrono::steady_clock::time_point start)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
}

/** The most records one processor of @p view runs. A simulation's
 *  time grows with it, so it is the key that orders simulations
 *  longest-first. */
std::size_t
longestStream(const TraceView &view)
{
    std::size_t most = 0;
    for (std::size_t p = 0; p < view.numProcs(); ++p)
        most = std::max(most, view.streamSize(p));
    return most;
}

} // namespace

SweepEngine::SweepEngine(WorkloadParams params, CacheGeometry geometry,
                         SweepOptions options)
    : params_(params), geometry_(geometry), options_(std::move(options))
{
    if (options_.metrics || options_.tracing ||
        options_.sampleInterval > 0 || options_.profile ||
        options_.critpath) {
        obs_ = std::make_unique<ObsContext>();
        obs_->tracer.setEnabled(options_.tracing);
    }
    if (cachingEnabled()) {
        std::error_code ec;
        fs::create_directories(options_.cacheDir, ec);
        if (ec) {
            prefsim_warn("cannot create cache directory ",
                         options_.cacheDir, " (", ec.message(),
                         "); caching disabled");
            options_.cacheDir.clear();
        }
    }
}

SweepEngine::~SweepEngine() = default;

ExperimentSpec
SweepEngine::makeSpec(WorkloadKind kind, bool restructured,
                      Strategy strategy, Cycle data_transfer) const
{
    ExperimentSpec spec;
    spec.workload = kind;
    spec.restructured = restructured;
    spec.strategy = strategy;
    spec.dataTransfer = data_transfer;
    spec.params = params_;
    spec.geometry = geometry_;
    return spec;
}

void
SweepEngine::enqueue(const ExperimentSpec &spec)
{
    pending_.push_back(spec);
}

void
SweepEngine::enqueue(WorkloadKind kind, bool restructured,
                     Strategy strategy, Cycle data_transfer)
{
    enqueue(makeSpec(kind, restructured, strategy, data_transfer));
}

void
SweepEngine::enqueueGrid(const std::vector<WorkloadKind> &workloads,
                         const std::vector<bool> &restructured,
                         const std::vector<Strategy> &strategies,
                         const std::vector<Cycle> &data_transfers)
{
    for (const WorkloadKind w : workloads) {
        for (const bool r : restructured) {
            for (const Strategy s : strategies) {
                for (const Cycle t : data_transfers)
                    enqueue(w, r, s, t);
            }
        }
    }
}

void
SweepEngine::runPending()
{
    std::vector<ExperimentSpec> batch;
    std::set<std::string> seen;
    for (const ExperimentSpec &spec : pending_) {
        const std::string key = experimentCacheKey(spec);
        if (!seen.insert(key).second)
            continue;
        if (runs_.count(key))
            continue;
        if (cachingEnabled() && tryLoadFromDisk(spec, key))
            continue;
        batch.push_back(spec);
    }
    pending_.clear();
    if (!batch.empty())
        executeBatch(batch);
}

void
SweepEngine::executeBatch(const std::vector<ExperimentSpec> &specs)
{
    // Plan the stage DAG. Simulations that share an annotation (or
    // annotations that share a base trace) hang off one producer node;
    // products already in memory from earlier batches satisfy their
    // consumers immediately.
    struct SimNode
    {
        const ExperimentSpec *spec;
        std::string runKey;
        std::string annKey;
    };
    struct AnnNode
    {
        const ExperimentSpec *spec;
        std::string annKey;
        std::string traceKey;
        std::vector<std::size_t> sims; ///< Dependent SimNode indices.
        bool traceReady = false;       ///< Base trace already cached.
    };
    struct TraceNode
    {
        const ExperimentSpec *spec;
        std::string traceKey;
        std::vector<std::size_t> anns; ///< Dependent AnnNode indices.
    };

    std::vector<SimNode> sims;
    std::vector<AnnNode> anns;
    std::vector<TraceNode> trace_nodes;
    std::vector<std::size_t> ready_sims;
    std::map<std::string, std::size_t> ann_index;
    std::map<std::string, std::size_t> trace_index;

    for (const ExperimentSpec &spec : specs) {
        const std::size_t sim_idx = sims.size();
        SimNode sim{&spec, experimentCacheKey(spec),
                    annotateStageKey(spec)};
        if (annotated_.count(sim.annKey)) {
            ready_sims.push_back(sim_idx);
            sims.push_back(std::move(sim));
            continue;
        }
        const auto [it, inserted] =
            ann_index.try_emplace(sim.annKey, anns.size());
        if (inserted) {
            AnnNode ann{&spec, sim.annKey, traceStageKey(spec), {}, false};
            if (traces_.count(ann.traceKey)) {
                ann.traceReady = true;
            } else {
                const auto [tit, tinserted] =
                    trace_index.try_emplace(ann.traceKey,
                                            trace_nodes.size());
                if (tinserted) {
                    trace_nodes.push_back(
                        TraceNode{&spec, ann.traceKey, {}});
                }
                trace_nodes[tit->second].anns.push_back(anns.size());
            }
            anns.push_back(std::move(ann));
        }
        anns[it->second].sims.push_back(sim_idx);
        sims.push_back(std::move(sim));
    }

    // A batch ends with its slowest simulation: start the longest ready
    // ones first, so the short ones fill the other workers at the end
    // instead of one long run trailing alone. Ties keep grid order.
    // Results are stored by key and the run documents sort their runs,
    // so the order shows in neither.
    std::vector<std::size_t> stream_len(sims.size());
    for (const std::size_t i : ready_sims)
        stream_len[i] = longestStream(annotated_.at(sims[i].annKey)->trace);
    std::stable_sort(ready_sims.begin(), ready_sims.end(),
                     [&](std::size_t a, std::size_t b) {
                         return stream_len[a] > stream_len[b];
                     });

    ThreadPool pool(options_.jobs);

    const auto runSim = [&](std::size_t i) {
        const SimNode &node = sims[i];
        std::shared_ptr<const AnnotatedView> ann;
        {
            std::lock_guard<std::mutex> lock(mu_);
            ann = annotated_.at(node.annKey);
        }
        auto result = std::make_unique<ExperimentResult>();
        result->spec = *node.spec;
        result->annotate = ann->stats;
        SimConfig cfg = node.spec->simConfig();
        cfg.engine = options_.engine;
        if (obs_) {
            cfg.obs = obs_.get();
            cfg.traceLabel = node.spec->label();
            cfg.runKey = node.runKey;
            cfg.sampleInterval = options_.sampleInterval;
            cfg.profile = options_.profile;
            cfg.critpath = options_.critpath;
        }
        const auto start = std::chrono::steady_clock::now();
        result->sim = simulate(ann->trace, cfg);
        const std::uint64_t nanos = nanosSince(start);
        if (obs_ && options_.critpath && options_.whatifValidate) {
            // Ground-truth the "infinite bus bandwidth" what-if: rerun
            // the same annotated trace with one data channel per
            // processor (arbitration waits collapse to scheduling
            // noise) and attach the measured cycles to the committed
            // critpath run. The validation run is uninstrumented so it
            // commits no telemetry of its own.
            SimConfig wide = node.spec->simConfig();
            wide.engine = options_.engine;
            wide.timing.dataChannels =
                static_cast<unsigned>(ann->trace.numProcs());
            const SimStats actual = simulate(ann->trace, wide);
            obs_->critpath.attachValidation(node.runKey, actual.cycles);
        }
        if (cachingEnabled())
            storeToDisk(*result, node.runKey);
        std::lock_guard<std::mutex> lock(mu_);
        runs_[node.runKey] = std::move(result);
        ++counters_.simulationsRun;
        counters_.simulateNanos += nanos;
        const auto &done = *runs_[node.runKey];
        counters_.simulatedCycles += done.sim.cycles;
        counters_.simulatedRefs += done.sim.totalDemandRefs();
    };

    const auto runAnn = [&](std::size_t i) {
        const AnnNode &node = anns[i];
        std::shared_ptr<const ParallelTrace> trace;
        {
            std::lock_guard<std::mutex> lock(mu_);
            trace = traces_.at(node.traceKey);
        }
        produceAnnotation(*node.spec, node.annKey, std::move(trace));
        for (const std::size_t s : node.sims)
            pool.submit([&runSim, s] { runSim(s); });
    };

    const auto runTrace = [&](std::size_t i) {
        const TraceNode &node = trace_nodes[i];
        produceTrace(*node.spec, node.traceKey);
        for (const std::size_t a : node.anns)
            pool.submit([&runAnn, a] { runAnn(a); });
    };

    for (std::size_t i = 0; i < trace_nodes.size(); ++i)
        pool.submit([&runTrace, i] { runTrace(i); });
    for (std::size_t i = 0; i < anns.size(); ++i) {
        if (anns[i].traceReady)
            pool.submit([&runAnn, i] { runAnn(i); });
    }
    for (const std::size_t i : ready_sims)
        pool.submit([&runSim, i] { runSim(i); });

    pool.waitAll();
}

bool
SweepEngine::tryLoadFromDisk(const ExperimentSpec &spec,
                             const std::string &key)
{
    const fs::path path = fs::path(options_.cacheDir) / cacheFileName(key);
    const std::optional<std::string> text = readTextFile(path.string());
    if (!text)
        return false;
    std::optional<ExperimentResult> result =
        readResultJson(*text, spec, key);
    if (!result) {
        ++counters_.cacheRejected;
        return false;
    }
    runs_[key] = std::make_unique<ExperimentResult>(std::move(*result));
    ++counters_.cacheHits;
    // A cache hit skips simulation, so it produces no time series,
    // profile or critical path: record skip markers instead.
    if (obs_ && options_.sampleInterval > 0)
        obs_->timeseries.commitSkipped(spec.label(), key);
    if (obs_ && options_.profile)
        obs_->profile.commitSkipped(spec.label(), key);
    if (obs_ && options_.critpath)
        obs_->critpath.commitSkipped(spec.label(), key);
    return true;
}

void
SweepEngine::storeToDisk(const ExperimentResult &result,
                         const std::string &key)
{
    const fs::path path = fs::path(options_.cacheDir) / cacheFileName(key);
    // One writer per key within a process (keys are deduplicated), and
    // the final rename is atomic, so concurrent sweeps sharing a cache
    // directory can only race benignly.
    const fs::path tmp = path.string() + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) {
            prefsim_warn("cannot write cache file ", tmp.string());
            return;
        }
        writeResultJson(out, result, key);
        if (!out) {
            prefsim_warn("short write to cache file ", tmp.string());
            std::error_code ec;
            fs::remove(tmp, ec);
            return;
        }
    }
    std::error_code ec;
    fs::rename(tmp, path, ec);
    if (ec) {
        prefsim_warn("cannot commit cache file ", path.string(), " (",
                     ec.message(), ")");
        return;
    }
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.cacheStores;
}

const ExperimentResult &
SweepEngine::run(const ExperimentSpec &spec)
{
    const std::string key = experimentCacheKey(spec);
    auto it = runs_.find(key);
    if (it == runs_.end()) {
        enqueue(spec);
        runPending();
        it = runs_.find(key);
        prefsim_assert(it != runs_.end(),
                       "sweep produced no result for ", spec.label());
    }
    return *it->second;
}

const ExperimentResult &
SweepEngine::run(WorkloadKind kind, bool restructured, Strategy strategy,
                 Cycle data_transfer)
{
    return run(makeSpec(kind, restructured, strategy, data_transfer));
}

double
SweepEngine::relativeExecTime(WorkloadKind kind, bool restructured,
                              Strategy strategy, Cycle data_transfer)
{
    // Declare both points before running so a cold engine still
    // executes them in one parallel batch.
    enqueue(kind, restructured, Strategy::NP, data_transfer);
    enqueue(kind, restructured, strategy, data_transfer);
    runPending();
    const ExperimentResult &np =
        run(kind, restructured, Strategy::NP, data_transfer);
    const ExperimentResult &r =
        run(kind, restructured, strategy, data_transfer);
    prefsim_assert(np.sim.cycles > 0, "NP run produced zero cycles");
    return static_cast<double>(r.sim.cycles) /
           static_cast<double>(np.sim.cycles);
}

double
SweepEngine::speedup(WorkloadKind kind, bool restructured,
                     Strategy strategy, Cycle data_transfer)
{
    return 1.0 / relativeExecTime(kind, restructured, strategy,
                                  data_transfer);
}

std::shared_ptr<const ParallelTrace>
SweepEngine::produceTrace(const ExperimentSpec &spec, const std::string &key)
{
    WorkloadParams wp = spec.params;
    wp.restructured = spec.restructured;
    const auto start = std::chrono::steady_clock::now();
    auto trace = std::make_shared<const ParallelTrace>(
        generateWorkload(spec.workload, wp));
    const std::uint64_t nanos = nanosSince(start);
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.tracesGenerated;
    counters_.traceNanos += nanos;
    return traces_[key] = std::move(trace);
}

const AnnotatedView &
SweepEngine::produceAnnotation(const ExperimentSpec &spec,
                               const std::string &key,
                               std::shared_ptr<const ParallelTrace> base)
{
    const auto start = std::chrono::steady_clock::now();
    auto ann = std::make_shared<const AnnotatedView>(annotateView(
        std::move(base), spec.annotationParams(), spec.geometry));
    const std::uint64_t nanos = nanosSince(start);
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.annotationsRun;
    counters_.annotateNanos += nanos;
    return *(annotated_[key] = std::move(ann));
}

const ParallelTrace &
SweepEngine::baseTrace(WorkloadKind kind, bool restructured)
{
    return *sharedBaseTrace(kind, restructured);
}

std::shared_ptr<const ParallelTrace>
SweepEngine::sharedBaseTrace(WorkloadKind kind, bool restructured)
{
    const ExperimentSpec spec =
        makeSpec(kind, restructured, Strategy::NP, 8);
    const std::string key = traceStageKey(spec);
    const auto it = traces_.find(key);
    return it != traces_.end() ? it->second : produceTrace(spec, key);
}

const AnnotatedView &
SweepEngine::annotated(WorkloadKind kind, bool restructured,
                       Strategy strategy)
{
    const ExperimentSpec spec =
        makeSpec(kind, restructured, strategy, 8);
    const std::string key = annotateStageKey(spec);
    const auto it = annotated_.find(key);
    if (it != annotated_.end())
        return *it->second;
    // Off the pool, annotateView fans its processors out itself.
    return produceAnnotation(spec, key,
                             sharedBaseTrace(kind, restructured));
}

void
SweepEngine::writeTelemetryJson(std::ostream &os) const
{
    JsonWriter j(os);
    j.beginObject();
    j.key("schema").value("prefsim-telemetry-v1");
    j.key("sweep").beginObject();
    j.key("traces_generated").value(counters_.tracesGenerated);
    j.key("annotations_run").value(counters_.annotationsRun);
    j.key("simulations_run").value(counters_.simulationsRun);
    j.key("cache_hits").value(counters_.cacheHits);
    j.key("cache_stores").value(counters_.cacheStores);
    j.key("cache_rejected").value(counters_.cacheRejected);
    j.key("simulated_cycles").value(counters_.simulatedCycles);
    j.key("simulated_refs").value(counters_.simulatedRefs);
    j.key("trace_nanos").value(counters_.traceNanos);
    j.key("annotate_nanos").value(counters_.annotateNanos);
    j.key("simulate_nanos").value(counters_.simulateNanos);
    j.endObject();
    if (obs_) {
        j.key("metrics");
        obs_->metrics.writeJson(j);
        j.key("tracing").beginObject();
        j.key("enabled").value(obs_->tracer.enabled());
        j.key("sessions").value(
            static_cast<std::uint64_t>(obs_->tracer.numSessions()));
        j.key("events").value(obs_->tracer.totalEvents());
        j.key("dropped_events")
            .value(obs_->metrics.counter("trace.dropped_events").value());
        j.endObject();
        j.key("timeseries").beginObject();
        j.key("interval").value(options_.sampleInterval);
        j.key("runs").value(
            static_cast<std::uint64_t>(obs_->timeseries.numRuns()));
        j.key("samples").value(obs_->timeseries.totalSamples());
        j.endObject();
        j.key("profile").beginObject();
        j.key("enabled").value(options_.profile);
        j.key("runs").value(
            static_cast<std::uint64_t>(obs_->profile.numRuns()));
        j.key("lines").value(obs_->profile.totalLines());
        j.endObject();
        j.key("critpath").beginObject();
        j.key("enabled").value(options_.critpath);
        j.key("whatif_validated").value(options_.whatifValidate);
        j.key("runs").value(
            static_cast<std::uint64_t>(obs_->critpath.numRuns()));
        j.endObject();
    }
    j.endObject();
    os << "\n";
}

// Without an ObsContext the recording was never enabled: still emit a
// valid (empty) document so downstream tooling can treat the file
// uniformly.

void
SweepEngine::writeTimeseriesJson(std::ostream &os) const
{
    if (obs_)
        obs_->timeseries.writeJson(os);
    else
        obs::TimeSeriesStore().writeJson(os);
}

void
SweepEngine::writeProfileJson(std::ostream &os) const
{
    if (obs_)
        obs_->profile.writeJson(os);
    else
        obs::ProfileStore().writeJson(os);
}

void
SweepEngine::writeCritPathJson(std::ostream &os) const
{
    if (obs_)
        obs_->critpath.writeJson(os);
    else
        obs::CritPathStore().writeJson(os);
}

} // namespace prefsim
