/**
 * @file
 * Shared command line and telemetry plumbing for the reproduction
 * driver (bench/prefsim_repro.cpp) and the examples.
 *
 * parseBenchArgs reads one uniform option set in any order: the
 * workload scale (--refs, --procs, --seed), the sweep (--jobs,
 * --cache-dir, --no-cache, --engine), the output (--csv, --out, --quiet,
 * --log-level) and the telemetry documents (--metrics-out, --trace-out,
 * --sample-interval, --timeseries-out, --profile-out, --critpath-out,
 * --whatif-validate); its --help text documents each. makeEngine turns
 * the result into a SweepEngine, and emitBenchTelemetry writes the
 * documents once the sweep has completed.
 */

#ifndef PREFSIM_BENCH_BENCH_COMMON_HH
#define PREFSIM_BENCH_BENCH_COMMON_HH

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/log.hh"
#include "common/parse_uint.hh"
#include "common/thread_pool.hh"
#include "core/experiment.hh"
#include "core/sweep.hh"

namespace prefsim
{

/** Everything a reproduction binary needs from its command line. */
struct BenchOptions
{
    WorkloadParams params = defaultWorkloadParams();
    SweepOptions sweep;
    bool csv = false;
    /** Directory for one <name>.txt per experiment (empty = stdout). */
    std::string outDir;
    /** Telemetry/metrics JSON destination (empty = none). */
    std::string metricsOut;
    /** Chrome trace-event JSON destination (empty = none). */
    std::string traceOut;
    /** Interval time-series JSON destination (empty = none). */
    std::string timeseriesOut;
    /** Per-line attribution profile JSON destination (empty = none). */
    std::string profileOut;
    /** Critical-path analysis JSON destination (empty = none). */
    std::string critpathOut;
};

/**
 * Parse the uniform bench option set; exits on --help or bad input.
 * When @p positional is non-null, bare arguments are collected there
 * (in order) instead of being rejected: the experiment names of
 * prefsim_repro, and the examples' `quickstart mp3d PREF 8`-style
 * invocation.
 */
inline BenchOptions
parseBenchArgs(int argc, char **argv,
               std::vector<std::string> *positional = nullptr)
{
    BenchOptions opts;
    bool no_cache = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                prefsim_fatal("missing value for option ", arg);
            return argv[++i];
        };
        // A plain decimal no larger than @p max (the destination
        // field's range; see parseUint).
        auto nextUint = [&](std::uint64_t max) -> std::uint64_t {
            const char *text = next();
            const std::optional<std::uint64_t> value = parseUint(text, max);
            if (!value)
                prefsim_fatal("option ", arg, " expects an integer in 0..",
                              max, ", got '", text, "'");
            return *value;
        };
        constexpr std::uint64_t kU64Max =
            std::numeric_limits<std::uint64_t>::max();
        constexpr std::uint64_t kUnsignedMax =
            std::numeric_limits<unsigned>::max();
        if (arg == "--refs") {
            opts.params.refsPerProc = nextUint(kU64Max);
        } else if (arg == "--procs") {
            opts.params.numProcs =
                static_cast<unsigned>(nextUint(kUnsignedMax));
        } else if (arg == "--seed") {
            opts.params.seed = nextUint(kU64Max);
        } else if (arg == "--jobs") {
            opts.sweep.jobs =
                static_cast<unsigned>(nextUint(ThreadPool::kMaxThreads));
        } else if (arg == "--cache-dir") {
            opts.sweep.cacheDir = next();
        } else if (arg == "--no-cache") {
            no_cache = true;
        } else if (arg == "--engine") {
            const std::string name = next();
            if (name == "local") {
                opts.sweep.engine = SimEngine::LocalClock;
            } else if (name == "cycle") {
                opts.sweep.engine = SimEngine::CycleLoop;
            } else {
                prefsim_fatal("--engine expects local or cycle, got '",
                              name, "'");
            }
        } else if (arg == "--csv") {
            opts.csv = true;
        } else if (arg == "--out") {
            opts.outDir = next();
        } else if (arg == "--quiet") {
            setQuiet(true);
        } else if (arg == "--log-level") {
            const char *name = next();
            const std::optional<LogLevel> level = parseLogLevel(name);
            if (!level)
                prefsim_fatal("--log-level expects error, warn, info or "
                              "debug, got '",
                              name, "'");
            setLogThreshold(*level);
        } else if (arg == "--metrics-out") {
            opts.metricsOut = next();
            opts.sweep.metrics = true;
        } else if (arg == "--trace-out") {
            opts.traceOut = next();
            opts.sweep.tracing = true;
            opts.sweep.metrics = true;
        } else if (arg == "--sample-interval") {
            opts.sweep.sampleInterval = nextUint(kU64Max);
        } else if (arg == "--timeseries-out") {
            opts.timeseriesOut = next();
        } else if (arg == "--profile-out") {
            opts.profileOut = next();
            opts.sweep.profile = true;
        } else if (arg == "--critpath-out") {
            opts.critpathOut = next();
            opts.sweep.critpath = true;
        } else if (arg == "--whatif-validate") {
            opts.sweep.whatifValidate = true;
        } else if (arg == "--help" || arg == "-h") {
            std::cout
                << "usage: " << (argc > 0 ? argv[0] : "bench")
                << " [options]\n"
                   "  --refs N         demand references per processor\n"
                   "  --procs N        processor count\n"
                   "  --seed N         workload RNG seed\n"
                   "  --jobs N         sweep worker threads "
                   "(0 = all cores, max "
                << ThreadPool::kMaxThreads
                << "; default 1)\n"
                   "  --cache-dir PATH persist results to an on-disk "
                   "cache\n"
                   "  --no-cache       ignore any --cache-dir\n"
                   "  --engine E       simulation core: local (default; "
                   "per-processor\n"
                   "                   local clocks) or cycle (the "
                   "reference loop);\n"
                   "                   bit-identical results\n"
                   "  --csv            machine-readable CSV output\n"
                   "  --out DIR        write each experiment to "
                   "DIR/<name>.txt\n"
                   "  --quiet          suppress informational logging\n"
                   "  --log-level L    minimum severity: error, warn, "
                   "info, debug\n"
                   "  --metrics-out F  write sweep telemetry + metrics "
                   "JSON to F\n"
                   "  --trace-out F    write Chrome trace-event JSON to F\n"
                   "  --sample-interval N  interval time-series sample "
                   "every N cycles (0 = off)\n"
                   "  --timeseries-out F  write prefsim-timeseries-v1 "
                   "JSON to F\n"
                   "  --profile-out F  write prefsim-profile-v1 per-line "
                   "attribution JSON to F\n"
                   "  --critpath-out F write prefsim-critpath-v1 "
                   "critical-path JSON to F\n"
                   "  --whatif-validate  validate the infinite-bus "
                   "what-if against a\n"
                   "                   widened-bus re-simulation "
                   "(needs --critpath-out)\n";
            std::exit(0);
        } else if (positional && arg.rfind("--", 0) != 0) {
            positional->push_back(arg);
        } else {
            prefsim_fatal("unknown option ", arg,
                          " (try ", argv[0], " --help)");
        }
    }
    // --no-cache wins over --cache-dir in either order.
    if (no_cache)
        opts.sweep.cacheDir.clear();
    // Asking for the time-series file implies sampling; pick a sensible
    // default period when none was given explicitly.
    if (!opts.timeseriesOut.empty() && opts.sweep.sampleInterval == 0)
        opts.sweep.sampleInterval = 10000;
    if (opts.sweep.whatifValidate && !opts.sweep.critpath)
        prefsim_fatal("--whatif-validate requires --critpath-out");
    return opts;
}

/** A SweepEngine over the parsed options and the paper's cache. */
inline SweepEngine
makeEngine(const BenchOptions &opts)
{
    return SweepEngine(opts.params, CacheGeometry::paperDefault(),
                       opts.sweep);
}

/**
 * Write whatever --metrics-out and the other document flags asked for.
 * Call once, after the sweep's last runPending()/run() returned. A
 * no-op when no such flag was given.
 */
inline void
emitBenchTelemetry(const BenchOptions &opts, const SweepEngine &engine)
{
    const ObsContext *obs = engine.obs();
    // One document: warn when it holds no runs, then write it.
    auto emit = [](const std::string &path, const char *kind,
                   const std::string &what, const char *empty_warning,
                   auto &&write) {
        if (path.empty())
            return;
        if (empty_warning != nullptr)
            prefsim_warn(empty_warning);
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        if (!out) {
            prefsim_warn("cannot write ", kind, " file ", path);
            return;
        }
        write(out);
        prefsim_inform("wrote ", what, " to ", path);
    };
    auto unless = [](bool recorded, const char *warning) {
        return recorded ? nullptr : warning;
    };
    emit(opts.metricsOut, "metrics", "metrics", nullptr,
         [&](std::ostream &os) { engine.writeTelemetryJson(os); });
    emit(opts.timeseriesOut, "time-series", "interval time series",
         unless(obs != nullptr && !obs->timeseries.empty(),
                "--timeseries-out: no series recorded (cached results "
                "skip simulation; rerun with --no-cache or a fresh "
                "--cache-dir for full coverage)"),
         [&](std::ostream &os) { engine.writeTimeseriesJson(os); });
    emit(opts.profileOut, "profile", "attribution profile",
         unless(obs != nullptr && !obs->profile.empty(),
                "--profile-out: no profile runs recorded"),
         [&](std::ostream &os) { engine.writeProfileJson(os); });
    emit(opts.critpathOut, "critpath", "critical-path analysis",
         unless(obs != nullptr && !obs->critpath.empty(),
                "--critpath-out: no critical-path runs recorded"),
         [&](std::ostream &os) { engine.writeCritPathJson(os); });
    emit(opts.traceOut, "trace",
         "Chrome trace for https://ui.perfetto.dev",
         unless(obs != nullptr && obs->tracer.numSessions() > 0,
                "--trace-out: no trace sessions recorded"),
         [&](std::ostream &os) {
             if (obs != nullptr)
                 obs->tracer.exportChromeTrace(os);
         });
}

} // namespace prefsim

#endif // PREFSIM_BENCH_BENCH_COMMON_HH
