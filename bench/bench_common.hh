/**
 * @file
 * Shared sweep-runner entry point for the bench harness.
 *
 * Every reproduction binary accepts one uniform option set (any order):
 *   --refs N         demand references per processor (default 100000)
 *   --procs N        processor count (default 16)
 *   --seed N         workload RNG seed (default 12345)
 *   --jobs N         sweep worker threads (0 = all cores, at most
 *                    ThreadPool::kMaxThreads; default 1)
 *   --cache-dir PATH persist results to an on-disk cache at PATH
 *   --no-cache       ignore any --cache-dir; recompute everything
 *   --engine E       simulation core: local (default) or cycle
 *   --csv            machine-readable CSV output (where supported)
 *   --quiet          suppress informational logging
 *   --log-level L    minimum log severity: error, warn, info, debug
 *   --metrics-out F  write sweep telemetry + simulator metrics JSON to F
 *   --trace-out F    write a Chrome trace-event JSON document to F
 *   --sample-interval N  capture an interval time-series sample every N
 *                    simulated cycles (0 = off)
 *   --timeseries-out F  write the prefsim-timeseries-v1 JSON document
 *                    to F (defaults --sample-interval to 10000 when not
 *                    given explicitly)
 *   --profile-out F  write the prefsim-profile-v1 per-line contention
 *                    attribution JSON document to F
 *   --critpath-out F write the prefsim-critpath-v1 critical-path
 *                    analysis JSON document to F
 *   --whatif-validate  re-simulate each point with an infinitely wide
 *                    bus and attach the measured cycles to the critpath
 *                    run (requires --critpath-out; ~2x simulation cost)
 *
 * parseBenchArgs handles the full set in a single pass, so flags can be
 * given in any order; makeEngine turns the result into a SweepEngine.
 * Binaries that want --metrics-out/--trace-out to produce output call
 * emitBenchTelemetry(opts, engine) after their sweep completes.
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
#include "stats/table.hh"

namespace prefsim
{

/** Everything a reproduction binary needs from its command line. */
struct BenchOptions
{
    WorkloadParams params = defaultWorkloadParams();
    SweepOptions sweep;
    bool csv = false;
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
 * (in order) instead of being rejected — the examples use this for
 * their `quickstart mp3d PREF 8`-style invocation.
 */
inline BenchOptions
parseBenchArgs(int argc, char **argv,
               std::vector<std::string> *positional = nullptr)
{
    BenchOptions opts;
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
            opts.sweep.useCache = false;
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
    // Asking for the time-series file implies sampling; pick a sensible
    // default period when none was given explicitly.
    if (!opts.timeseriesOut.empty() && opts.sweep.sampleInterval == 0)
        opts.sweep.sampleInterval = 10000;
    if (opts.sweep.whatifValidate && !opts.sweep.critpath)
        prefsim_fatal("--whatif-validate requires --critpath-out");
    return opts;
}

/** A SweepEngine over the parsed options (geometry overridable). */
inline SweepEngine
makeEngine(const BenchOptions &opts,
           CacheGeometry geometry = CacheGeometry::paperDefault())
{
    return SweepEngine(opts.params, geometry, opts.sweep);
}

/**
 * Write whatever --metrics-out / --trace-out asked for. Call once,
 * after the sweep's last runPending()/run() returned. A no-op when
 * neither flag was given.
 */
inline void
emitBenchTelemetry(const BenchOptions &opts, const SweepEngine &engine)
{
    if (!opts.metricsOut.empty()) {
        std::ofstream out(opts.metricsOut,
                          std::ios::binary | std::ios::trunc);
        if (!out) {
            prefsim_warn("cannot write metrics file ", opts.metricsOut);
        } else {
            engine.writeTelemetryJson(out);
            prefsim_inform("wrote metrics to ", opts.metricsOut);
        }
    }
    if (!opts.timeseriesOut.empty()) {
        const ObsContext *obs = engine.obs();
        if (obs == nullptr || obs->timeseries.empty()) {
            prefsim_warn("--timeseries-out: no series recorded (cached "
                         "results skip simulation; rerun with --no-cache "
                         "or a fresh --cache-dir for full coverage)");
        }
        std::ofstream out(opts.timeseriesOut,
                          std::ios::binary | std::ios::trunc);
        if (!out) {
            prefsim_warn("cannot write time-series file ",
                         opts.timeseriesOut);
        } else {
            engine.writeTimeseriesJson(out);
            prefsim_inform("wrote interval time series to ",
                           opts.timeseriesOut);
        }
    }
    if (!opts.profileOut.empty()) {
        const ObsContext *obs = engine.obs();
        if (obs == nullptr || obs->profile.empty()) {
            prefsim_warn("--profile-out: no profile runs recorded");
        }
        std::ofstream out(opts.profileOut,
                          std::ios::binary | std::ios::trunc);
        if (!out) {
            prefsim_warn("cannot write profile file ", opts.profileOut);
        } else {
            engine.writeProfileJson(out);
            prefsim_inform("wrote attribution profile to ",
                           opts.profileOut);
        }
    }
    if (!opts.critpathOut.empty()) {
        const ObsContext *obs = engine.obs();
        if (obs == nullptr || obs->critpath.empty()) {
            prefsim_warn("--critpath-out: no critical-path runs recorded");
        }
        std::ofstream out(opts.critpathOut,
                          std::ios::binary | std::ios::trunc);
        if (!out) {
            prefsim_warn("cannot write critpath file ", opts.critpathOut);
        } else {
            engine.writeCritPathJson(out);
            prefsim_inform("wrote critical-path analysis to ",
                           opts.critpathOut);
        }
    }
    if (!opts.traceOut.empty()) {
        const ObsContext *obs = engine.obs();
        if (obs == nullptr || obs->tracer.numSessions() == 0) {
            prefsim_warn("--trace-out: no trace sessions recorded");
        }
        std::ofstream out(opts.traceOut,
                          std::ios::binary | std::ios::trunc);
        if (!out) {
            prefsim_warn("cannot write trace file ", opts.traceOut);
        } else if (obs != nullptr) {
            obs->tracer.exportChromeTrace(out);
            prefsim_inform("wrote Chrome trace to ", opts.traceOut,
                           " (load at https://ui.perfetto.dev)");
        }
    }
}

/** Format a measured/paper pair: "0.27 (paper 0.27)". */
inline std::string
withPaper(double measured, std::optional<double> reference, int prec = 2)
{
    std::string s = TextTable::num(measured, prec);
    if (reference)
        s += " (" + TextTable::num(*reference, prec) + ")";
    return s;
}

} // namespace prefsim

#endif // PREFSIM_BENCH_BENCH_COMMON_HH
