/**
 * @file
 * Command-line front end of the static trace analyzer.
 *
 *   prefsim_analyze [--json] [--strategy S] [--transfer N] FILE...
 *   prefsim_analyze [--json] --gen all|NAME [--procs N] [--refs N]
 *                   [--seed S] [--strategy S] [--transfer N]
 *   ... --validate [--profile FILE] [--late-floor F]
 *
 * Each input trace (file — text v1 or binary v2, sniffed — or
 * in-process generator; shared resolution with prefsim_lint) is
 * annotated with the chosen prefetch strategy (default PREF; NP
 * analyzes the trace as-is) and run through the static passes *without
 * simulating*: per-prefetch quality classification
 * (prefetch.quality.*) and vector-clock + lockset race detection
 * (race.*). Results serialise as `prefsim-analysis-v1` (--json).
 *
 * --validate cross-checks the prediction against the simulator's
 * `prefsim-profile-v1` ground truth for the same label: either loaded
 * from --profile FILE, or produced by one in-process profiled
 * simulation. The confusion matrix and the predicted-late recall
 * (checked against --late-floor, default 0.5) land in the run's
 * "validation" block; drift findings use analysis.drift.* rules.
 *
 * Exit codes: 0 no violations (warnings allowed), 1 violations,
 * 2 usage or I/O error or a malformed --profile document (the
 * diagnostic names the key path) — the convention shared by
 * prefsim_lint and validate_telemetry.
 */

#include <cstring>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "analysis/analysis_json.hh"
#include "analysis/cross_validate.hh"
#include "analysis/prefetch_quality.hh"
#include "analysis/race_detect.hh"
#include "common/cache_geometry.hh"
#include "common/parse_uint.hh"
#include "mem/split_bus.hh"
#include "obs/obs.hh"
#include "prefetch/inserter.hh"
#include "prefetch/strategy.hh"
#include "sim/simulator.hh"
#include "trace/trace_input.hh"
#include "trace/workload.hh"

namespace
{

using namespace prefsim;
using namespace prefsim::analysis;

[[noreturn]] void
usage(const std::string &complaint = "")
{
    if (!complaint.empty())
        std::cerr << "prefsim_analyze: " << complaint << "\n";
    std::cerr
        << "usage: prefsim_analyze [--json] [--strategy S] "
           "[--transfer N] FILE...\n"
           "       prefsim_analyze [--json] --gen all|topopt|pverify|"
           "locusroute|mp3d|water\n"
           "                       [--procs N] [--refs N] [--seed S] "
           "[--strategy S] [--transfer N]\n"
           "       ... --validate [--profile FILE] [--late-floor F]\n";
    std::exit(verify::kExitUsage);
}

double
parseFraction(const char *text, const char *what)
{
    char *end = nullptr;
    const double v = std::strtod(text, &end);
    if (!end || *end || end == text || v < 0.0 || v > 1.0)
        usage(std::string("bad ") + what + " \"" + text + "\"");
    return v;
}

/** "gen:topopt" -> "topopt"; file paths pass through. */
std::string
baseName(const std::string &input_name)
{
    constexpr const char *kGenPrefix = "gen:";
    if (input_name.rfind(kGenPrefix, 0) == 0)
        return input_name.substr(std::strlen(kGenPrefix));
    return input_name;
}

} // namespace

int
main(int argc, char **argv)
{
    bool json = false;
    bool validate = false;
    std::string gen;
    std::string strategy_name = "PREF";
    std::string profile_path;
    double late_floor = 0.5;
    unsigned transfer = 8;
    WorkloadParams params;
    std::vector<std::string> files;

    constexpr std::uint64_t kUnsignedMax =
        std::numeric_limits<unsigned>::max();
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(arg + " needs a value");
            return argv[++i];
        };
        // The next argument as a count no larger than @p max.
        auto nextCount = [&](const char *what, std::uint64_t max =
                                 std::numeric_limits<std::uint64_t>::max()) {
            const char *text = next();
            const std::optional<std::uint64_t> v = parseUint(text, max);
            if (!v)
                usage(std::string("bad ") + what + " \"" + text + "\"");
            return *v;
        };
        if (arg == "--json")
            json = true;
        else if (arg == "--validate")
            validate = true;
        else if (arg == "--gen")
            gen = next();
        else if (arg == "--strategy")
            strategy_name = next();
        else if (arg == "--profile")
            profile_path = next();
        else if (arg == "--late-floor")
            late_floor = parseFraction(next(), "late floor");
        else if (arg == "--transfer")
            transfer = static_cast<unsigned>(
                nextCount("transfer size", kUnsignedMax));
        else if (arg == "--procs")
            params.numProcs =
                static_cast<unsigned>(nextCount("proc count", kUnsignedMax));
        else if (arg == "--refs")
            params.refsPerProc = nextCount("refs per proc");
        else if (arg == "--seed")
            params.seed = nextCount("seed");
        else if (!arg.empty() && arg[0] == '-')
            usage("unknown argument \"" + arg + "\"");
        else
            files.push_back(arg);
    }
    if (gen.empty() == files.empty())
        usage("analyze either files or generated workloads (--gen)");
    if (!profile_path.empty() && !validate)
        usage("--profile only makes sense with --validate");

    const Strategy strategy = strategyFromName(strategy_name);
    const CacheGeometry geom = CacheGeometry::paperDefault();
    BusTiming timing;
    timing.dataTransfer = transfer;

    std::string error;
    const std::vector<TraceInput> inputs =
        resolveTraceInputs(gen, files, params, error);
    if (!error.empty()) {
        std::cerr << "prefsim_analyze: " << error << "\n";
        return verify::kExitUsage;
    }

    std::vector<obs::ProfileRun> profile_runs;
    if (!profile_path.empty()) {
        try {
            profile_runs = obs::loadProfileJson(profile_path);
        } catch (const std::runtime_error &e) {
            std::cerr << "prefsim_analyze: " << e.what() << "\n";
            return verify::kExitUsage;
        }
    }

    std::vector<AnalysisRun> runs;
    std::vector<verify::Finding> all;
    for (const TraceInput &input : inputs) {
        const AnnotatedTrace annotated =
            annotateTrace(input.trace, strategy, geom);

        AnalysisRun run;
        run.label = baseName(input.name) + "/" +
                    strategyName(strategy) + "@" +
                    std::to_string(transfer);
        run.procs = static_cast<unsigned>(annotated.trace.numProcs());
        run.quality =
            analyzePrefetchQuality(annotated.trace, geom, timing);
        run.race = detectRaces(annotated.trace);

        if (validate) {
            const obs::ProfileRun *truth = nullptr;
            std::vector<obs::ProfileRun> local;
            if (!profile_path.empty()) {
                truth = findProfileRun(profile_runs, run.label);
                if (!truth) {
                    std::cerr << "prefsim_analyze: " << profile_path
                              << " has no run labelled \"" << run.label
                              << "\"\n";
                    return verify::kExitUsage;
                }
            } else {
                // One profiled simulation — the only place the
                // analyzer runs the machine, and only to grade itself.
                ObsContext obs;
                SimConfig cfg;
                cfg.geometry = geom;
                cfg.timing.dataTransfer = transfer;
                cfg.obs = &obs;
                cfg.profile = true;
                cfg.traceLabel = run.label;
                simulate(annotated.trace, cfg);
                local = obs.profile.snapshot();
                truth = findProfileRun(local, run.label);
                if (!truth) {
                    std::cerr << "prefsim_analyze: simulation produced "
                                 "no profile for \""
                              << run.label << "\"\n";
                    return verify::kExitUsage;
                }
            }
            run.validation =
                crossValidate(run.quality, *truth, late_floor);
        }

        for (verify::Finding &f : collectFindings(run))
            all.push_back(std::move(f));
        runs.push_back(std::move(run));
    }

    if (json) {
        writeAnalysisJson(std::cout, runs, all);
    } else {
        for (const AnalysisRun &run : runs) {
            const PredictedCounts &t = run.quality.totals;
            std::cout << run.label << ": " << run.quality.prefetches
                      << " prefetches — " << t.timely << " timely, "
                      << t.late << " late, " << t.useless
                      << " useless, " << t.redundant
                      << " redundant; race: "
                      << run.race.stats.raceCandidates
                      << " candidates, "
                      << run.race.stats.lockSerialised
                      << " lock-serialised over "
                      << run.race.stats.episodes << " episodes";
            if (run.validation) {
                std::cout << "; late recall "
                          << run.validation->lateRecall * 100.0
                          << "% of " << run.validation->pfIssued
                          << " issued";
            }
            std::cout << "\n";
        }
        verify::writeFindingsText(std::cout, all);
    }
    return verify::findingsExitCode(all);
}
