/**
 * @file
 * Command-line front end of the trace linter.
 *
 *   prefsim_lint [--json] FILE...
 *   prefsim_lint [--json] --gen all|NAME [--procs N] [--refs N]
 *                [--seed S]
 *
 * The first form lints trace files (text v1 or binary v2, sniffed);
 * the second generates workloads in-process and lints them — check.sh
 * runs `--gen all` so every generator's output is validated on every
 * push. Rules are catalogued in docs/verification.md.
 *
 * Exit codes: 0 no violations (warnings allowed), 1 violations,
 * 2 usage or I/O error — the convention shared by prefsim_verify and
 * validate_telemetry.
 */

#include <cstring>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/parse_uint.hh"
#include "trace/trace.hh"
#include "trace/trace_input.hh"
#include "trace/workload.hh"
#include "verify/trace_lint.hh"

namespace
{

using namespace prefsim;
using namespace prefsim::verify;

[[noreturn]] void
usage(const std::string &complaint = "")
{
    if (!complaint.empty())
        std::cerr << "prefsim_lint: " << complaint << "\n";
    std::cerr
        << "usage: prefsim_lint [--json] FILE...\n"
           "       prefsim_lint [--json] --gen all|topopt|pverify|"
           "locusroute|mp3d|water\n"
           "                    [--procs N] [--refs N] [--seed S]\n";
    std::exit(kExitUsage);
}

/** One linted trace with its provenance. */
struct Target
{
    std::string name;
    TraceLintReport report;
};

} // namespace

int
main(int argc, char **argv)
{
    bool json = false;
    std::string gen;
    WorkloadParams params;
    params.refsPerProc = 20000;
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
        else if (arg == "--gen")
            gen = next();
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
        usage("lint either files or generated workloads (--gen)");

    // Shared input resolution (trace/trace_input.hh): files — text v1
    // or binary v2, sniffed — or in-process generators, same as
    // prefsim_analyze. Unreadable input is a usage error (exit 2), not
    // a lint violation.
    std::string input_error;
    const std::vector<TraceInput> inputs =
        resolveTraceInputs(gen, files, params, input_error);
    if (!input_error.empty()) {
        std::cerr << "prefsim_lint: " << input_error << "\n";
        return kExitUsage;
    }

    std::vector<Target> targets;
    for (const TraceInput &input : inputs)
        targets.push_back({input.name, lintTrace(input.trace)});

    // Aggregate: one findings list, locations prefixed by target.
    std::vector<Finding> all;
    for (const Target &t : targets) {
        for (Finding f : t.report.findings) {
            f.location = f.location.empty()
                             ? t.name
                             : t.name + ": " + f.location;
            all.push_back(std::move(f));
        }
    }

    if (json) {
        JsonWriter j(std::cout);
        j.beginObject();
        j.key("schema").value("prefsim-findings-v1");
        j.key("tool").value("prefsim_lint");
        j.key("targets").beginArray();
        for (const Target &t : targets) {
            j.beginObject();
            j.key("name").value(t.name);
            j.key("records").value(t.report.stats.records);
            j.key("demand_refs").value(t.report.stats.demandRefs);
            j.key("prefetches").value(t.report.stats.prefetches);
            j.key("sync_ops").value(t.report.stats.syncOps);
            j.key("ok").value(t.report.ok());
            j.endObject();
        }
        j.endArray();
        writeFindingsJson(j, all);
        j.key("ok").value(!anyError(all));
        j.endObject();
        std::cout << "\n";
    } else {
        for (const Target &t : targets) {
            std::cout << t.name << ": " << t.report.stats.records
                      << " records, " << t.report.stats.demandRefs
                      << " refs, " << t.report.stats.syncOps
                      << " sync ops — "
                      << (t.report.ok() ? "ok" : "VIOLATIONS") << "\n";
        }
        writeFindingsText(std::cout, all);
    }
    return findingsExitCode(all);
}
