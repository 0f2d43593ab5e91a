/**
 * @file
 * Command-line front end of the protocol model checker.
 *
 *   prefsim_verify [--json] [--caches N] [--mutation NAME]
 *                  [--max-states N] [--max-drain N]
 *
 * Exhaustively enumerates the reachable single-line protocol state
 * space of the implemented coherence machinery (src/verify/
 * model_checker.hh) and reports the visited-state count, whether the
 * space was exhausted, and any invariant violation with its minimal
 * counterexample. --mutation seeds a deliberate protocol bug to
 * demonstrate detection (the run is then *expected* to exit 1).
 *
 * Exit codes: 0 no violations, 1 violations found, 2 usage error —
 * the convention shared by prefsim_lint and validate_telemetry.
 */

#include <chrono>
#include <cstring>
#include <iostream>
#include <limits>
#include <optional>
#include <string>

#include "common/json.hh"
#include "common/parse_uint.hh"
#include "verify/model_checker.hh"

namespace
{

using namespace prefsim;
using namespace prefsim::verify;

[[noreturn]] void
usage(const std::string &complaint = "")
{
    if (!complaint.empty())
        std::cerr << "prefsim_verify: " << complaint << "\n";
    std::cerr << "usage: prefsim_verify [--json] [--caches N(2..4)]\n"
                 "           [--mutation none|skip-invalidate|"
                 "skip-downgrade|keep-stale-mshr]\n"
                 "           [--max-states N] [--max-drain CYCLES]\n";
    std::exit(kExitUsage);
}

ProtocolMutation
mutationFromName(const std::string &name)
{
    if (name == "none")
        return ProtocolMutation::None;
    if (name == "skip-invalidate")
        return ProtocolMutation::SkipInvalidate;
    if (name == "skip-downgrade")
        return ProtocolMutation::SkipDowngrade;
    if (name == "keep-stale-mshr")
        return ProtocolMutation::KeepStaleMshrTarget;
    usage("unknown mutation \"" + name + "\"");
}

const char *
mutationName(ProtocolMutation m)
{
    switch (m) {
      case ProtocolMutation::None:
        return "none";
      case ProtocolMutation::SkipInvalidate:
        return "skip-invalidate";
      case ProtocolMutation::SkipDowngrade:
        return "skip-downgrade";
      case ProtocolMutation::KeepStaleMshrTarget:
        return "keep-stale-mshr";
    }
    return "?";
}

} // namespace

int
main(int argc, char **argv)
{
    ModelCheckerConfig cfg;
    bool json = false;

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
        if (arg == "--json") {
            json = true;
        } else if (arg == "--caches") {
            cfg.numCaches =
                static_cast<unsigned>(nextCount("cache count", kUnsignedMax));
            if (cfg.numCaches < 2 || cfg.numCaches > 4)
                usage("--caches must be 2..4");
        } else if (arg == "--mutation") {
            cfg.mutation = mutationFromName(next());
        } else if (arg == "--max-states") {
            cfg.maxStates = nextCount("state limit");
        } else if (arg == "--max-drain") {
            cfg.maxDrainCycles = nextCount("drain limit");
        } else {
            usage("unknown argument \"" + arg + "\"");
        }
    }

    const auto start = std::chrono::steady_clock::now();
    const ModelCheckerReport rep = checkProtocol(cfg);
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();

    if (json) {
        JsonWriter j(std::cout);
        j.beginObject();
        j.key("schema").value("prefsim-findings-v1");
        j.key("tool").value("prefsim_verify");
        j.key("caches").value(std::uint64_t{cfg.numCaches});
        j.key("mutation").value(mutationName(cfg.mutation));
        j.key("states_visited").value(rep.statesVisited);
        j.key("transitions_explored").value(rep.transitionsExplored);
        j.key("exhausted").value(rep.exhausted);
        j.key("elapsed_seconds").value(elapsed);
        j.key("counterexample").beginArray();
        for (const CheckStep &s : rep.counterexample)
            j.value(checkStepName(s));
        j.endArray();
        writeFindingsJson(j, rep.findings);
        j.key("ok").value(rep.ok());
        j.endObject();
        std::cout << "\n";
    } else {
        std::cout << "prefsim_verify: " << cfg.numCaches << " caches, "
                  << "mutation " << mutationName(cfg.mutation) << "\n"
                  << "  states visited:       " << rep.statesVisited << "\n"
                  << "  transitions explored: " << rep.transitionsExplored
                  << "\n"
                  << "  exhausted:            "
                  << (rep.exhausted ? "yes" : "no") << "\n"
                  << "  elapsed:              " << elapsed << " s\n";
        writeFindingsText(std::cout, rep.findings);
        if (!rep.counterexample.empty())
            std::cout << "counterexample: "
                      << checkPathName(rep.counterexample) << "\n";
        if (rep.ok())
            std::cout << "ok: no invariant violations\n";
    }
    return findingsExitCode(rep.findings);
}
