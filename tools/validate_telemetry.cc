/**
 * @file
 * Structural validator for the observability layer's JSON outputs.
 *
 *   validate_telemetry [--json] FILE.json [FILE.json ...]
 *
 * Checks each file with verify::checkTelemetry
 * (src/verify/telemetry_check.hh, which lists the per-schema checks)
 * and prints one ok line per valid file.
 *
 * Violations are reported in the shared verification vocabulary
 * (src/verify/finding.hh) under the telemetry.* rules; --json emits a
 * prefsim-findings-v1 document. Exit codes: 0 everything holds,
 * 1 violations, 2 usage or I/O error — the convention shared by
 * prefsim_lint and prefsim_verify. scripts/check.sh runs this over the
 * bench telemetry and Chrome-trace output of the default build.
 */

#include <iostream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "verify/telemetry_check.hh"

using namespace prefsim;
using namespace prefsim::verify;

int
main(int argc, char **argv)
{
    bool json = false;
    std::vector<std::string> paths;
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--json")
            json = true;
        else
            paths.push_back(argv[i]);
    }
    if (paths.empty()) {
        std::cerr << "usage: validate_telemetry [--json] FILE.json "
                     "[FILE.json ...]\n";
        return kExitUsage;
    }

    std::vector<Finding> findings;
    std::uint64_t trace_events = 0;
    std::vector<std::string> ok_lines;
    for (const std::string &path : paths) {
        const std::optional<std::string> text = readTextFile(path);
        if (!text) {
            std::cerr << "validate_telemetry: cannot open " << path << "\n";
            return kExitUsage;
        }
        TelemetryCheck check = checkTelemetry(*text, path);
        trace_events += check.traceEvents;
        if (check.violation)
            findings.push_back(std::move(*check.violation));
        else
            ok_lines.push_back(std::move(check.okLine));
    }

    if (json) {
        JsonWriter j(std::cout);
        j.beginObject();
        j.key("schema").value("prefsim-findings-v1");
        j.key("tool").value("validate_telemetry");
        j.key("trace_events").value(trace_events);
        writeFindingsJson(j, findings);
        j.key("ok").value(findings.empty());
        j.endObject();
        std::cout << "\n";
    } else {
        writeFindingsText(std::cout, findings);
        for (const std::string &line : ok_lines)
            std::cout << line << "\n";
    }
    return findingsExitCode(findings);
}
