/**
 * @file
 * Malformed-input tests for the telemetry tools, run as processes.
 *
 * Each document under tests/malformed/ holds a value of the wrong kind
 * where a reader expects another. The tools must end in a diagnostic
 * that names the key: validate_telemetry with exit 1 and a
 * telemetry.schema finding, prefsim_report and prefsim_analyze with
 * exit 2 — never an assertion abort (exit 134).
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace
{

struct Outcome
{
    int exit = -1;
    std::string output; ///< stdout and stderr, interleaved.
};

/** Run tool @p tool (a file in the tools directory) with @p args. */
Outcome
runTool(const std::string &tool, const std::string &args)
{
    // One output file per test: ctest runs the tests concurrently.
    const std::string out_path =
        testing::TempDir() + "test_tools_" +
        testing::UnitTest::GetInstance()->current_test_info()->name() +
        "_" + tool + ".out";
    const std::string cmd = std::string(PREFSIM_TOOLS_DIR) + "/" + tool +
                            " " + args + " > " + out_path + " 2>&1";
    const int status = std::system(cmd.c_str());
    Outcome o;
    o.exit = WIFEXITED(status) ? WEXITSTATUS(status) : 128;
    std::ifstream in(out_path);
    std::ostringstream text;
    text << in.rdbuf();
    o.output = text.str();
    return o;
}

std::string
malformed(const std::string &name)
{
    return std::string(PREFSIM_MALFORMED_DIR) + "/" + name;
}

/** Write @p text to a scratch file and return its path. */
std::string
scratchFile(const std::string &name, const std::string &text)
{
    const std::string path = testing::TempDir() + name;
    std::ofstream(path, std::ios::binary) << text;
    return path;
}

TEST(ValidateTelemetry, ProfileProcsStringIsASchemaFinding)
{
    const Outcome o = runTool("validate_telemetry",
                              malformed("profile_procs_string.json"));
    EXPECT_EQ(o.exit, 1) << o.output;
    EXPECT_NE(o.output.find("[telemetry.schema] runs[0].procs"),
              std::string::npos)
        << o.output;
}

TEST(ValidateTelemetry, CritPathLabelNumberIsASchemaFinding)
{
    const Outcome o = runTool("validate_telemetry",
                              malformed("critpath_label_number.json"));
    EXPECT_EQ(o.exit, 1) << o.output;
    EXPECT_NE(o.output.find("[telemetry.schema] runs[0].label"),
              std::string::npos)
        << o.output;
}

TEST(ValidateTelemetry, FractionalTimestampIsASchemaFinding)
{
    const Outcome o = runTool("validate_telemetry",
                              malformed("trace_fractional_ts.json"));
    EXPECT_EQ(o.exit, 1) << o.output;
    EXPECT_NE(o.output.find("[telemetry.schema] traceEvents[0].ts"),
              std::string::npos)
        << o.output;
}

TEST(ValidateTelemetry, TraceOkLinesCountEachFile)
{
    const std::string event =
        "{\"ph\":\"i\",\"name\":\"x\",\"pid\":0,\"tid\":0,\"ts\":1}";
    const std::string two = scratchFile(
        "test_tools_two.json",
        "{\"traceEvents\":[" + event + "," + event + "]}");
    const std::string one = scratchFile(
        "test_tools_one.json", "{\"traceEvents\":[" + event + "]}");
    const Outcome text = runTool("validate_telemetry", two + " " + one);
    EXPECT_EQ(text.exit, 0) << text.output;
    EXPECT_NE(text.output.find("trace ok: " + two + " (2 events)"),
              std::string::npos)
        << text.output;
    EXPECT_NE(text.output.find("trace ok: " + one + " (1 events)"),
              std::string::npos)
        << text.output;
    // The --json total stays cumulative.
    const Outcome json =
        runTool("validate_telemetry", "--json " + two + " " + one);
    EXPECT_NE(json.output.find("\"trace_events\":3"), std::string::npos)
        << json.output;
}

TEST(PrefsimReport, CritPathWhatIfObjectNamesTheKey)
{
    const Outcome o = runTool(
        "prefsim_report",
        "--critpath " + malformed("critpath_whatif_object.json"));
    EXPECT_EQ(o.exit, 2) << o.output;
    EXPECT_NE(o.output.find("runs[0].whatif: not an array"),
              std::string::npos)
        << o.output;
    EXPECT_EQ(o.output.find("Critical path"), std::string::npos);
}

TEST(PrefsimReport, ProfileProcsStringNamesTheKey)
{
    const Outcome o = runTool(
        "prefsim_report",
        "--profile " + malformed("profile_procs_string.json"));
    EXPECT_EQ(o.exit, 2) << o.output;
    EXPECT_NE(o.output.find("runs[0].procs"), std::string::npos)
        << o.output;
}

TEST(PrefsimReport, DriftFindingsObjectNamesTheKey)
{
    const Outcome o = runTool(
        "prefsim_report",
        "--drift " + malformed("analysis_findings_object.json"));
    EXPECT_EQ(o.exit, 2) << o.output;
    EXPECT_NE(o.output.find("findings: expected an array"),
              std::string::npos)
        << o.output;
    EXPECT_EQ(o.output.find("Static prefetch-quality"), std::string::npos);
}

TEST(PrefsimReport, HistoryCyclesPerSecondStringNamesTheKey)
{
    const Outcome o = runTool(
        "prefsim_report",
        "--compare " + malformed("history_cycles_string.jsonl"));
    EXPECT_EQ(o.exit, 2) << o.output;
    EXPECT_NE(o.output.find(":1: cycles_per_s: expected a number"),
              std::string::npos)
        << o.output;
}

TEST(PrefsimAnalyze, ValidateAgainstMalformedProfileNamesTheKey)
{
    const Outcome o = runTool(
        "prefsim_analyze", "--gen mp3d --procs 2 --refs 500 --validate "
                           "--profile " +
                               malformed("profile_procs_string.json"));
    EXPECT_EQ(o.exit, 2) << o.output;
    EXPECT_NE(o.output.find("runs[0].procs"), std::string::npos)
        << o.output;
}

} // namespace
