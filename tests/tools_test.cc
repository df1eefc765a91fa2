// CLI-level tests for the artemisc toolchain binary: exit codes and key
// output fragments across the check / pretty / codegen / dot / simulate /
// trace / forensics / swap verbs, and each subcommand's flag set. The binary
// path comes from CMake via ARTEMISC_BIN, the example specs from
// ARTEMIS_SOURCE_DIR.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/sweep/grid_json.h"

namespace artemis {
namespace {

#ifndef ARTEMISC_BIN
#define ARTEMISC_BIN "artemisc"
#endif
#ifndef ARTEMIS_SOURCE_DIR
#define ARTEMIS_SOURCE_DIR "."
#endif

std::string WriteTempSpec(const std::string& name, const std::string& content) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream out(path);
  out << content;
  return path;
}

struct RunResult {
  int exit_code;
  std::string output;
};

// Runs artemisc with `args`; output is stdout plus, unless `stdout_only`,
// stderr.
RunResult RunCli(const std::string& args, bool stdout_only = false) {
  const std::string out_path = ::testing::TempDir() + "/artemisc_out.txt";
  const std::string cmd = std::string(ARTEMISC_BIN) + " " + args + " > '" + out_path + "'" +
                          (stdout_only ? " 2> /dev/null" : " 2>&1");
  const int raw = std::system(cmd.c_str());
  std::ifstream in(out_path);
  std::string output((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
  return RunResult{WEXITSTATUS(raw), std::move(output)};
}

TEST(ArtemiscTest, NoArgsPrintsUsage) {
  const RunResult result = RunCli("");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("usage:"), std::string::npos);
}

TEST(ArtemiscTest, CheckAcceptsCleanSpec) {
  const std::string spec =
      WriteTempSpec("ok.prop", "accel: { maxTries: 10 onFail: skipPath; }\n");
  const RunResult result = RunCli("check " + spec);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("OK"), std::string::npos);
}

TEST(ArtemiscTest, CheckFlagsUnsatisfiableProperty) {
  // accel's work alone takes 2 s: a 10 ms maxDuration can never be met.
  const std::string spec =
      WriteTempSpec("bad.prop", "accel: { maxDuration: 10ms onFail: skipTask; }\n");
  const RunResult result = RunCli("check " + spec);
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("ART010"), std::string::npos) << result.output;
}

TEST(ArtemiscTest, CheckFlagsEnergyInfeasibleTask) {
  const std::string spec =
      WriteTempSpec("e.prop", "accel: { maxTries: 10 onFail: skipPath; }\n");
  // accel needs ~18 mJ per attempt; a 1000 uJ budget can never finish it.
  const RunResult result = RunCli("check " + spec + " --budget 1000");
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("ART009"), std::string::npos) << result.output;
}

TEST(ArtemiscTest, CheckRejectsParseError) {
  const std::string spec = WriteTempSpec("syntax.prop", "send: { wat }\n");
  const RunResult result = RunCli("check " + spec);
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("parse error"), std::string::npos);
}

TEST(ArtemiscTest, CheckMayflyLangFrontend) {
  const std::string spec =
      WriteTempSpec("mf.prop", "expires(accel -> send, 5min) path 2;\n");
  const RunResult result = RunCli("check " + spec + " --mayfly-lang");
  EXPECT_EQ(result.exit_code, 0) << result.output;
}

TEST(ArtemiscTest, UsageDocumentsExitCodes) {
  const RunResult result = RunCli("");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("exit codes:"), std::string::npos);
}

// The collect-on-own-dependency spec lowers to two transitions that both
// match end(send) with non-disjoint guards — the canonical ART005 fixture
// (mirrors examples/specs/bad/overlap.prop).
const char kOverlapSpec[] = "send: { collect: 2 dpTask: send onFail: restartPath; }\n";

TEST(ArtemiscTest, CheckAnalyzeAcceptsCleanSpec) {
  const std::string spec =
      WriteTempSpec("an_ok.prop", "accel: { maxTries: 10 onFail: skipPath; }\n");
  const RunResult result = RunCli("check " + spec);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("analyzer: 0 error(s)"), std::string::npos);
}

TEST(ArtemiscTest, CheckAnalyzeFlagsOverlappingTransitions) {
  const std::string spec = WriteTempSpec("an_overlap.prop", kOverlapSpec);
  const RunResult result = RunCli("check " + spec);
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("ART005"), std::string::npos);
}

TEST(ArtemiscTest, CheckAnalyzeJsonEmitsDiagnosticsArray) {
  const std::string spec = WriteTempSpec("an_json.prop", kOverlapSpec);
  const RunResult result = RunCli("check " + spec + " --json");
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("\"code\": \"ART005\""), std::string::npos);
  EXPECT_NE(result.output.find("\"severity\": \"error\""), std::string::npos);
}

TEST(ArtemiscTest, CheckAnalyzeWerrorKeepsCleanSpecClean) {
  const std::string spec =
      WriteTempSpec("an_werror.prop", "accel: { maxTries: 10 onFail: skipPath; }\n");
  const RunResult result = RunCli("check " + spec + " --Werror");
  EXPECT_EQ(result.exit_code, 0) << result.output;
}

const std::string kSpecs = std::string(ARTEMIS_SOURCE_DIR) + "/examples/specs";

// Every shipped example spec checks clean, and every fixture under
// examples/specs/bad/ fails with its headline ART0xx code under the
// deployment axes that expose it. The --spec2 rows run the hot-swap gate
// (ART015/ART016) with the positional spec as the installed image. A spec
// that does not parse or validate is one ART000 entry. Every row's stdout
// is exactly one diagnostics array.
TEST(ArtemiscTest, CheckFixtureTable) {
  const struct {
    std::string args;
    int exit_code;
    const char* code;  // headline diagnostic; nullptr for a clean row
  } kRows[] = {
      {kSpecs + "/health.prop --app health", 0, nullptr},
      {kSpecs + "/health.mayfly --app health --mayfly-lang", 0, nullptr},
      {kSpecs + "/sensornet.prop --app-file " + kSpecs + "/sensornet.app", 0, nullptr},
      // The EXPERIMENTS.md deployment grid must be statically feasible.
      {kSpecs + "/health.prop --app health --charges continuous,1min,3min,6min --budgets 19500",
       0, nullptr},
      {kSpecs + "/bad/dead_state.prop --app health", 1, "ART001"},
      {kSpecs + "/bad/unsat_guard.prop --app health", 1, "ART003"},
      {kSpecs + "/bad/overlap.prop --app health", 1, "ART005"},
      {kSpecs + "/bad/infeasible_budget.prop --app health --budgets 9000", 1, "ART009"},
      {kSpecs + "/bad/infeasible_mitd.prop --app health --budgets 18005 --charges 6min", 1,
       "ART010"},
      {kSpecs + "/bad/dead_violation.prop --app health", 1, "ART011"},
      {kSpecs + "/bad/inevitable_violation.prop --app health", 1, "ART012"},
      {kSpecs + "/bad/war_hazard.prop --app health --no-immortal", 1, "ART013"},
      {kSpecs + "/bad/flight_erosion.prop --app health --flight full --flight-bytes 20", 1,
       "ART014"},
      {kSpecs + "/health.prop --app health --spec2 " + kSpecs + "/health.prop", 0, nullptr},
      {kSpecs + "/health.prop --app health --spec2 " + kSpecs + "/bad/swap_cross_type.prop", 1,
       "ART015"},
      {kSpecs + "/health.prop --app health --spec2 " + kSpecs + "/bad/swap_unknown_rule.prop",
       1, "ART015"},
      {kSpecs + "/health.prop --app health --spec2 " + kSpecs + "/health.prop --budgets 1", 1,
       "ART016"},
      // --no-analyze skips the analyzer: the infeasible fixture passes.
      {kSpecs + "/bad/infeasible_budget.prop --app health --budgets 9000 --no-analyze", 0,
       nullptr},
      // The sensornet spec names tasks the health app does not have.
      {kSpecs + "/sensornet.prop --app health", 1, "ART000"},
      {WriteTempSpec("no_mitd.prop", "send: { MITD: ; }\n") + " --app health", 1, "ART000"},
  };
  for (const auto& row : kRows) {
    const RunResult result = RunCli("check " + row.args + " --json", /*stdout_only=*/true);
    EXPECT_EQ(result.exit_code, row.exit_code) << row.args << "\n" << result.output;
    const StatusOr<sweep::JsonValuePtr> parsed = sweep::ParseJson(result.output);
    ASSERT_TRUE(parsed.ok()) << row.args << ": " << parsed.status().ToString() << "\n"
                             << result.output;
    ASSERT_TRUE(parsed.value()->is_array()) << row.args << "\n" << result.output;
    if (row.code != nullptr) {
      bool found = false;
      for (const sweep::JsonValuePtr& entry : parsed.value()->array()) {
        const sweep::JsonValuePtr code = entry->Find("code");
        found = found || (code != nullptr && code->string() == row.code);
      }
      EXPECT_TRUE(found) << row.args << "\n" << result.output;
    }
  }
}

TEST(ArtemiscTest, CodegenRefusesOnAnalyzerErrors) {
  const std::string spec = WriteTempSpec("an_refuse.prop", kOverlapSpec);
  const RunResult result = RunCli("codegen " + spec);
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("refusing to emit C code"), std::string::npos);
}

TEST(ArtemiscTest, CodegenNoAnalyzeOverridesTheGate) {
  const std::string spec = WriteTempSpec("an_override.prop", kOverlapSpec);
  const RunResult result = RunCli("codegen " + spec + " --no-analyze");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("callMonitor"), std::string::npos);
}

// `dot` and `pretty` print whole documents: each must equal its golden
// byte for byte (tests/golden/cli/), with its exit code. dead_state.prop's
// dot exits 1 (ART001) and shades the dead state gray.
TEST(ArtemiscTest, DotAndPrettyMatchGoldens) {
  const struct {
    std::string args;
    const char* golden;
    int exit_code;
  } kRows[] = {
      {"dot " + kSpecs + "/health.prop", "dot_health.dot", 0},
      {"dot " + kSpecs + "/bad/dead_state.prop", "dot_bad_dead_state.dot", 1},
      {"dot " + kSpecs + "/sensornet.prop --app-file " + kSpecs + "/sensornet.app",
       "dot_sensornet.dot", 0},
      {"pretty " + kSpecs + "/health.prop", "pretty_health.txt", 0},
      {"pretty " + kSpecs + "/health.mayfly --mayfly-lang", "pretty_health_mayfly.txt", 0},
  };
  for (const auto& row : kRows) {
    const RunResult result = RunCli(row.args, /*stdout_only=*/true);
    EXPECT_EQ(result.exit_code, row.exit_code) << row.args;
    std::ifstream in(std::string(ARTEMIS_SOURCE_DIR) + "/tests/golden/cli/" + row.golden);
    ASSERT_TRUE(in.good()) << row.golden;
    const std::string golden((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
    EXPECT_EQ(result.output, golden) << row.args;
  }
}

// Numbers the languages cannot hold fail as input that does not parse,
// with each subcommand's exit code for it: a literal past double range used
// to abort every tool with std::out_of_range (exit 134), and a negative
// attempt bound used to wrap to 4294967294.
TEST(ArtemiscTest, OutOfRangeNumbersFailCleanly) {
  const std::string huge(400, '9');
  const std::string spec = WriteTempSpec("huge.prop", "send: { maxTries: " + huge + "; }\n");
  const std::string wrapped = WriteTempSpec(
      "wrapped.prop",
      "send: { MITD: 5min dpTask: accel onFail: restartPath maxAttempt: -2 onFail: skipPath; }\n");
  const std::string mayfly =
      WriteTempSpec("huge.mayfly", "expires(accel -> send, " + huge + ");\n");
  const std::string app = WriteTempSpec(
      "huge.app", "app x { task t { duration: " + huge + "; power: 1mW; } path 1: t; }\n");
  const std::string health = kSpecs + "/health.prop";
  // A device that does not fit its FRAM is refused before it runs, and a
  // ring the arena cannot hold before it is allocated.
  const std::string swap = "swap " + health + " " + health +
                           " --app health --schedule 6min --swap-at 2min --flight full";
  const struct {
    std::string args;
    int exit_code;
    const char* expect;
  } kRows[] = {
      {"check " + spec + " --app health", 1, "lex error at line 1:19"},
      {"check " + wrapped + " --app health", 1, "maxAttempt must be a non-negative integer"},
      {"check " + mayfly + " --mayfly-lang", 1, "lex error at line 1:24"},
      {"sweep --spec " + spec + " --format json", 1, "\"status\": \"error\""},
      {"sweep --spec " + spec + " --format json --no-analyze", 1, "\"status\": \"error\""},
      {"fleet --spec " + spec + " --devices 2", 2, "lex error at line 1:19"},
      {"profile --app-file " + app, 2, "lex error at line 1:28"},
      {"forensics dump --app health --schedule 6min --flight-bytes 262100", 2,
       "NVM arena exhausted: 'monitor-set'"},
      {"forensics dump --app health --schedule 6min --flight-bytes 18446744073709551615", 2,
       "NVM arena exhausted: 'flight-recorder'"},
      {"sweep --app health --charges 6min --flight full --flight-bytes 1000000000000 "
       "--format json",
       1, "NVM arena exhausted: 'flight-recorder'"},
      {swap + " --flight-bytes 1000000000000", 2, "NVM arena exhausted: 'flight-recorder'"},
      // The tile is clamped to the devices a shard runs.
      {"fleet --devices 10 --tile 4294967295", 0, "completed=10"},
  };
  for (const auto& row : kRows) {
    const RunResult result = RunCli(row.args);
    EXPECT_EQ(result.exit_code, row.exit_code) << row.args << "\n" << result.output;
    EXPECT_NE(result.output.find(row.expect), std::string::npos) << row.args << "\n"
                                                                 << result.output;
  }
}

TEST(ArtemiscTest, CodegenEmitsCallMonitor) {
  const std::string spec =
      WriteTempSpec("g.prop", "accel: { maxTries: 10 onFail: skipPath; }\n");
  const RunResult result = RunCli("codegen " + spec);
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("callMonitor"), std::string::npos);
  EXPECT_NE(result.output.find("__fram"), std::string::npos);
}

TEST(ArtemiscTest, SimulateHealthContinuous) {
  const RunResult result = RunCli("simulate --app health");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("completed=yes"), std::string::npos);
}

TEST(ArtemiscTest, SimulateMayflyNonTermination) {
  const RunResult result =
      RunCli("simulate --app health --system mayfly --charge 6min --budget 19500");
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("non-termination"), std::string::npos);
}

TEST(ArtemiscTest, SimulateTraceWritesVersionedJsonl) {
  // stdout is the run's artemis-trace/1 stream; the summary goes to stderr.
  const RunResult result =
      RunCli("simulate --app health --charge 6min --budget 19500 --trace", /*stdout_only=*/true);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  std::istringstream lines(result.output);
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line.rfind("{\"schema\":\"artemis-trace/1\"", 0), 0u) << line;
  std::size_t events = 0;
  bool violation_with_action = false;
  while (std::getline(lines, line)) {
    ++events;
    EXPECT_EQ(line.rfind("{\"kind\":\"", 0), 0u) << line;
    EXPECT_EQ(line.back(), '}') << line;
    violation_with_action =
        violation_with_action || (line.find("\"kind\":\"kernel.violation\"") != std::string::npos &&
                                  line.find("\"action\":\"") != std::string::npos);
  }
  EXPECT_GT(events, 0u);
  EXPECT_TRUE(violation_with_action);
}

TEST(ArtemiscTest, SimulateGreenhouse) {
  const RunResult result = RunCli("simulate --app greenhouse");
  EXPECT_EQ(result.exit_code, 0) << result.output;
}

TEST(ArtemiscTest, ProfileRanksAccelHighest) {
  // Section 5.1: "the accel task is the highest power-consuming".
  const RunResult result = RunCli("profile --app health");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  const std::size_t header = result.output.find("task");
  const std::size_t accel = result.output.find("accel");
  ASSERT_NE(header, std::string::npos);
  ASSERT_NE(accel, std::string::npos);
  // accel is the first data row (highest energy).
  const std::size_t first_newline = result.output.find('\n', header);
  EXPECT_LT(accel, result.output.find('\n', first_newline + 1));
}

TEST(ArtemiscTest, UnknownAppRejected) {
  const RunResult result = RunCli("simulate --app toaster");
  EXPECT_EQ(result.exit_code, 2);
}

// With --spec, fleet used to simulate the health app under the unknown name
// and exit 0; sweep already refused it.
TEST(ArtemiscTest, FleetAndSweepRefuseUnknownAppWithSpec) {
  const std::string spec = std::string(ARTEMIS_SOURCE_DIR) + "/examples/specs/health.prop";
  for (const std::string verb : {"fleet --devices 2", "sweep"}) {
    const RunResult result = RunCli(verb + " --app foo --format json --spec " + spec);
    EXPECT_EQ(result.exit_code, 2) << verb << ": " << result.output;
    EXPECT_NE(result.output.find("unknown app 'foo'"), std::string::npos)
        << verb << ": " << result.output;
    EXPECT_EQ(result.output.find("\"app\": \"foo\""), std::string::npos) << result.output;
  }
}

// Every numeric flag goes through one strict parser: a non-number, trailing
// junk, or an out-of-range value is a usage error naming the flag.
TEST(ArtemiscTest, NumericFlagsRejectJunk) {
  const struct {
    const char* args;
    const char* flag;
  } kCases[] = {
      {"simulate --budget abc", "--budget"},
      {"simulate --budget inf", "--budget"},
      {"fleet --seed abc", "--seed"},
      {"sweep --seeds abc", "--seeds"},
      {"sweep --seeds 1,,2", "--seeds"},
      {"sweep --budgets abc,xyz", "--budgets"},
      {"fleet --minutes 5x", "--minutes"},
      {"fleet --iterations 0", "--iterations"},
      {"fleet --devices -3", "--devices"},
      {"fleet --shards 99999999999", "--shards"},
      {"fleet --tile 1.5", "--tile"},
      {"sweep --jobs 2abc", "--jobs"},
      {"forensics dump --flight-bytes 12k", "--flight-bytes"},
      {"forensics detect --min-attempts x", "--min-attempts"},
  };
  for (const auto& c : kCases) {
    const RunResult result = RunCli(c.args);
    EXPECT_EQ(result.exit_code, 2) << c.args << "\n" << result.output;
    EXPECT_NE(result.output.find(std::string("artemisc: ") + c.flag + " wants"),
              std::string::npos)
        << c.args << "\n" << result.output;
  }
  // Well-formed values still parse.
  EXPECT_EQ(RunCli("simulate --app health --budget 19500.5").exit_code, 0);
  EXPECT_EQ(RunCli("fleet --devices 2 --iterations 1 --seed 0 --shards 2 --tile 1 "
                   "--budgets 19500,20000 --format json")
                .exit_code,
            0);
}

// sweep and fleet print a table by default and refuse trace's JSONL format
// by name instead of silently falling back to the table.
TEST(ArtemiscTest, SweepAndFleetRejectJsonlFormat) {
  const std::string sweep = "sweep --app health --seeds 1";
  const std::string fleet = "fleet --app health --devices 2 --iterations 1";
  EXPECT_NE(RunCli(sweep, /*stdout_only=*/true).output.find("index  system"),
            std::string::npos);
  EXPECT_NE(RunCli(fleet, /*stdout_only=*/true).output.find("fleet: app=health"),
            std::string::npos);
  const RunResult sweep_jsonl = RunCli(sweep + " --format jsonl");
  EXPECT_EQ(sweep_jsonl.exit_code, 2) << sweep_jsonl.output;
  EXPECT_NE(sweep_jsonl.output.find("(json|csv|table)"), std::string::npos)
      << sweep_jsonl.output;
  const RunResult fleet_jsonl = RunCli(fleet + " --format jsonl");
  EXPECT_EQ(fleet_jsonl.exit_code, 2) << fleet_jsonl.output;
  EXPECT_NE(fleet_jsonl.output.find("(json|table)"), std::string::npos) << fleet_jsonl.output;
}

// ----------------------------------------------------------------- trace --

TEST(ArtemiscTest, TraceEmitsVersionedJsonl) {
  // JSONL is trace's default format.
  const RunResult result = RunCli("trace --app health --schedule 6min");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_EQ(result.output.rfind("{\"schema\":\"artemis-trace/1\"", 0), 0u);
  EXPECT_NE(result.output.find("\"kind\":\"sim.power-fail\""), std::string::npos);
  EXPECT_NE(result.output.find("\"kind\":\"monitor.verdict\""), std::string::npos);
}

TEST(ArtemiscTest, TraceEmitsPerfettoDocument) {
  const RunResult result = RunCli("trace --app health --schedule 6min --format perfetto");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(result.output.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(result.output.find("\"name\":\"charge-fraction\""), std::string::npos);
}

TEST(ArtemiscTest, TraceStatsReportsCompletedPaths) {
  const RunResult result = RunCli("trace --app health --schedule 6min --format stats");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("events: total="), std::string::npos);
  EXPECT_NE(result.output.find("paths: completed=3"), std::string::npos);
}

TEST(ArtemiscTest, TraceDiffIdenticalRunsExitZero) {
  const std::string a = ::testing::TempDir() + "/trace_a.jsonl";
  const std::string b = ::testing::TempDir() + "/trace_b.jsonl";
  EXPECT_EQ(RunCli("trace --app health --schedule 6min --out " + a).exit_code, 0);
  EXPECT_EQ(RunCli("trace --app health --schedule 6min --out " + b).exit_code, 0);
  const RunResult diff = RunCli("trace diff " + a + " " + b);
  EXPECT_EQ(diff.exit_code, 0) << diff.output;
  EXPECT_NE(diff.output.find("traces identical"), std::string::npos);
}

TEST(ArtemiscTest, TraceDiffDifferentSchedulesExitOne) {
  const std::string a = ::testing::TempDir() + "/trace_6min.jsonl";
  const std::string b = ::testing::TempDir() + "/trace_cont.jsonl";
  EXPECT_EQ(RunCli("trace --app health --schedule 6min --out " + a).exit_code, 0);
  EXPECT_EQ(RunCli("trace --app health --schedule continuous --out " + b).exit_code, 0);
  const RunResult diff = RunCli("trace diff " + a + " " + b);
  EXPECT_EQ(diff.exit_code, 1);
  EXPECT_NE(diff.output.find("difference(s)"), std::string::npos);
}

TEST(ArtemiscTest, TraceDiffMissingFileExitTwo) {
  const RunResult diff = RunCli("trace diff /nonexistent/a.jsonl /nonexistent/b.jsonl");
  EXPECT_EQ(diff.exit_code, 2);
}

const std::string kHealthSpec = kSpecs + "/health.prop";

TEST(ArtemiscTest, TraceRejectsBadScheduleAndFormat) {
  // trace, forensics and swap share the sweep's charge-bin parser: a period
  // must exceed the 1 s boot margin.
  for (const std::string& command :
       {std::string("trace --app health"), std::string("forensics dump --app health"),
        "swap " + kHealthSpec + " " + kHealthSpec + " --app health"}) {
    EXPECT_EQ(RunCli(command + " --schedule nonsense").exit_code, 2) << command;
    EXPECT_EQ(RunCli(command + " --schedule 1s").exit_code, 2) << command;
  }
  EXPECT_EQ(RunCli("trace --app health --format xml").exit_code, 2);
}

// `swap --json` has check --json's contract: once both spec files are read,
// stdout is exactly one diagnostics array on every exit path — the swap
// analyzer's findings, [] under --no-analyze, or one ART000 entry carrying
// the stderr line when an image fails to build.
TEST(ArtemiscTest, SwapJsonPrintsOneDiagnosticsArray) {
  const std::string run = " --app health --schedule 6min --swap-at 2min --json";
  const std::string no_mitd = WriteTempSpec("swap_no_mitd.prop", "send: { MITD: ; }\n");
  const std::string v2_error = "spec-v2 error: INVALID_ARGUMENT: line 1:15: expected a "
                               "duration, found ';'";
  const std::string cross_type_refusal =
      "setup error: FAILED_PRECONDITION: migration plan has 1 ART015 error(s):\n"
      "swap:30:3: error[ART015]: machine 'MITD_send_accel' (MITD(send<-accel)): migrate rule "
      "carries slot `endB` (time) into `att` (counter)\n"
      "    note: the on-device widths differ; values cannot be carried across slot types\n";
  const struct {
    std::string args;
    int exit_code;
    const char* code;     // every entry's code; nullptr: the array is empty
    std::string message;  // the ART000 entry's message, when checked
  } kRows[] = {
      {kHealthSpec + " " + kHealthSpec + run + " --no-analyze", 0, nullptr, ""},
      {kHealthSpec + " " + kHealthSpec + run, 0, nullptr, ""},
      {kHealthSpec + " " + no_mitd + run, 1, "ART000", v2_error},
      {kHealthSpec + " " + no_mitd + run + " --no-analyze", 1, "ART000", v2_error},
      {no_mitd + " " + kHealthSpec + run + " --no-analyze", 1, "ART000",
       "spec-v1 error: INVALID_ARGUMENT: line 1:15: expected a duration, found ';'"},
      {kHealthSpec + " " + kSpecs + "/bad/swap_cross_type.prop" + run, 1, "ART015", ""},
      // The controller still refuses the ART015-broken plan after the gate;
      // the refusal is the array's one entry.
      {kHealthSpec + " " + kSpecs + "/bad/swap_cross_type.prop" + run + " --no-analyze", 1,
       "ART000", cross_type_refusal},
      // A bad --schedule is read after the gate (exit 2).
      {kHealthSpec + " " + kHealthSpec + run + " --no-analyze --schedule 1s", 2, nullptr, ""},
  };
  for (const auto& row : kRows) {
    const RunResult result = RunCli("swap " + row.args, /*stdout_only=*/true);
    EXPECT_EQ(result.exit_code, row.exit_code) << row.args << "\n" << result.output;
    const StatusOr<sweep::JsonValuePtr> parsed = sweep::ParseJson(result.output);
    ASSERT_TRUE(parsed.ok()) << row.args << ": " << parsed.status().ToString() << "\n"
                             << result.output;
    ASSERT_TRUE(parsed.value()->is_array()) << row.args << "\n" << result.output;
    const std::vector<sweep::JsonValuePtr>& entries = parsed.value()->array();
    EXPECT_EQ(entries.empty(), row.code == nullptr) << row.args << "\n" << result.output;
    for (const sweep::JsonValuePtr& entry : entries) {
      ASSERT_NE(row.code, nullptr);
      EXPECT_EQ(entry->Find("code")->string(), row.code) << row.args;
      if (!row.message.empty()) {
        EXPECT_EQ(entry->Find("message")->string(), row.message) << row.args;
      }
    }
  }
}

// ------------------------------------------------------------- forensics --

TEST(ArtemiscTest, ForensicsDumpNamesTheBackendThatRan) {
  // --spec2 runs the compiled backend (the only versioned image) whatever
  // --backend says; the dump header must report it.
  const RunResult result = RunCli("forensics dump --spec " + kHealthSpec + " --spec2 " +
                                  kHealthSpec + " --schedule 6min");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("\"backend\":\"compiled\""), std::string::npos) << result.output;
}

// ------------------------------------------------------------- flag table --

// The usage text's entries: each subcommand's name (the words before its
// first operand or flag) mapped to the flags it takes, each flag mapped to
// whether it takes a value.
std::map<std::string, std::map<std::string, bool>> UsageEntries() {
  std::map<std::string, std::map<std::string, bool>> entries;
  std::istringstream lines(RunCli("").output);
  std::string line;
  std::string name;
  while (std::getline(lines, line)) {
    if (line.rfind("  ", 0) != 0) {
      continue;  // "usage:" and "exit codes:"
    }
    if (line[2] != ' ') {
      std::istringstream words(line);
      std::string word;
      name.clear();
      while (words >> word && word[0] != '<' && word[0] != '[') {
        name += (name.empty() ? "" : " ") + word;
      }
      entries[name];
    }
    for (std::size_t at = line.find("[--"); at != std::string::npos;
         at = line.find("[--", at + 1)) {
      const std::size_t end = line.find_first_of(" ]", at);
      entries[name][line.substr(at + 1, end - at - 1)] = line[end] == ' ';
    }
  }
  return entries;
}

// Each subcommand takes only the flags its usage entry lists: every other
// flag, even with a well-formed value, is a usage error naming both.
TEST(ArtemiscTest, SubcommandsRefuseFlagsTheyDoNotTake) {
  const std::map<std::string, std::string> kOperands = {
      {"check", kHealthSpec},
      {"pretty", kHealthSpec},
      {"codegen", kHealthSpec},
      {"dot", kHealthSpec},
      {"simulate", ""},
      {"profile", ""},
      {"trace", ""},
      {"trace diff", kHealthSpec + " " + kHealthSpec},
      {"sweep", ""},
      {"fleet", ""},
      {"forensics", "dump"},
      {"swap", kHealthSpec + " " + kHealthSpec},
  };
  const std::map<std::string, std::string> kValues = {
      {"--app", "health"},
      {"--app-file", kSpecs + "/sensornet.app"},
      {"--spec", kHealthSpec},
      {"--spec2", kHealthSpec},
      {"--system", "mayfly"},
      {"--systems", "artemis,mayfly"},
      {"--backend", "compiled"},
      {"--backends", "compiled"},
      {"--timekeepers", "default"},
      {"--monitor", "scalar"},
      {"--charge", "1min"},
      {"--schedule", "1min"},
      {"--charges", "continuous,6min"},
      {"--budget", "9000"},
      {"--budgets", "9000,19500"},
      {"--seed", "5"},
      {"--seeds", "1,2"},
      {"--swap-at", "2min"},
      {"--flight", "verdicts"},
      {"--flight-bytes", "512"},
      {"--policy", "first-wins"},
      {"--devices", "2"},
      {"--shards", "2"},
      {"--tile", "4"},
      {"--minutes", "3"},
      {"--iterations", "1"},
      {"--jobs", "2"},
      {"--max-wall", "1h"},
      {"--gap", "10min"},
      {"--min-attempts", "2"},
      {"--format", "json"},
      {"--out", ::testing::TempDir() + "/refused.out"},
  };
  const auto entries = UsageEntries();
  ASSERT_EQ(entries.size(), kOperands.size());
  std::map<std::string, bool> all_flags;
  for (const auto& [name, flags] : entries) {
    all_flags.insert(flags.begin(), flags.end());
  }
  std::set<std::pair<std::string, std::string>> refused;
  for (const auto& [name, flags] : entries) {
    ASSERT_EQ(kOperands.count(name), 1u) << name;
    for (const auto& [flag, takes_value] : all_flags) {
      if (flags.count(flag) != 0) {
        continue;
      }
      std::string invocation = name + " " + kOperands.at(name) + " " + flag;
      if (takes_value) {
        ASSERT_EQ(kValues.count(flag), 1u) << flag;
        invocation += " " + kValues.at(flag);
      }
      const RunResult result = RunCli(invocation);
      EXPECT_EQ(result.exit_code, 2) << invocation << "\n" << result.output;
      EXPECT_EQ(result.output.rfind("artemisc: " + name + " does not take '" + flag + "'\n", 0),
                0u)
          << invocation << "\n" << result.output;
      refused.emplace(name, flag);
    }
  }
  // Each of these flags is read by other subcommands but not by this one,
  // so a parser that accepted every known flag would run these silently.
  const std::pair<std::string, std::string> kNotRead[] = {
      {"simulate", "--schedule"}, {"trace", "--charge"},     {"sweep", "--seed"},
      {"sweep", "--budget"},      {"sweep", "--backend"},    {"fleet", "--budget"},
      {"fleet", "--system"},      {"fleet", "--flight"},     {"trace", "--system"},
      {"forensics", "--system"},  {"profile", "--spec"},     {"pretty", "--app"},
  };
  for (const auto& pair : kNotRead) {
    EXPECT_EQ(refused.count(pair), 1u) << pair.first << " " << pair.second;
  }
}

TEST(ArtemiscTest, ForensicsRecordsAtTheFlightLevel) {
  const std::string dump = "forensics dump --app health --schedule 6min";
  const RunResult verdicts = RunCli(dump + " --flight verdicts", /*stdout_only=*/true);
  EXPECT_EQ(verdicts.exit_code, 0);
  EXPECT_NE(verdicts.output.find("\"level\":\"verdicts\""), std::string::npos)
      << verdicts.output;
  EXPECT_NE(RunCli(dump, /*stdout_only=*/true).output.find("\"level\":\"full\""),
            std::string::npos);
  EXPECT_EQ(RunCli(dump + " --flight off").exit_code, 2);
  const RunResult level = RunCli(dump + " --level verdicts");
  EXPECT_EQ(level.exit_code, 2);
  EXPECT_NE(level.output.find("forensics does not take '--level'"), std::string::npos)
      << level.output;
}

}  // namespace
}  // namespace artemis
