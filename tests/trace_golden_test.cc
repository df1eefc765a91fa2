// Golden-trace regression test: the health app under the canonical
// 6-minute-charging schedule must produce a byte-stable JSONL trace. The
// golden lives at tests/golden/trace/health_6min.jsonl and is also the
// reference for the tools/ci.sh trace gate (which regenerates the trace
// through `artemisc trace` and diffs it against the same file).
//
// Regenerate after an intentional schema or event change with
//   UPDATE_GOLDEN=1 ./trace_golden_test
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/apps/health_app.h"
#include "src/core/builder.h"
#include "src/core/runtime.h"
#include "src/obs/bus.h"
#include "src/obs/jsonl_sink.h"
#include "src/obs/trace_diff.h"

namespace artemis {
namespace {

#ifndef ARTEMIS_SOURCE_DIR
#define ARTEMIS_SOURCE_DIR "."
#endif

constexpr char kGoldenPath[] = "/tests/golden/trace/health_6min.jsonl";

// Mirrors `artemisc trace --app health --schedule 6min --format jsonl`:
// same platform (19,500 uJ on-budget, 6 min bin with the 1 s boot margin),
// same header metadata, same task-name table.
std::string RunHealth6MinJsonl() {
  HealthApp app = BuildHealthApp();
  auto mcu =
      PlatformBuilder().WithFixedCharge(19'500.0, 6 * kMinute - 1 * kSecond).Build();
  std::vector<std::string> names;
  for (TaskId t = 0; t < app.graph.task_count(); ++t) {
    names.push_back(app.graph.TaskName(t));
  }
  std::ostringstream out;
  obs::JsonlOptions options;
  options.app = "health";
  options.power = "fixed-charge";
  options.schedule = "6min";
  options.backend = "builtin";
  options.task_names = names;
  obs::JsonlSink sink(out, options);
  obs::EventBus bus;
  bus.AddSink(&sink);
  mcu->set_observer(&bus);
  ArtemisConfig config;
  config.kernel.max_wall_time = 12 * kHour;
  auto runtime = ArtemisRuntime::Create(&app.graph, HealthAppSpec(), mcu.get(), config);
  EXPECT_TRUE(runtime.ok()) << runtime.status().ToString();
  EXPECT_TRUE(runtime.value()->Run().completed);
  bus.Flush();
  return out.str();
}

TEST(TraceGoldenTest, Health6MinTraceIsByteStable) {
  const std::string actual = RunHealth6MinJsonl();
  const std::string path = std::string(ARTEMIS_SOURCE_DIR) + kGoldenPath;
  if (std::getenv("UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "cannot read " << path
                         << " (regenerate with UPDATE_GOLDEN=1)";
  std::ostringstream golden;
  golden << in.rdbuf();
  const obs::TraceDiffResult diff = obs::DiffJsonlTraces(golden.str(), actual);
  EXPECT_TRUE(diff.identical()) << obs::RenderTraceDiff(diff, "golden", "actual")
                                << "(regenerate with UPDATE_GOLDEN=1)";
}

}  // namespace
}  // namespace artemis
