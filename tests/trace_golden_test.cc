// Golden-trace regression test: the health app under the canonical
// 6-minute-charging schedule must produce a byte-stable JSONL trace and
// Perfetto export. The goldens live at tests/golden/trace/health_6min.jsonl
// (also the reference for the tools/ci.sh trace gate, which regenerates the
// trace through `artemisc trace` and diffs it against the same file) and
// tests/golden/trace/health_6min.perfetto.json (`artemisc trace --format
// perfetto` of the same run).
//
// Regenerate after an intentional schema or event change with
//   UPDATE_GOLDEN=1 ./trace_golden_test
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/apps/health_app.h"
#include "src/core/runtime.h"
#include "src/obs/bus.h"
#include "src/obs/jsonl_sink.h"
#include "src/obs/perfetto_sink.h"
#include "src/obs/trace_diff.h"
#include "src/sim/mcu.h"
#include "src/sim/power_model.h"

namespace artemis {
namespace {

#ifndef ARTEMIS_SOURCE_DIR
#define ARTEMIS_SOURCE_DIR "."
#endif

struct Health6MinTraces {
  std::string jsonl;
  std::string perfetto;
};

// Mirrors `artemisc trace --app health --schedule 6min` under --format jsonl
// and --format perfetto: same platform (19,500 uJ on-budget, 6 min bin with
// the 1 s boot margin), same header metadata, same task-name table.
Health6MinTraces RunHealth6Min() {
  HealthApp app = BuildHealthApp();
  auto mcu = std::make_unique<Mcu>(
      std::make_unique<FixedChargePowerModel>(19'500.0, 6 * kMinute - 1 * kSecond));
  std::vector<std::string> names;
  for (TaskId t = 0; t < app.graph.task_count(); ++t) {
    names.push_back(app.graph.TaskName(t));
  }
  std::ostringstream jsonl_out;
  std::ostringstream perfetto_out;
  obs::JsonlOptions options;
  options.app = "health";
  options.power = "fixed-charge";
  options.schedule = "6min";
  options.backend = "builtin";
  options.task_names = names;
  obs::JsonlSink jsonl(jsonl_out, options);
  obs::PerfettoSink perfetto(perfetto_out, names);
  obs::EventBus bus;
  bus.AddSink(&jsonl);
  bus.AddSink(&perfetto);
  mcu->set_observer(&bus);
  ArtemisConfig config;
  config.kernel.max_wall_time = 12 * kHour;
  auto runtime = ArtemisRuntime::Create(&app.graph, HealthAppSpec(), mcu.get(), config);
  EXPECT_TRUE(runtime.ok()) << runtime.status().ToString();
  EXPECT_TRUE(runtime.value()->Run().completed);
  bus.Flush();
  return {jsonl_out.str(), perfetto_out.str()};
}

// The golden at `relative` (under the source root), or nullopt after
// rewriting it with `actual` under UPDATE_GOLDEN.
std::optional<std::string> ReadGolden(const char* relative, const std::string& actual) {
  const std::string path = std::string(ARTEMIS_SOURCE_DIR) + relative;
  if (std::getenv("UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    EXPECT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    return std::nullopt;
  }
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path << " (regenerate with UPDATE_GOLDEN=1)";
  std::ostringstream golden;
  golden << in.rdbuf();
  return golden.str();
}

TEST(TraceGoldenTest, Health6MinTraceIsByteStable) {
  const std::string actual = RunHealth6Min().jsonl;
  const std::optional<std::string> golden =
      ReadGolden("/tests/golden/trace/health_6min.jsonl", actual);
  if (!golden.has_value()) {
    return;
  }
  const obs::TraceDiffResult diff = obs::DiffJsonlTraces(*golden, actual);
  EXPECT_TRUE(diff.identical()) << obs::RenderTraceDiff(diff, "golden", "actual")
                                << "(regenerate with UPDATE_GOLDEN=1)";
}

TEST(TraceGoldenTest, Health6MinPerfettoExportIsByteStable) {
  const std::string actual = RunHealth6Min().perfetto;
  const std::optional<std::string> golden =
      ReadGolden("/tests/golden/trace/health_6min.perfetto.json", actual);
  if (!golden.has_value() || *golden == actual) {
    return;
  }
  // Report the first differing line, not two 64 KB documents.
  std::istringstream want(*golden);
  std::istringstream got(actual);
  std::string want_line;
  std::string got_line;
  for (int line = 1;; ++line) {
    const bool more_want = static_cast<bool>(std::getline(want, want_line));
    const bool more_got = static_cast<bool>(std::getline(got, got_line));
    if (!more_want && !more_got) {
      ADD_FAILURE() << "Perfetto export differs from the golden in its final newline";
      return;
    }
    if (more_want != more_got || want_line != got_line) {
      ADD_FAILURE() << "Perfetto export differs from the golden at line " << line
                    << "\n  golden: " << (more_want ? want_line : "<end>")
                    << "\n  actual: " << (more_got ? got_line : "<end>")
                    << "\n(regenerate with UPDATE_GOLDEN=1)";
      return;
    }
  }
}

}  // namespace
}  // namespace artemis
