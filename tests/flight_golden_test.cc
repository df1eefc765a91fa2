// Golden flight-dump regression tests: the health app with the full-level
// flight recorder attached must produce byte-stable forensics dumps.
//   - tests/golden/flight/health_6min.jsonl: the canonical 6-minute
//     charging schedule, 1024-byte ring;
//   - tests/golden/flight/health_1min_128.jsonl: 1-minute charging, 128-byte
//     ring. The ring wraps many times across two reboots, so every decoded
//     time depends on the whole chain of eviction time bases.
// Both are also the reference for the tools/ci.sh forensics gate, which
// regenerates them through `artemisc forensics dump` and diffs them against
// the same files.
//
// Regenerate after an intentional wire-format or dump-schema change with
//   UPDATE_GOLDEN=1 ./flight_golden_test
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/apps/health_app.h"
#include "src/core/builder.h"
#include "src/core/runtime.h"
#include "src/flight/decoder.h"
#include "src/flight/forensics.h"
#include "src/flight/recorder.h"

namespace artemis {
namespace {

#ifndef ARTEMIS_SOURCE_DIR
#define ARTEMIS_SOURCE_DIR "."
#endif

// Mirrors `artemisc forensics dump --app health --schedule <schedule>
// --flight-bytes <ring_bytes>`: same platform (19,500 uJ on-budget, the
// schedule's charge bin less the 1 s boot margin), same recorder
// configuration (full level), same header metadata.
std::string RunHealthDump(const std::string& schedule, SimDuration charge_bin,
                          std::size_t ring_bytes) {
  HealthApp app = BuildHealthApp();
  auto mcu = PlatformBuilder().WithFixedCharge(19'500.0, charge_bin - 1 * kSecond).Build();
  flight::FlightRecorder recorder(ring_bytes, flight::FlightLevel::kFull);
  EXPECT_TRUE(mcu->AttachFlightRecorder(&recorder).ok());

  ArtemisConfig config;
  config.kernel.max_wall_time = 12 * kHour;
  config.flight = &recorder;
  auto runtime = ArtemisRuntime::Create(&app.graph, HealthAppSpec(), mcu.get(), config);
  EXPECT_TRUE(runtime.ok()) << runtime.status().ToString();
  EXPECT_TRUE(runtime.value()->Run().completed);

  StatusOr<std::vector<flight::FlightRecord>> records =
      flight::DecodeRing(recorder.Image());
  EXPECT_TRUE(records.ok()) << records.status().ToString();

  flight::FlightMeta meta = flight::MetaFromRecorder(recorder);
  meta.app = "health";
  meta.power = "fixed-charge";
  meta.schedule = schedule;
  meta.backend = "builtin";
  for (TaskId t = 0; t < app.graph.task_count(); ++t) {
    meta.task_names.push_back(app.graph.TaskName(t));
  }
  return flight::RenderDumpJsonl(records.value(), meta);
}

void ExpectMatchesGolden(const std::string& actual, const char* golden_path) {
  const std::string path = std::string(ARTEMIS_SOURCE_DIR) + golden_path;
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
  EXPECT_EQ(golden.str(), actual) << "flight dump drifted from " << path
                                  << " (regenerate with UPDATE_GOLDEN=1)";
}

TEST(FlightGoldenTest, Health6MinDumpIsByteStable) {
  ExpectMatchesGolden(RunHealthDump("6min", 6 * kMinute, 1024),
                      "/tests/golden/flight/health_6min.jsonl");
}

TEST(FlightGoldenTest, Health1Min128ByteRingDumpIsByteStable) {
  ExpectMatchesGolden(RunHealthDump("1min", 1 * kMinute, 128),
                      "/tests/golden/flight/health_1min_128.jsonl");
}

// A second run in the same process must produce identical bytes: the dump
// depends only on the simulation, never on host state.
TEST(FlightGoldenTest, DumpIsDeterministicAcrossRuns) {
  EXPECT_EQ(RunHealthDump("6min", 6 * kMinute, 1024), RunHealthDump("6min", 6 * kMinute, 1024));
}

}  // namespace
}  // namespace artemis
