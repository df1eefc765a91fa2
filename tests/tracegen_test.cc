// Tests for the synthetic environment-trace generator and its integration
// with the trace-driven harvester / power models.
#include <gtest/gtest.h>

#include <memory>

#include "src/apps/health_app.h"
#include "src/core/runtime.h"
#include "src/sim/harvester.h"
#include "src/sim/mcu.h"
#include "src/sim/power_model.h"
#include "src/sim/tracegen.h"

namespace artemis {
namespace {

EnvironmentTraceConfig BaseConfig(std::uint64_t seed) {
  EnvironmentTraceConfig config;
  config.duration = 10 * kMinute;
  config.step = kSecond;
  config.mean_power = 4.0;
  config.volatility = 0.05;
  config.ceiling = 10.0;
  config.blackout_rate_per_hour = 6.0;
  config.blackout_mean = 20 * kSecond;
  config.seed = seed;
  return config;
}

TEST(TraceGenTest, DeterministicUnderSeed) {
  const auto a = GenerateHarvestTrace(BaseConfig(7));
  const auto b = GenerateHarvestTrace(BaseConfig(7));
  EXPECT_EQ(a, b);
}

TEST(TraceGenTest, SeedsProduceDifferentTraces) {
  const auto a = GenerateHarvestTrace(BaseConfig(1));
  const auto b = GenerateHarvestTrace(BaseConfig(2));
  EXPECT_NE(a, b);
}

TEST(TraceGenTest, PowerStaysWithinBounds) {
  const auto trace = GenerateHarvestTrace(BaseConfig(3));
  ASSERT_FALSE(trace.empty());
  for (const auto& [t, power] : trace) {
    EXPECT_GE(power, 0.0);
    EXPECT_LE(power, 10.0);
    EXPECT_LT(t, 10 * kMinute);
  }
}

TEST(TraceGenTest, MeanApproximatelyHolds) {
  EnvironmentTraceConfig config = BaseConfig(11);
  config.blackout_rate_per_hour = 0.0;  // Mean check without blackout bias.
  config.duration = kHour;
  const auto trace = GenerateHarvestTrace(config);
  const TraceHarvester harvester(trace);
  const EnergyUj energy = harvester.EnergyOver(0, kHour);
  const double mean = energy / EnergyFor(1.0, kHour);
  EXPECT_NEAR(mean, 4.0, 1.0);
}

TEST(TraceGenTest, BlackoutsProduceZeroStretches) {
  EnvironmentTraceConfig config = BaseConfig(13);
  config.blackout_rate_per_hour = 30.0;
  config.duration = kHour;
  const auto trace = GenerateHarvestTrace(config);
  int zero_episodes = 0;
  for (const auto& [t, power] : trace) {
    zero_episodes += power == 0.0 ? 1 : 0;
  }
  EXPECT_GT(zero_episodes, 5);
}

TEST(OnWindowsTest, ExtractsThresholdCrossings) {
  const std::vector<std::pair<SimTime, Milliwatts>> trace = {
      {0, 5.0}, {10 * kSecond, 0.5}, {20 * kSecond, 6.0}, {30 * kSecond, 0.0}};
  const auto windows = OnWindowsFromHarvest(trace, /*min_power=*/2.0,
                                            /*trace_end=*/40 * kSecond);
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(windows[0], (std::pair<SimTime, SimTime>{0, 10 * kSecond}));
  EXPECT_EQ(windows[1], (std::pair<SimTime, SimTime>{20 * kSecond, 30 * kSecond}));
}

TEST(OnWindowsTest, DropsTooShortWindows) {
  const std::vector<std::pair<SimTime, Milliwatts>> trace = {
      {0, 5.0}, {10, 0.0}, {kSecond, 5.0}};
  const auto windows =
      OnWindowsFromHarvest(trace, 2.0, 2 * kSecond, /*min_window=*/kSecond);
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows[0].first, kSecond);
}

TEST(OnWindowsTest, OpenWindowClosedAtTraceEnd) {
  const std::vector<std::pair<SimTime, Milliwatts>> trace = {{0, 5.0}};
  const auto windows = OnWindowsFromHarvest(trace, 2.0, kMinute);
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows[0].second, kMinute);
}

class TraceDrivenRunTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TraceDrivenRunTest, HealthAppSurvivesGeneratedEnvironment) {
  // Health app on a capacitor fed by a generated harvest trace with
  // blackouts: the ARTEMIS properties must keep it terminating.
  EnvironmentTraceConfig config = BaseConfig(GetParam());
  config.duration = 6 * kHour;
  config.mean_power = 6.0;
  config.blackout_rate_per_hour = 8.0;
  config.blackout_mean = kMinute;
  const auto trace = GenerateHarvestTrace(config);

  HealthApp app = BuildHealthApp();
  CapacitorConfig cap;
  cap.capacitance_f = 3300e-6;  // Large buffer: accel needs ~18 mJ per run.
  cap.v_max = 5.0;
  cap.v_on = 3.2;
  cap.v_off = 1.8;
  auto mcu = std::make_unique<Mcu>(
      std::make_unique<CapacitorPowerModel>(cap, std::make_unique<TraceHarvester>(trace)));
  ArtemisConfig runtime_config;
  runtime_config.kernel.max_wall_time = 5 * kHour;
  auto runtime =
      ArtemisRuntime::Create(&app.graph, HealthAppSpec(), mcu.get(), runtime_config);
  ASSERT_TRUE(runtime.ok());
  const KernelRunResult result = runtime.value()->Run();
  EXPECT_TRUE(result.completed || result.timed_out) << "seed " << GetParam();
  EXPECT_FALSE(result.starved);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceDrivenRunTest, ::testing::Range<std::uint64_t>(1, 7));

}  // namespace
}  // namespace artemis
