// Tests for the persistent-timekeeper models and their clock integration.
#include <gtest/gtest.h>

#include <memory>

#include "src/apps/health_app.h"
#include "src/core/runtime.h"
#include "src/sim/clock.h"
#include "src/sim/mcu.h"
#include "src/sim/power_model.h"
#include "src/sim/timekeeper.h"

namespace artemis {
namespace {

TEST(IdealTimekeeperTest, MeasuresExactly) {
  IdealTimekeeper timekeeper;
  Rng rng(1);
  EXPECT_EQ(timekeeper.MeasureOutage(5 * kMinute, rng), 5 * kMinute);
  EXPECT_EQ(timekeeper.MeasureOutage(0, rng), 0u);
}

TEST(RtcTimekeeperTest, SmallRelativeError) {
  RtcTimekeeper timekeeper(0.01);
  Rng rng(2);
  for (int i = 0; i < 200; ++i) {
    const SimDuration measured = timekeeper.MeasureOutage(10 * kMinute, rng);
    const double ratio =
        static_cast<double>(measured) / static_cast<double>(10 * kMinute);
    EXPECT_GT(ratio, 0.9);
    EXPECT_LT(ratio, 1.1);
  }
}

TEST(RemanenceTimekeeperTest, SaturatesAtMaxMeasurable) {
  RemanenceTimekeeper timekeeper(30 * kSecond, 0.1);
  Rng rng(3);
  EXPECT_EQ(timekeeper.MeasureOutage(6 * kMinute, rng), 30 * kSecond);
  EXPECT_EQ(timekeeper.MeasureOutage(30 * kSecond, rng), 30 * kSecond);
  EXPECT_EQ(timekeeper.max_measurable(), 30 * kSecond);
}

TEST(RemanenceTimekeeperTest, ShortOutagesRoughlyAccurate) {
  RemanenceTimekeeper timekeeper(30 * kSecond, 0.1);
  Rng rng(4);
  double sum = 0.0;
  constexpr int kSamples = 500;
  for (int i = 0; i < kSamples; ++i) {
    sum += static_cast<double>(timekeeper.MeasureOutage(kSecond, rng));
  }
  EXPECT_NEAR(sum / kSamples, static_cast<double>(kSecond),
              0.05 * static_cast<double>(kSecond));
}

TEST(RemanenceTimekeeperTest, NeverExceedsMaxMeasurable) {
  RemanenceTimekeeper timekeeper(10 * kSecond, 0.5);
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    EXPECT_LE(timekeeper.MeasureOutage(9 * kSecond, rng), 10 * kSecond);
  }
}

TEST(ClockTimekeeperIntegrationTest, SaturationAccumulatesNegativeError) {
  PersistentClock clock;
  clock.SetTimekeeper(std::make_unique<RemanenceTimekeeper>(30 * kSecond, 0.0));
  clock.Advance(kMinute);
  // A 6-minute outage measured as 30 s: device clock falls 5.5 min behind.
  clock.AdvanceTo(clock.TrueNow() + 6 * kMinute);
  clock.NotifyOutage(6 * kMinute);
  const std::int64_t error = static_cast<std::int64_t>(clock.Read()) -
                             static_cast<std::int64_t>(clock.TrueNow());
  EXPECT_EQ(error, -static_cast<std::int64_t>(6 * kMinute - 30 * kSecond));
}

TEST(ClockTimekeeperIntegrationTest, TimekeeperSupersedesUniformDrift) {
  PersistentClock clock;
  clock.SetMaxDriftPerOutage(kSecond);
  clock.SetTimekeeper(std::make_unique<IdealTimekeeper>());
  clock.Advance(kMinute);
  for (int i = 0; i < 10; ++i) {
    clock.NotifyPowerFailure();  // Would apply drift without a timekeeper.
    clock.NotifyOutage(kMinute);
  }
  EXPECT_EQ(clock.Read(), clock.TrueNow());
}

TEST(ClockTimekeeperIntegrationTest, McuRoutesOutagesThroughTimekeeper) {
  auto mcu = std::make_unique<Mcu>(std::make_unique<FixedChargePowerModel>(500.0, 2 * kMinute));
  mcu->clock().SetTimekeeper(std::make_unique<RemanenceTimekeeper>(10 * kSecond, 0.0));
  // Force one outage (budget covers 0.5 s at 1 mW; we ask for 1 s).
  (void)mcu->Execute(kSecond, 1.0, CostTag::kApp);
  ASSERT_EQ(mcu->stats().reboots, 1u);
  // True time advanced by the 2-minute charge; the device clock only saw
  // 10 seconds of it.
  const std::int64_t error = static_cast<std::int64_t>(mcu->Now()) -
                             static_cast<std::int64_t>(mcu->TrueNow());
  EXPECT_LT(error, -static_cast<std::int64_t>(kMinute));
}

TEST(ClockTimekeeperIntegrationTest, SaturatingTimekeeperMasksMitd) {
  // End-to-end: with a saturating timekeeper the MITD property cannot see
  // 6-minute outages, so it never fires (the ablation_timekeeper story).
  HealthApp app = BuildHealthApp();
  auto mcu = std::make_unique<Mcu>(
      std::make_unique<FixedChargePowerModel>(19'500.0, 6 * kMinute - kSecond));
  mcu->clock().SetTimekeeper(std::make_unique<RemanenceTimekeeper>(30 * kSecond, 0.0));
  ArtemisConfig config;
  config.kernel.max_wall_time = 8 * kHour;
  config.kernel.record_trace = true;
  auto runtime = ArtemisRuntime::Create(&app.graph, HealthAppSpec(), mcu.get(), config);
  ASSERT_TRUE(runtime.ok());
  const KernelRunResult result = runtime.value()->Run();
  EXPECT_TRUE(result.completed);
  for (const obs::Event& e : runtime.value()->kernel().trace()) {
    if (e.kind == obs::Kind::kViolation) {
      EXPECT_EQ(e.detail.find("MITD"), std::string::npos)
          << "MITD fired despite the saturated timekeeper";
    }
  }
}

TEST(TraceTrueTimeTest, TrueTimeTracksSimulation) {
  HealthApp app = BuildHealthApp();
  auto mcu = std::make_unique<Mcu>(std::make_unique<FixedChargePowerModel>(19'500.0, kMinute));
  ArtemisConfig config;
  config.kernel.max_wall_time = 2 * kHour;
  config.kernel.record_trace = true;
  auto runtime = ArtemisRuntime::Create(&app.graph, HealthAppSpec(), mcu.get(), config);
  ASSERT_TRUE(runtime.ok());
  ASSERT_TRUE(runtime.value()->Run().completed);
  // Without a timekeeper the clocks agree; true_time is monotonic.
  SimTime last = 0;
  for (const obs::Event& e : runtime.value()->kernel().trace()) {
    EXPECT_EQ(e.time, e.true_time);
    EXPECT_GE(e.true_time, last);
    last = e.true_time;
  }
}

}  // namespace
}  // namespace artemis
