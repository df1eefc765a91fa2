// End-to-end scenarios: the health benchmark under the paper's experimental
// conditions, cross-system completion matrices, and randomized
// always-terminates property sweeps.
#include <gtest/gtest.h>

#include "src/apps/greenhouse_app.h"
#include "src/apps/health_app.h"
#include "src/core/runtime.h"
#include "src/mayfly/mayfly.h"
#include "src/sim/mcu.h"
#include "src/sim/power_model.h"
#include "src/spec/parser.h"

namespace artemis {
namespace {

constexpr EnergyUj kOnBudget = 19'500.0;

SimDuration Charge(int minutes) {
  return static_cast<SimDuration>(minutes) * kMinute - kSecond;
}

// kOnBudget per on-period, recharging for Charge(minutes).
std::unique_ptr<Mcu> ChargedMcu(int minutes) {
  return std::make_unique<Mcu>(
      std::make_unique<FixedChargePowerModel>(kOnBudget, Charge(minutes)));
}

KernelRunResult RunArtemisHealth(std::unique_ptr<Mcu> mcu, SimDuration max_wall,
                                 std::uint64_t* sends = nullptr,
                                 std::vector<obs::Event>* trace_out = nullptr) {
  HealthApp app = BuildHealthApp();
  ArtemisConfig config;
  config.kernel.max_wall_time = max_wall;
  config.kernel.record_trace = trace_out != nullptr;
  auto runtime = ArtemisRuntime::Create(&app.graph, HealthAppSpec(), mcu.get(), config);
  EXPECT_TRUE(runtime.ok()) << runtime.status().ToString();
  const KernelRunResult result = runtime.value()->Run();
  if (sends != nullptr) {
    *sends = runtime.value()->kernel().channels().CompletionCount(app.send);
  }
  if (trace_out != nullptr) {
    *trace_out = runtime.value()->kernel().trace();
  }
  return result;
}

KernelRunResult RunMayflyHealth(std::unique_ptr<Mcu> mcu, SimDuration max_wall) {
  HealthApp app = BuildHealthApp();
  auto parsed = SpecParser::Parse(HealthAppSpec());
  KernelOptions options;
  options.max_wall_time = max_wall;
  auto runtime = MayflyRuntime::Create(&app.graph, parsed.value(), mcu.get(), options);
  EXPECT_TRUE(runtime.ok());
  return runtime.value()->Run();
}

// ------------------------------------------- Figure 12 completion matrix --

struct ChargeCase {
  int minutes;
  bool artemis_completes;
  bool mayfly_completes;
};

class ChargingSweepTest : public ::testing::TestWithParam<ChargeCase> {};

TEST_P(ChargingSweepTest, CompletionMatchesPaperShape) {
  const ChargeCase& c = GetParam();
  const SimDuration give_up = 8 * kHour;
  const KernelRunResult artemis_result = RunArtemisHealth(ChargedMcu(c.minutes), give_up);
  EXPECT_EQ(artemis_result.completed, c.artemis_completes) << c.minutes << "min";
  const KernelRunResult mayfly_result = RunMayflyHealth(ChargedMcu(c.minutes), give_up);
  EXPECT_EQ(mayfly_result.completed, c.mayfly_completes) << c.minutes << "min";
  if (!c.mayfly_completes) {
    EXPECT_TRUE(mayfly_result.timed_out);
  }
}

INSTANTIATE_TEST_SUITE_P(Figure12, ChargingSweepTest,
                         ::testing::Values(ChargeCase{1, true, true}, ChargeCase{2, true, true},
                                           ChargeCase{4, true, true}, ChargeCase{5, true, true},
                                           ChargeCase{6, true, false},
                                           ChargeCase{8, true, false},
                                           ChargeCase{10, true, false}));

TEST(Figure12Test, ArtemisTimeGrowsWithChargingDelay) {
  const KernelRunResult at6 = RunArtemisHealth(ChargedMcu(6), 8 * kHour);
  const KernelRunResult at10 = RunArtemisHealth(ChargedMcu(10), 8 * kHour);
  ASSERT_TRUE(at6.completed);
  ASSERT_TRUE(at10.completed);
  EXPECT_GT(at10.finished_at, at6.finished_at);
}

// -------------------------------------------------- Figure 13 shape check --

TEST(Figure13Test, ThreeAttemptsThenSkip) {
  std::vector<obs::Event> trace;
  const KernelRunResult result = RunArtemisHealth(ChargedMcu(6), 8 * kHour, nullptr, &trace);
  ASSERT_TRUE(result.completed);
  int mitd_violations = 0;
  int skips = 0;
  for (const obs::Event& e : trace) {
    if (e.kind == obs::Kind::kViolation && e.detail.find("MITD") != std::string::npos) {
      ++mitd_violations;
    }
    skips += e.kind == obs::Kind::kPathSkip ? 1 : 0;
  }
  EXPECT_EQ(mitd_violations, 3);  // Two restarts, then the maxAttempt skip.
  EXPECT_EQ(skips, 1);
}

// --------------------------------------------------- Figure 16 shape check --

TEST(Figure16Test, EnergyParityAndBoundedGrowth) {
  const KernelRunResult continuous =
      RunArtemisHealth(std::make_unique<Mcu>(std::make_unique<AlwaysOnPowerModel>()), 0);
  const KernelRunResult mayfly_continuous =
      RunMayflyHealth(std::make_unique<Mcu>(std::make_unique<AlwaysOnPowerModel>()), 0);
  ASSERT_TRUE(continuous.completed);
  ASSERT_TRUE(mayfly_continuous.completed);
  // Continuous power: near-parity (within 2%).
  EXPECT_NEAR(continuous.stats.TotalEnergy() / mayfly_continuous.stats.TotalEnergy(), 1.0,
              0.02);

  // Long outages: ARTEMIS completes at a bounded multiple of continuous.
  const KernelRunResult at10 = RunArtemisHealth(ChargedMcu(10), 8 * kHour);
  ASSERT_TRUE(at10.completed);
  const double ratio = at10.stats.TotalEnergy() / continuous.stats.TotalEnergy();
  EXPECT_GT(ratio, 1.8);
  EXPECT_LT(ratio, 4.0);  // Paper: ~3x.
}

// ------------------------------------------------------ robustness sweeps --

class StochasticTerminationTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StochasticTerminationTest, ArtemisAlwaysTerminatesUnderRandomPower) {
  // Under arbitrary exponential on/charge times, the maxTries + maxAttempt
  // properties must keep the application terminating (completion), as long
  // as the device is not literally starved.
  auto mcu = std::make_unique<Mcu>(std::make_unique<StochasticPowerModel>(
      /*mean_on=*/4 * kSecond, /*mean_charge=*/20 * kSecond, /*seed=*/GetParam()));
  HealthApp app = BuildHealthApp();
  ArtemisConfig config;
  config.kernel.max_wall_time = 12 * kHour;
  auto runtime = ArtemisRuntime::Create(&app.graph, HealthAppSpec(), mcu.get(), config);
  ASSERT_TRUE(runtime.ok());
  const KernelRunResult result = runtime.value()->Run();
  EXPECT_TRUE(result.completed) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, StochasticTerminationTest,
                         ::testing::Range<std::uint64_t>(1, 13));

class DriftRobustnessTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DriftRobustnessTest, TimekeepingErrorDoesNotBreakTermination) {
  auto mcu = ChargedMcu(6);
  mcu->clock().SetMaxDriftPerOutage(200 * kMillisecond);
  // Perturb the drift RNG stream per test parameter by pre-spinning outages.
  for (std::uint64_t i = 0; i < GetParam(); ++i) {
    mcu->clock().NotifyPowerFailure();
  }
  HealthApp app = BuildHealthApp();
  ArtemisConfig config;
  config.kernel.max_wall_time = 8 * kHour;
  auto runtime = ArtemisRuntime::Create(&app.graph, HealthAppSpec(), mcu.get(), config);
  ASSERT_TRUE(runtime.ok());
  EXPECT_TRUE(runtime.value()->Run().completed);
}

INSTANTIATE_TEST_SUITE_P(DriftSeeds, DriftRobustnessTest,
                         ::testing::Values(0u, 1u, 3u, 7u, 15u));

// --------------------------------------------------------- greenhouse app --

TEST(GreenhouseTest, CompletesOnCapacitorSupply) {
  GreenhouseApp app = BuildGreenhouseApp();
  CapacitorConfig cap;
  cap.capacitance_f = 47e-6;
  auto mcu = std::make_unique<Mcu>(std::make_unique<CapacitorPowerModel>(
      cap, std::make_unique<PulseHarvester>(4.0, 3 * kSecond, 1 * kSecond)));
  ArtemisConfig config;
  config.kernel.max_wall_time = kHour;
  auto runtime = ArtemisRuntime::Create(&app.graph, GreenhouseSpec(), mcu.get(), config);
  ASSERT_TRUE(runtime.ok()) << runtime.status().ToString();
  EXPECT_TRUE(runtime.value()->Run().completed);
}

TEST(GreenhouseTest, MinEnergySkipsReportOnDrainedBuffer) {
  GreenhouseApp app = BuildGreenhouseApp();
  // By the time `report` starts, the earlier tasks have drained the
  // on-period budget below the 0.9 threshold (but the report would still
  // fit — the property is a policy, not a physics guard).
  auto mcu = std::make_unique<Mcu>(std::make_unique<FixedChargePowerModel>(2'400.0, 5 * kSecond));
  ArtemisConfig config;
  config.kernel.max_wall_time = kHour;
  config.kernel.record_trace = true;
  auto runtime = ArtemisRuntime::Create(&app.graph, GreenhouseSpec(), mcu.get(), config);
  ASSERT_TRUE(runtime.ok());
  const KernelRunResult result = runtime.value()->Run();
  EXPECT_TRUE(result.completed);
  bool min_energy_fired = false;
  for (const obs::Event& e : runtime.value()->kernel().trace()) {
    min_energy_fired = min_energy_fired || (e.kind == obs::Kind::kViolation &&
                                            e.detail.find("minEnergy") != std::string::npos);
  }
  EXPECT_TRUE(min_energy_fired);
}

// ------------------------------------------------- cross-system coherence --

TEST(Table2Test, FramCellsMatchExperiments) {
  // The FRAM column of EXPERIMENTS.md's Table 2, as bench/table2_memory
  // measures it: each system runs the health app once on continuous power
  // and the NVM arena reports the bytes each owner registered. The cells
  // use fixed layout constants, so they are the same with any standard
  // library.
  const auto fram = [](Mcu& mcu, MemOwner owner) {
    const MemoryReport report = mcu.nvm().Report();
    const auto it = report.by_owner.find(owner);
    return it != report.by_owner.end() ? it->second : 0u;
  };
  HealthApp mayfly_app = BuildHealthApp();
  auto mayfly_mcu = std::make_unique<Mcu>(std::make_unique<AlwaysOnPowerModel>());
  auto mayfly = MayflyRuntime::Create(&mayfly_app.graph, SpecParser::Parse(HealthAppSpec()).value(),
                                      mayfly_mcu.get(), {});
  ASSERT_TRUE(mayfly.ok());
  ASSERT_TRUE(mayfly.value()->Run().completed);
  HealthApp artemis_app = BuildHealthApp();
  auto artemis_mcu = std::make_unique<Mcu>(std::make_unique<AlwaysOnPowerModel>());
  auto artemis =
      ArtemisRuntime::Create(&artemis_app.graph, HealthAppSpec(), artemis_mcu.get(), {});
  ASSERT_TRUE(artemis.ok());
  ASSERT_TRUE(artemis.value()->Run().completed);
  EXPECT_EQ(fram(*mayfly_mcu, MemOwner::kRuntime), 576u);
  EXPECT_EQ(fram(*artemis_mcu, MemOwner::kRuntime), 96u);
  EXPECT_EQ(fram(*artemis_mcu, MemOwner::kMonitor), 390u);
}

TEST(CrossSystemTest, IdenticalAppTimeOnContinuousPower) {
  // Section 5.3: with continuous power the task execution flow is identical
  // in both systems, so app-logic time must match exactly.
  const KernelRunResult artemis_result =
      RunArtemisHealth(std::make_unique<Mcu>(std::make_unique<AlwaysOnPowerModel>()), 0);
  const KernelRunResult mayfly_result =
      RunMayflyHealth(std::make_unique<Mcu>(std::make_unique<AlwaysOnPowerModel>()), 0);
  EXPECT_EQ(artemis_result.stats.busy_time[static_cast<int>(CostTag::kApp)],
            mayfly_result.stats.busy_time[static_cast<int>(CostTag::kApp)]);
}

TEST(CrossSystemTest, ArtemisOverheadHigherButComparable) {
  const KernelRunResult artemis_result =
      RunArtemisHealth(std::make_unique<Mcu>(std::make_unique<AlwaysOnPowerModel>()), 0);
  const KernelRunResult mayfly_result =
      RunMayflyHealth(std::make_unique<Mcu>(std::make_unique<AlwaysOnPowerModel>()), 0);
  const SimDuration artemis_overhead =
      artemis_result.stats.busy_time[static_cast<int>(CostTag::kRuntime)] +
      artemis_result.stats.busy_time[static_cast<int>(CostTag::kMonitor)];
  const SimDuration mayfly_overhead =
      mayfly_result.stats.busy_time[static_cast<int>(CostTag::kRuntime)];
  EXPECT_GT(artemis_overhead, mayfly_overhead);
  // "Negligible": under 2% of total busy time.
  EXPECT_LT(static_cast<double>(artemis_overhead),
            0.02 * static_cast<double>(artemis_result.stats.TotalBusy()));
}

TEST(CrossSystemTest, SendsTransmittedEvenWhenPathSkipped) {
  // Section 5.1: "ARTEMIS allows the application to complete and transmit
  // the remaining data, even if some data is missing."
  std::uint64_t sends = 0;
  const KernelRunResult result = RunArtemisHealth(ChargedMcu(6), 8 * kHour, &sends);
  ASSERT_TRUE(result.completed);
  EXPECT_GE(sends, 2u);  // Paths #1 and #3 delivered their transmissions.
}

}  // namespace
}  // namespace artemis
