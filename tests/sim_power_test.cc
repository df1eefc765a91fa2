// Unit tests for the power-supply models that drive intermittence.
#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>

#include "src/sim/cost_model.h"
#include "src/sim/mcu.h"
#include "src/sim/power_model.h"

namespace artemis {
namespace {

TEST(AlwaysOnTest, NeverFails) {
  AlwaysOnPowerModel model;
  const ConsumeResult r = model.Consume(0, kHour, 100.0);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.ran_for, kHour);
  EXPECT_DOUBLE_EQ(r.consumed, EnergyFor(100.0, kHour));
}

TEST(FixedChargeTest, CompletesWithinBudget) {
  FixedChargePowerModel model(1000.0, 5 * kSecond);
  const ConsumeResult r = model.Consume(0, kSecond, 0.5);  // 500 uJ
  EXPECT_TRUE(r.completed);
  EXPECT_DOUBLE_EQ(r.consumed, 500.0);
  EXPECT_DOUBLE_EQ(model.StoredEnergyFraction(), 0.5);
}

TEST(FixedChargeTest, DiesPartwayAndSchedulesRestart) {
  FixedChargePowerModel model(1000.0, 5 * kSecond);
  // 2 s at 1 mW needs 2000 uJ; only 1000 available -> dies after 1 s.
  const ConsumeResult r = model.Consume(10 * kSecond, 2 * kSecond, 1.0);
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.ran_for, kSecond);
  EXPECT_EQ(r.restart_at, 10 * kSecond + kSecond + 5 * kSecond);
  EXPECT_DOUBLE_EQ(r.consumed, 1000.0);
  EXPECT_DOUBLE_EQ(model.StoredEnergyFraction(), 0.0);
}

TEST(FixedChargeTest, RebootRefillsBudget) {
  FixedChargePowerModel model(1000.0, 5 * kSecond);
  (void)model.Consume(0, kHour, 10.0);  // Exhaust it.
  model.NotifyReboot(kMinute);
  EXPECT_DOUBLE_EQ(model.StoredEnergyFraction(), 1.0);
  EXPECT_TRUE(model.Consume(kMinute, kSecond, 0.9).completed);
}

TEST(FixedChargeTest, ZeroPowerAlwaysCompletes) {
  FixedChargePowerModel model(10.0, kSecond);
  EXPECT_TRUE(model.Consume(0, kHour, 0.0).completed);
}

TEST(FixedChargeTest, SuccessiveDrainsAccumulate) {
  FixedChargePowerModel model(1000.0, kSecond);
  EXPECT_TRUE(model.Consume(0, kSecond, 0.4).completed);   // 400
  EXPECT_TRUE(model.Consume(0, kSecond, 0.4).completed);   // 800
  EXPECT_FALSE(model.Consume(0, kSecond, 0.4).completed);  // needs 1200
}

TEST(CapacitorModelTest, RunsWhileHarvestExceedsLoad) {
  CapacitorPowerModel model(CapacitorConfig{}, std::make_unique<ConstantHarvester>(5.0));
  const ConsumeResult r = model.Consume(0, 10 * kSecond, 3.0);
  EXPECT_TRUE(r.completed);
}

TEST(CapacitorModelTest, BrownsOutUnderSustainedOverload) {
  CapacitorConfig config;  // 1250 uJ full, ~1008 usable
  CapacitorPowerModel model(CapacitorConfig{}, std::make_unique<ConstantHarvester>(0.0));
  // 10 mW load with no harvest: usable 1008 uJ -> dies at ~100 ms.
  const ConsumeResult r = model.Consume(0, kSecond, 10.0);
  EXPECT_FALSE(r.completed);
  EXPECT_GT(r.ran_for, 50 * kMillisecond);
  EXPECT_LT(r.ran_for, 200 * kMillisecond);
  (void)config;
}

TEST(CapacitorModelTest, RecoversWhenHarvesterRefills) {
  CapacitorPowerModel model(CapacitorConfig{}, std::make_unique<ConstantHarvester>(2.0));
  const ConsumeResult r = model.Consume(0, kSecond, 50.0);
  ASSERT_FALSE(r.completed);
  EXPECT_GT(r.restart_at, r.ran_for);
  // After restart the capacitor is at V_on and can run briefly again.
  const ConsumeResult next = model.Consume(r.restart_at, kMillisecond, 1.0);
  EXPECT_TRUE(next.completed);
}

TEST(CapacitorModelTest, EnergyFractionTracksVoltage) {
  CapacitorPowerModel model(CapacitorConfig{}, std::make_unique<ConstantHarvester>(0.0));
  EXPECT_NEAR(model.StoredEnergyFraction(), 1.0, 1e-9);
  (void)model.Consume(0, 50 * kMillisecond, 10.0);  // ~500 uJ of ~1008 usable
  EXPECT_LT(model.StoredEnergyFraction(), 0.7);
  EXPECT_GT(model.StoredEnergyFraction(), 0.2);
}

TEST(TraceModelTest, CompletesInsideWindow) {
  TracePowerModel model({{0, kSecond}, {2 * kSecond, 3 * kSecond}});
  EXPECT_TRUE(model.Consume(0, 500 * kMillisecond, 1.0).completed);
}

TEST(TraceModelTest, FailsAtWindowEdgeAndRestartsAtNextWindow) {
  TracePowerModel model({{0, kSecond}, {2 * kSecond, 3 * kSecond}});
  const ConsumeResult r = model.Consume(800 * kMillisecond, kSecond, 1.0);
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.ran_for, 200 * kMillisecond);
  EXPECT_EQ(r.restart_at, 2 * kSecond);
}

TEST(TraceModelTest, PastLastWindowNeverRestartsSoon) {
  TracePowerModel model({{0, kSecond}});
  const ConsumeResult r = model.Consume(5 * kSecond, kSecond, 1.0);
  EXPECT_FALSE(r.completed);
  EXPECT_GT(r.restart_at, 5 * kSecond + kHour);
}

TEST(StochasticModelTest, DeterministicUnderSeed) {
  StochasticPowerModel a(kSecond, kSecond, 42);
  StochasticPowerModel b(kSecond, kSecond, 42);
  for (int i = 0; i < 20; ++i) {
    const ConsumeResult ra = a.Consume(0, 300 * kMillisecond, 1.0);
    const ConsumeResult rb = b.Consume(0, 300 * kMillisecond, 1.0);
    EXPECT_EQ(ra.completed, rb.completed);
    EXPECT_EQ(ra.ran_for, rb.ran_for);
    if (!ra.completed) {
      a.NotifyReboot(ra.restart_at);
      b.NotifyReboot(rb.restart_at);
    }
  }
}

TEST(StochasticModelTest, EventuallyFails) {
  StochasticPowerModel model(100 * kMillisecond, kSecond, 7);
  bool failed = false;
  for (int i = 0; i < 100 && !failed; ++i) {
    const ConsumeResult r = model.Consume(0, 50 * kMillisecond, 1.0);
    failed = !r.completed;
    if (failed) {
      EXPECT_GT(r.restart_at, 0u);
    }
  }
  EXPECT_TRUE(failed);
}

// ------------------------------------------------------- run charging --
// Mcu::ExecuteCyclesRun lets the power model consume the operations it can
// prove complete in one step. Against a per-operation reference it must
// agree on the count, on the failing status and on every bit of the device
// state afterwards, for every (cycles, tag) it charges: flight bytes
// (Mcu::ChargeWriteBytes) and monitor steps, separate or inlined.

struct RunRow {
  const char* name;
  double cycles;
  CostTag tag;
};

void PrintTo(const RunRow& row, std::ostream* os) { *os << row.name; }

// `count` ExecuteCycles calls that stop at the first one not returning
// kOk: the charging ExecuteCyclesRun replaces.
RunStatus PerOperationCharge(Mcu& mcu, const RunRow& row, std::size_t count) {
  RunStatus ref;
  while (ref.done < count) {
    ref.status = mcu.ExecuteCycles(row.cycles, row.tag);
    if (ref.status != ExecStatus::kOk) {
      break;
    }
    ++ref.done;
  }
  return ref;
}

void ExpectSameRun(const RunStatus& run, const RunStatus& ref, const std::string& where) {
  EXPECT_EQ(run.done, ref.done) << where;
  EXPECT_EQ(run.status, ref.status) << where;
}

void ExpectBitIdentical(Mcu& run, Mcu& ref, const std::string& where) {
  for (int tag = 0; tag < kNumCostTags; ++tag) {
    EXPECT_EQ(run.stats().busy_time[tag], ref.stats().busy_time[tag]) << where << " tag " << tag;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(run.stats().energy[tag]),
              std::bit_cast<std::uint64_t>(ref.stats().energy[tag]))
        << where << " tag " << tag;
  }
  EXPECT_EQ(run.stats().reboots, ref.stats().reboots) << where;
  EXPECT_EQ(run.stats().charging_time, ref.stats().charging_time) << where;
  EXPECT_EQ(run.TrueNow(), ref.TrueNow()) << where;
  EXPECT_EQ(run.Now(), ref.Now()) << where;
  EXPECT_EQ(run.starved(), ref.starved()) << where;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(run.power_model().StoredEnergyFraction()),
            std::bit_cast<std::uint64_t>(ref.power_model().StoredEnergyFraction()))
      << where;
}

class RunChargingTest : public ::testing::TestWithParam<RunRow> {};

TEST_P(RunChargingTest, FixedChargeFailsAtEveryOffsetLikePerOperationCharging) {
  const RunRow& row = GetParam();
  const CostModel& costs = DefaultCostModel();
  const SimDuration op = costs.CyclesToTime(row.cycles);
  const EnergyUj op_energy = EnergyFor(costs.mcu_active_power, op);
  const SimDuration restore = costs.CyclesToTime(costs.reboot_restore_cycles);
  const EnergyUj restore_energy = EnergyFor(costs.mcu_active_power, restore);
  constexpr std::size_t kRun = 250;
  for (std::size_t k = 0; k <= kRun; ++k) {
    // Each on-period pays one boot restore, k operations and half of the
    // next, so the run fails at operation k, before and after the reboot it
    // causes.
    const EnergyUj budget = restore_energy + (static_cast<double>(k) + 0.5) * op_energy;
    Mcu run(std::make_unique<FixedChargePowerModel>(budget, kMinute), costs);
    Mcu ref(std::make_unique<FixedChargePowerModel>(budget, kMinute), costs);
    ASSERT_EQ(run.Execute(restore, costs.mcu_active_power, CostTag::kApp), ExecStatus::kOk);
    ASSERT_EQ(ref.Execute(restore, costs.mcu_active_power, CostTag::kApp), ExecStatus::kOk);
    const std::string where = "offset " + std::to_string(k);
    const RunStatus charged = run.ExecuteCyclesRun(row.cycles, row.tag, kRun);
    EXPECT_EQ(charged.done, k) << where;
    EXPECT_EQ(charged.status, k < kRun ? ExecStatus::kPowerFailure : ExecStatus::kOk) << where;
    ExpectSameRun(charged, PerOperationCharge(ref, row, kRun), where);
    ExpectBitIdentical(run, ref, where);
    ExpectSameRun(run.ExecuteCyclesRun(row.cycles, row.tag, kRun),
                  PerOperationCharge(ref, row, kRun), where + " rebooted");
    ExpectBitIdentical(run, ref, where + " rebooted");
  }
}

TEST_P(RunChargingTest, AlwaysOnChargesEveryOperationLikePerOperationCharging) {
  const RunRow& row = GetParam();
  const CostModel& costs = DefaultCostModel();
  Mcu run(std::make_unique<AlwaysOnPowerModel>(), costs);
  Mcu ref(std::make_unique<AlwaysOnPowerModel>(), costs);
  for (const std::size_t count : {0, 1, 38, 250, 7, 250}) {
    const std::string where = "count " + std::to_string(count);
    const RunStatus charged = run.ExecuteCyclesRun(row.cycles, row.tag, count);
    EXPECT_EQ(charged.done, count) << where;
    EXPECT_EQ(charged.status, ExecStatus::kOk) << where;
    ExpectSameRun(charged, PerOperationCharge(ref, row, count), where);
    ExpectBitIdentical(run, ref, where);
  }
}

TEST_P(RunChargingTest, ModelWithoutRunsChargesLikePerOperationCharging) {
  // StochasticPowerModel proves no run, so every operation goes through
  // Execute; on-times of about two runs put failures inside most runs.
  const RunRow& row = GetParam();
  const CostModel& costs = DefaultCostModel();
  const SimDuration mean_on = 500 * costs.CyclesToTime(row.cycles);
  std::uint64_t reboots = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Mcu run(std::make_unique<StochasticPowerModel>(mean_on, kSecond, seed), costs);
    Mcu ref(std::make_unique<StochasticPowerModel>(mean_on, kSecond, seed), costs);
    for (int i = 0; i < 6; ++i) {
      const std::string where = "seed " + std::to_string(seed) + " run " + std::to_string(i);
      ExpectSameRun(run.ExecuteCyclesRun(row.cycles, row.tag, 250),
                    PerOperationCharge(ref, row, 250), where);
      ExpectBitIdentical(run, ref, where);
    }
    reboots += run.stats().reboots;
  }
  EXPECT_GT(reboots, 0u);
}

// Flight bytes under kFlight (Mcu::ChargeWriteBytes), and the compiled and
// interpreted monitor steps under kMonitor (separate component) and
// kRuntime (inlined checks).
INSTANTIATE_TEST_SUITE_P(
    Rows, RunChargingTest,
    ::testing::Values(
        RunRow{"flight_byte", DefaultCostModel().flight_nvm_write_cycles_per_byte,
               CostTag::kFlight},
        RunRow{"compiled_monitor", 1.0 * DefaultCostModel().compiled_step_cycles,
               CostTag::kMonitor},
        RunRow{"interpreted_monitor", 1.0 * DefaultCostModel().interp_step_cycles,
               CostTag::kMonitor},
        RunRow{"compiled_runtime", 1.0 * DefaultCostModel().compiled_step_cycles,
               CostTag::kRuntime},
        RunRow{"interpreted_runtime", 1.0 * DefaultCostModel().interp_step_cycles,
               CostTag::kRuntime}),
    [](const ::testing::TestParamInfo<RunRow>& row) { return std::string(row.param.name); });

}  // namespace
}  // namespace artemis
