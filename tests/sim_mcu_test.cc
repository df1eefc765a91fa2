// Unit tests for the MCU: clock, memory arenas, cost accounting, and the
// full outage sequence.
#include <gtest/gtest.h>

#include <memory>

#include "src/sim/clock.h"
#include "src/sim/mcu.h"
#include "src/sim/memory.h"
#include "src/sim/peripherals.h"

namespace artemis {
namespace {

std::unique_ptr<Mcu> FixedChargeMcu(EnergyUj budget, SimDuration charge) {
  return std::make_unique<Mcu>(std::make_unique<FixedChargePowerModel>(budget, charge),
                               DefaultCostModel());
}

// ---------------------------------------------------------------- clock --

TEST(PersistentClockTest, IdealClockTracksTrueTime) {
  PersistentClock clock;
  clock.Advance(5 * kSecond);
  EXPECT_EQ(clock.TrueNow(), 5 * kSecond);
  EXPECT_EQ(clock.Read(), 5 * kSecond);
  clock.NotifyPowerFailure();
  EXPECT_EQ(clock.Read(), 5 * kSecond);  // No drift configured.
  EXPECT_EQ(clock.outage_count(), 1u);
}

TEST(PersistentClockTest, AdvanceToNeverGoesBack) {
  PersistentClock clock;
  clock.AdvanceTo(kMinute);
  clock.AdvanceTo(kSecond);
  EXPECT_EQ(clock.TrueNow(), kMinute);
}

TEST(PersistentClockTest, DriftBoundedPerOutage) {
  PersistentClock clock;
  clock.SetMaxDriftPerOutage(100 * kMillisecond);
  clock.Advance(kHour);
  for (int i = 0; i < 50; ++i) {
    clock.NotifyPowerFailure();
  }
  const std::int64_t error = static_cast<std::int64_t>(clock.Read()) -
                             static_cast<std::int64_t>(clock.TrueNow());
  EXPECT_LE(std::abs(error), 50 * 100 * static_cast<std::int64_t>(kMillisecond));
}

// --------------------------------------------------------------- arenas --

TEST(NvmArenaTest, AccountsByOwner) {
  NvmArena arena(1024);
  EXPECT_TRUE(arena.Allocate(MemOwner::kRuntime, 100, "a").ok());
  EXPECT_TRUE(arena.Allocate(MemOwner::kMonitor, 200, "b").ok());
  EXPECT_TRUE(arena.Allocate(MemOwner::kRuntime, 50, "c").ok());
  const MemoryReport report = arena.Report();
  EXPECT_EQ(report.total, 350u);
  EXPECT_EQ(report.by_owner.at(MemOwner::kRuntime), 150u);
  EXPECT_EQ(report.by_owner.at(MemOwner::kMonitor), 200u);
}

TEST(NvmArenaTest, ReportsExhaustion) {
  NvmArena arena(128);
  EXPECT_TRUE(arena.Allocate(MemOwner::kApp, 100, "a").ok());
  const Status status = arena.Allocate(MemOwner::kApp, 100, "b");
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  // The structured error names the requesting subsystem and what was left.
  EXPECT_NE(status.message().find("'b'"), std::string::npos) << status.message();
  EXPECT_NE(status.message().find("app"), std::string::npos) << status.message();
  EXPECT_NE(status.message().find("28 of 128 remaining"), std::string::npos)
      << status.message();
  EXPECT_EQ(arena.used(), 200u);  // Still recorded for the report.
}

// ------------------------------------------------------------------ mcu --

TEST(McuTest, ExecuteAdvancesClockAndAccountsTag) {
  auto mcu = FixedChargeMcu(1e9, kSecond);
  EXPECT_EQ(mcu->Execute(kSecond, 2.0, CostTag::kApp), ExecStatus::kOk);
  EXPECT_EQ(mcu->TrueNow(), kSecond);
  EXPECT_EQ(mcu->stats().busy_time[static_cast<int>(CostTag::kApp)], kSecond);
  EXPECT_DOUBLE_EQ(mcu->stats().energy[static_cast<int>(CostTag::kApp)], 2000.0);
  EXPECT_EQ(mcu->stats().reboots, 0u);
}

TEST(McuTest, PowerFailureRunsFullOutageSequence) {
  // Budget covers 500 ms at 1 mW (500 uJ); ask for 1 s.
  auto mcu = FixedChargeMcu(500.0, 10 * kSecond);
  EXPECT_EQ(mcu->Execute(kSecond, 1.0, CostTag::kApp), ExecStatus::kPowerFailure);
  EXPECT_EQ(mcu->stats().reboots, 1u);
  // Clock includes: 500 ms run + 10 s charge + boot restore time.
  EXPECT_GT(mcu->TrueNow(), 10 * kSecond + 500 * kMillisecond);
  EXPECT_GT(mcu->stats().busy_time[static_cast<int>(CostTag::kReboot)], 0u);
  EXPECT_EQ(mcu->stats().charging_time, 10 * kSecond);
}

TEST(McuTest, StarvesWhenBudgetCannotBoot) {
  // Budget smaller than the boot restore cost itself.
  const CostModel& costs = DefaultCostModel();
  const EnergyUj boot_cost =
      EnergyFor(costs.mcu_active_power, costs.CyclesToTime(costs.reboot_restore_cycles));
  auto mcu = FixedChargeMcu(boot_cost / 4.0, kSecond);
  const ExecStatus status = mcu->Execute(kSecond, 5.0, CostTag::kApp);
  EXPECT_EQ(status, ExecStatus::kStarved);
  EXPECT_TRUE(mcu->starved());
  // Subsequent calls short-circuit.
  EXPECT_EQ(mcu->Execute(kSecond, 1.0, CostTag::kApp), ExecStatus::kStarved);
}

TEST(McuTest, CycleChargeUsesCostModelClock) {
  auto mcu = FixedChargeMcu(1e9, kSecond);
  EXPECT_EQ(mcu->ExecuteCharge(mcu->charges().Of(1000), CostTag::kRuntime), ExecStatus::kOk);
  // 1000 cycles at 1 MHz = 1000 us.
  EXPECT_EQ(mcu->stats().busy_time[static_cast<int>(CostTag::kRuntime)], 1000u);
}

TEST(McuTest, IdleAdvancesTimeWithoutEnergy) {
  auto mcu = FixedChargeMcu(100.0, kSecond);
  mcu->Idle(kHour);
  EXPECT_EQ(mcu->TrueNow(), kHour);
  EXPECT_DOUBLE_EQ(mcu->stats().TotalEnergy(), 0.0);
}

TEST(McuTest, ResetStatsKeepsMemoryRegistration) {
  auto mcu = FixedChargeMcu(1e9, kSecond);
  mcu->nvm().Allocate(MemOwner::kMonitor, 64, "m");
  (void)mcu->Execute(kSecond, 1.0, CostTag::kApp);
  mcu->ResetStats();
  EXPECT_DOUBLE_EQ(mcu->stats().TotalEnergy(), 0.0);
  EXPECT_EQ(mcu->nvm().used(), 64u);
}

TEST(McuStatsTest, TotalsSumAcrossTags) {
  McuStats stats;
  stats.busy_time = {1, 2, 3, 4};
  stats.energy = {1.5, 2.5, 3.0, 3.0};
  EXPECT_EQ(stats.TotalBusy(), 10u);
  EXPECT_DOUBLE_EQ(stats.TotalEnergy(), 10.0);
}

TEST(CostTagTest, NamesForAllTags) {
  EXPECT_STREQ(CostTagName(CostTag::kApp), "app");
  EXPECT_STREQ(CostTagName(CostTag::kRuntime), "runtime");
  EXPECT_STREQ(CostTagName(CostTag::kMonitor), "monitor");
  EXPECT_STREQ(CostTagName(CostTag::kReboot), "reboot");
  EXPECT_STREQ(CostTagName(CostTag::kFlight), "flight");
}

// ----------------------------------------------------------- peripherals --

TEST(PeripheralCatalogTest, ThunderboardDefaultsPresent) {
  const PeripheralCatalog catalog = PeripheralCatalog::ThunderboardDefaults();
  for (const char* op : {"temp_read", "accel_burst", "mic_capture", "ble_send", "heart_rate"}) {
    EXPECT_TRUE(catalog.Has(op)) << op;
  }
  EXPECT_FALSE(catalog.Has("laser"));
}

TEST(PeripheralCatalogTest, AccelIsTheExpensiveOne) {
  // Section 5.1: accel is the highest-consuming task.
  const PeripheralCatalog catalog = PeripheralCatalog::ThunderboardDefaults();
  const EnergyUj accel = catalog.Get("accel_burst").Energy();
  for (const char* op : {"temp_read", "mic_capture", "ble_send", "heart_rate"}) {
    EXPECT_GT(accel, catalog.Get(op).Energy()) << op;
  }
}

TEST(PeripheralCatalogTest, RegisterOverrides) {
  PeripheralCatalog catalog;
  catalog.Register({.name = "x", .duration = kSecond, .power = 1.0});
  catalog.Register({.name = "x", .duration = 2 * kSecond, .power = 1.0});
  EXPECT_EQ(catalog.Get("x").duration, 2 * kSecond);
}

}  // namespace
}  // namespace artemis
