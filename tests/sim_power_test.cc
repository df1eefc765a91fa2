// Unit tests for the power-supply models that drive intermittence.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <ostream>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/apps/health_app.h"
#include "src/base/rng.h"
#include "src/flight/recorder.h"
#include "src/kernel/kernel.h"
#include "src/mayfly/mayfly.h"
#include "src/monitor/monitor_set.h"
#include "src/sim/cost_model.h"
#include "src/sim/mcu.h"
#include "src/sim/power_model.h"
#include "src/spec/parser.h"

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

TEST(PowerModelTest, EachModelNamesItself) {
  EXPECT_EQ(AlwaysOnPowerModel().Name(), "always-on");
  EXPECT_EQ(FixedChargePowerModel(1000.0, kSecond).Name(), "fixed-charge");
  EXPECT_EQ(
      CapacitorPowerModel(CapacitorConfig{}, std::make_unique<ConstantHarvester>(1.0)).Name(),
      "capacitor");
  EXPECT_EQ(TracePowerModel({{0, kSecond}}).Name(), "trace");
  EXPECT_EQ(StochasticPowerModel(kSecond, kSecond, 1).Name(), "stochastic");
}

// ------------------------------------------------- charge-path differential --
// Mcu completes a charge inline when the power model's budget covers it
// (fixed-charge, always-on) and sends every other charge to Consume. The
// differential drives the same random calls through two Mcus: one on the
// bare model, one on the same model behind a decorator that does not opt
// in, so all of its charges take the Consume path. After every call the
// two must agree to the bit.

// Forwards everything to the wrapped model; keeps the NaN budget.
class ForwardingPowerModel final : public PowerModel {
 public:
  explicit ForwardingPowerModel(std::unique_ptr<PowerModel> inner) : inner_(std::move(inner)) {}

  ConsumeResult Consume(SimTime now, SimDuration duration, Milliwatts power) override {
    ++consume_calls;
    return inner_->Consume(now, duration, power);
  }
  void NotifyReboot(SimTime now) override { inner_->NotifyReboot(now); }
  double StoredEnergyFraction() const override { return inner_->StoredEnergyFraction(); }
  std::string Name() const override { return inner_->Name(); }

  std::uint64_t consume_calls = 0;

 private:
  std::unique_ptr<PowerModel> inner_;
};

// Another MCU than the default one: a faster clock, more active power and
// other step costs. Its cycle counts convert differently, and each Mcu on it
// converts a set of charges of its own. No charge of it lasts as long as a
// charge of the default model (ChargeSourceTest relies on that).
const CostModel& OtherCostModel() {
  static const CostModel kOther = [] {
    CostModel costs;
    costs.clock_hz = 4'000'000;
    costs.mcu_active_power = 1.8;
    costs.kernel_boundary_cycles = 400;
    costs.compiled_step_cycles = 23;
    costs.mayfly_check_cycles = 60;
    costs.nvm_commit_cycles_per_byte = 0.75;
    return costs;
  }();
  return kOther;
}

// Every named charge of `charges`, with the cycle count it converts.
std::vector<std::pair<CycleCharge, double>> NamedCharges(const CycleCharges& charges) {
  const CostModel& c = charges.model;
  return {{charges.kernel_boundary, c.kernel_boundary_cycles},
          {charges.event_build, c.event_build_cycles},
          {charges.timestamp_read, c.timestamp_read_cycles},
          {charges.monitor_call, c.monitor_call_cycles},
          {charges.interp_step, c.interp_step_cycles},
          {charges.builtin_step, c.builtin_step_cycles},
          {charges.compiled_step, c.compiled_step_cycles},
          {charges.mayfly_check, c.mayfly_check_cycles},
          {charges.action_apply, c.action_apply_cycles},
          {charges.reboot_restore, c.reboot_restore_cycles},
          {charges.flight_record_build, c.flight_record_build_cycles},
          {charges.flight_byte, c.flight_nvm_write_cycles_per_byte},
          {charges.flight_control, c.flight_control_write_cycles},
          {charges.swap_control, c.swap_control_cycles},
          {charges.swap_byte, c.swap_nvm_write_cycles_per_byte}};
}

struct ChargeScenario {
  const char* name;
  // Budget per on-period as a multiple of the boot restore's energy; 0
  // means always-on power.
  double budget_restores;
  // Both devices' cost model.
  const CostModel* costs = &DefaultCostModel();
};

void PrintTo(const ChargeScenario& scenario, std::ostream* os) { *os << scenario.name; }

std::unique_ptr<PowerModel> MakeModel(const ChargeScenario& scenario, SimDuration charge) {
  if (scenario.budget_restores == 0.0) {
    return std::make_unique<AlwaysOnPowerModel>();
  }
  const CostModel& costs = *scenario.costs;
  const EnergyUj restore =
      EnergyFor(costs.mcu_active_power, costs.CyclesToTime(costs.reboot_restore_cycles));
  return std::make_unique<FixedChargePowerModel>(scenario.budget_restores * restore, charge);
}

// Both devices: the bare model and the decorated one, each optionally with
// a flight recorder attached.
struct ChargePair {
  ChargePair(const ChargeScenario& scenario, SimDuration charge, std::size_t flight_bytes)
      : bare(MakeModel(scenario, charge), *scenario.costs),
        wrapped(std::make_unique<ForwardingPowerModel>(MakeModel(scenario, charge)),
                *scenario.costs) {
    if (flight_bytes > 0) {
      bare_flight =
          std::make_unique<flight::FlightRecorder>(flight_bytes, flight::FlightLevel::kFull);
      wrapped_flight =
          std::make_unique<flight::FlightRecorder>(flight_bytes, flight::FlightLevel::kFull);
      EXPECT_TRUE(bare.AttachFlightRecorder(bare_flight.get()).ok());
      EXPECT_TRUE(wrapped.AttachFlightRecorder(wrapped_flight.get()).ok());
    }
  }

  Mcu bare;
  Mcu wrapped;
  std::unique_ptr<flight::FlightRecorder> bare_flight;
  std::unique_ptr<flight::FlightRecorder> wrapped_flight;
};

using StatsBytes = std::array<unsigned char, sizeof(McuStats)>;

void ExpectSameMcu(ChargePair& pair, const std::string& where) {
  EXPECT_EQ(std::bit_cast<StatsBytes>(pair.bare.stats()),
            std::bit_cast<StatsBytes>(pair.wrapped.stats()))
      << where;
  EXPECT_EQ(pair.bare.Now(), pair.wrapped.Now()) << where;
  EXPECT_EQ(pair.bare.TrueNow(), pair.wrapped.TrueNow()) << where;
  EXPECT_EQ(pair.bare.starved(), pair.wrapped.starved()) << where;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(pair.bare.power_model().StoredEnergyFraction()),
            std::bit_cast<std::uint64_t>(pair.wrapped.power_model().StoredEnergyFraction()))
      << where;
  if (pair.bare_flight != nullptr) {
    const flight::FlightStats& a = pair.bare_flight->stats();
    const flight::FlightStats& b = pair.wrapped_flight->stats();
    EXPECT_EQ(a.records_sealed, b.records_sealed) << where;
    EXPECT_EQ(a.appends_aborted, b.appends_aborted) << where;
    EXPECT_EQ(a.bytes_sealed, b.bytes_sealed) << where;
    EXPECT_EQ(pair.bare_flight->current_epoch(), pair.wrapped_flight->current_epoch()) << where;
    EXPECT_EQ(pair.bare_flight->Image().bytes, pair.wrapped_flight->Image().bytes) << where;
  }
}

// A charge the engine makes on `charges`: a named one, or Of() of a commit
// of any size or of a few odd cycle counts.
CycleCharge RandomCharge(Rng& rng, const CycleCharges& charges) {
  const CycleCharge pool[] = {charges.Of(0.0),
                              charges.flight_byte,
                              charges.flight_control,
                              charges.builtin_step,
                              charges.compiled_step,
                              charges.timestamp_read,
                              charges.flight_record_build,
                              charges.interp_step,
                              charges.event_build,
                              charges.monitor_call,
                              charges.action_apply,
                              charges.kernel_boundary,
                              charges.reboot_restore,
                              charges.Of(0.37),
                              charges.Of(2500.25)};
  const std::uint64_t pick = rng.UniformU64(0, std::size(pool));
  if (pick == std::size(pool)) {
    return charges.Of(charges.model.CommitCycles(rng.UniformU64(8, 400)));
  }
  return pool[pick];
}

class ChargePathDifferentialTest : public ::testing::TestWithParam<ChargeScenario> {};

TEST_P(ChargePathDifferentialTest, InlineChargesAreBitIdenticalToConsume) {
  const ChargeScenario& scenario = GetParam();
  const Milliwatts powers[] = {0.0, DefaultCostModel().mcu_active_power, 1.7, 24.0};
  std::uint64_t reboots = 0;
  std::uint64_t starved = 0;
  std::uint64_t aborted_appends = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    const SimDuration charge = rng.UniformU64(1, 120) * kSecond;
    const std::size_t flight_bytes = seed % 2 == 0 ? 64 + rng.UniformU64(0, 448) : 0;
    ChargePair pair(scenario, charge, flight_bytes);
    for (int op = 0; op < 1500; ++op) {
      const std::string where = std::string(scenario.name) + " seed " + std::to_string(seed) +
                                " op " + std::to_string(op);
      const auto tag = static_cast<CostTag>(rng.UniformU64(0, kNumCostTags - 1));
      switch (rng.UniformU64(0, 9)) {
        case 0:
        case 1: {
          const SimDuration duration = rng.UniformU64(0, 3 * kMillisecond);
          const Milliwatts power = powers[rng.UniformU64(0, std::size(powers) - 1)];
          EXPECT_EQ(pair.bare.Execute(duration, power, tag),
                    pair.wrapped.Execute(duration, power, tag))
              << where;
          break;
        }
        case 2:
        case 3:
        case 4: {
          const CycleCharge cycle_charge = RandomCharge(rng, pair.bare.charges());
          EXPECT_EQ(pair.bare.ExecuteCharge(cycle_charge, tag),
                    pair.wrapped.ExecuteCharge(cycle_charge, tag))
              << where;
          break;
        }
        case 5:
        case 6:
        case 7: {
          const CycleCharge cycle_charge = RandomCharge(rng, pair.bare.charges());
          const std::size_t count = rng.UniformU64(0, 300);
          const RunStatus a = pair.bare.ExecuteChargeRun(cycle_charge, tag, count);
          const RunStatus b = pair.wrapped.ExecuteChargeRun(cycle_charge, tag, count);
          EXPECT_EQ(a.done, b.done) << where;
          EXPECT_EQ(a.status, b.status) << where;
          break;
        }
        case 8:
          if (pair.bare_flight != nullptr) {
            // A verdict record: its build, bytes and evictions are charged.
            const std::uint64_t at = rng.UniformU64(1, 1u << 20);
            EXPECT_EQ(pair.bare_flight->AppendVerdict(at, 3, 2, 1),
                      pair.wrapped_flight->AppendVerdict(at, 3, 2, 1))
                << where;
          }
          break;
        default: {
          // What the kernel does between charges: idle (which recharges a
          // fixed-charge model) or let time pass.
          const SimDuration idle = rng.UniformU64(0, kSecond);
          pair.bare.Idle(idle);
          pair.wrapped.Idle(idle);
          if (rng.UniformU64(0, 1) == 0) {
            pair.bare.power_model().NotifyReboot(pair.bare.TrueNow());
            pair.wrapped.power_model().NotifyReboot(pair.wrapped.TrueNow());
          }
          break;
        }
      }
      ExpectSameMcu(pair, where);
      if (HasFailure()) {
        return;  // The first divergence explains the rest.
      }
    }
    reboots += pair.bare.stats().reboots;
    starved += pair.bare.starved() ? 1 : 0;
    if (pair.bare_flight != nullptr) {
      aborted_appends += pair.bare_flight->stats().appends_aborted;
    }
  }
  // Each scenario reaches the paths it is there for.
  if (scenario.budget_restores == 0.0) {
    EXPECT_EQ(reboots, 0u);
  } else if (scenario.budget_restores < 1.0) {
    EXPECT_EQ(starved, 12u);
  } else {
    EXPECT_GT(reboots, 0u);
    EXPECT_EQ(starved, 0u);
    EXPECT_GT(aborted_appends, 0u);
  }
}

// Always-on; fixed-charge budgets below one boot restore (every reboot's
// restore fails until the device starves), just above one (the boot
// record's append fails often), and a few restores to a hundred (failures
// land mid-run at every size of run); then a few of those on another cost
// model.
INSTANTIATE_TEST_SUITE_P(
    Scenarios, ChargePathDifferentialTest,
    ::testing::Values(ChargeScenario{"always_on", 0.0}, ChargeScenario{"starving", 0.6},
                      ChargeScenario{"boot_record_fails", 1.02},
                      ChargeScenario{"tight", 1.5}, ChargeScenario{"medium", 6.0},
                      ChargeScenario{"roomy", 100.0},
                      ChargeScenario{"other_costs_always_on", 0.0, &OtherCostModel()},
                      ChargeScenario{"other_costs_tight", 1.5, &OtherCostModel()},
                      ChargeScenario{"other_costs_medium", 6.0, &OtherCostModel()}),
    [](const ::testing::TestParamInfo<ChargeScenario>& row) {
      return std::string(row.param.name);
    });

// Every named charge, every commit and Of() give the bits of converting
// the cycle count directly, on the default model's shared set and on a set
// of another model; an Mcu on the default model charges from the shared
// set, and one on another model from a set of its own.
TEST(CycleChargesTest, ChargesAreTheDirectConversion) {
  const CycleCharges other(OtherCostModel());
  for (const CycleCharges* charges : {&CycleCharges::Default(), &other}) {
    const CostModel& c = charges->model;
    const auto expect_direct = [&](const CycleCharge& charge, double cycles) {
      const SimDuration duration = c.CyclesToTime(cycles);
      const EnergyUj energy = EnergyFor(c.mcu_active_power, duration);
      for (const CycleCharge got : {charge, charges->Of(cycles)}) {
        EXPECT_EQ(got.duration, duration) << cycles;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got.energy), std::bit_cast<std::uint64_t>(energy))
            << cycles;
      }
    };
    for (const auto& [charge, cycles] : NamedCharges(*charges)) {
      expect_direct(charge, cycles);
    }
    // Commit() reads `commits` below kCommitCharges samples.
    for (std::size_t samples = 0; samples < 40; ++samples) {
      expect_direct(charges->Commit(samples),
                    c.CommitCycles(kCommitRecordBytes + samples * sizeof(double)));
    }
  }
  EXPECT_EQ(&Mcu(std::make_unique<AlwaysOnPowerModel>()).charges(), &CycleCharges::Default());
  const Mcu on_other(std::make_unique<AlwaysOnPowerModel>(), OtherCostModel());
  EXPECT_NE(&on_other.charges(), &CycleCharges::Default());
  EXPECT_EQ(on_other.costs().clock_hz, OtherCostModel().clock_hz);
}

// Mcus on several threads charge from the default cost model's one set at
// once; each ends exactly as the same Mcu run alone does. tools/ci.sh stage
// 9 runs this under ThreadSanitizer.
TEST(CycleChargesTest, McusOnSeveralThreadsChargeFromTheDefaultSet) {
  const auto run = [](std::uint64_t seed, McuStats* stats) {
    Mcu mcu(std::make_unique<FixedChargePowerModel>(900.0, kSecond), DefaultCostModel());
    Rng rng(seed);
    for (int op = 0; op < 4000; ++op) {
      const CycleCharge charge = RandomCharge(rng, mcu.charges());
      const auto tag = static_cast<CostTag>(rng.UniformU64(0, kNumCostTags - 1));
      (void)mcu.ExecuteChargeRun(charge, tag, rng.UniformU64(1, 40));
    }
    *stats = mcu.stats();
  };
  constexpr int kThreads = 4;
  std::array<McuStats, kThreads> threaded;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(run, 11 + t % 2, &threaded[static_cast<std::size_t>(t)]);
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    McuStats alone;
    run(11 + t % 2, &alone);
    EXPECT_GT(alone.reboots, 0u);
    EXPECT_EQ(std::bit_cast<StatsBytes>(threaded[static_cast<std::size_t>(t)]),
              std::bit_cast<StatsBytes>(alone))
        << "thread " << t;
  }
}

// Always-on power that counts its Consume calls; it keeps the +infinity
// inline budget.
class CountingAlwaysOn final : public AlwaysOnPowerModel {
 public:
  ConsumeResult Consume(SimTime now, SimDuration duration, Milliwatts power) override {
    ++consume_calls;
    return AlwaysOnPowerModel::Consume(now, duration, power);
  }

  std::uint64_t consume_calls = 0;
};

TEST(ChargePathTest, DecoratorSeesEveryChargeAndBareModelNone) {
  // On continuous power the bare model completes every charge inline; the
  // decorator's Consume sees each one, a run's operations one by one.
  auto counting = std::make_unique<CountingAlwaysOn>();
  CountingAlwaysOn* const bare_calls = counting.get();
  Mcu bare(std::move(counting), DefaultCostModel());
  auto forwarding =
      std::make_unique<ForwardingPowerModel>(std::make_unique<AlwaysOnPowerModel>());
  ForwardingPowerModel* const wrapped_calls = forwarding.get();
  Mcu wrapped(std::move(forwarding), DefaultCostModel());
  for (Mcu* mcu : {&bare, &wrapped}) {
    EXPECT_EQ(mcu->ExecuteCharge(mcu->charges().monitor_call, CostTag::kMonitor),
              ExecStatus::kOk);
    EXPECT_EQ(mcu->ExecuteChargeRun(mcu->charges().compiled_step, CostTag::kMonitor, 8).done, 8u);
    EXPECT_EQ(mcu->Execute(kMillisecond, 24.0, CostTag::kApp), ExecStatus::kOk);
  }
  EXPECT_EQ(bare_calls->consume_calls, 0u);
  EXPECT_EQ(wrapped_calls->consume_calls, 10u);
  EXPECT_EQ(std::bit_cast<StatsBytes>(bare.stats()), std::bit_cast<StatsBytes>(wrapped.stats()));
}

// ------------------------------------------------ charges come from the Mcu --
// Every call site charges from its Mcu's set, never from the default one. A
// health device on another cost model, with a flight ring, per checker (a
// monitor set of each backend, and Mayfly), asks its power model only for
// durations of a task's work or of a charge of that model. No charge of the
// default model lasts as long as any of those, so a call site charging from
// CycleCharges::Default() would show.

// Records the duration of every Consume and forwards everything; keeps the
// NaN budget, so every charge reaches Consume.
class RecordingPowerModel final : public PowerModel {
 public:
  RecordingPowerModel(std::unique_ptr<PowerModel> inner, std::set<SimDuration>* durations)
      : inner_(std::move(inner)), durations_(durations) {}

  ConsumeResult Consume(SimTime now, SimDuration duration, Milliwatts power) override {
    durations_->insert(duration);
    return inner_->Consume(now, duration, power);
  }
  void NotifyReboot(SimTime now) override { inner_->NotifyReboot(now); }
  double StoredEnergyFraction() const override { return inner_->StoredEnergyFraction(); }
  std::string Name() const override { return inner_->Name(); }

 private:
  std::unique_ptr<PowerModel> inner_;
  std::set<SimDuration>* durations_;
};

// The durations of the charges of `charges`: the named ones and the commits.
std::set<SimDuration> ChargeDurations(const CycleCharges& charges) {
  std::set<SimDuration> durations;
  for (const auto& [charge, cycles] : NamedCharges(charges)) {
    durations.insert(charge.duration);
  }
  for (const CycleCharge& commit : charges.commits) {
    durations.insert(commit.duration);
  }
  return durations;
}

TEST(ChargeSourceTest, EveryChargeOnAnotherModelIsOneOfThatModels) {
  const HealthApp app = BuildHealthApp();
  const SpecAst spec = SpecParser::Parse(HealthAppSpec()).value();
  std::set<SimDuration> allowed = ChargeDurations(CycleCharges(OtherCostModel()));
  for (TaskId task = 0; task < app.graph.task_count(); ++task) {
    allowed.insert(app.graph.task(task).work.duration);
  }
  for (const SimDuration duration : ChargeDurations(CycleCharges::Default())) {
    EXPECT_EQ(allowed.count(duration), 0u)
        << "a default charge of " << duration << " us looks like the other device's";
  }
  // A monitor set of each backend, then Mayfly.
  for (const std::optional<MonitorBackend> backend :
       {std::optional(MonitorBackend::kInterpreted), std::optional(MonitorBackend::kBuiltin),
        std::optional(MonitorBackend::kCompiled), std::optional<MonitorBackend>()}) {
    const std::string checker = backend.has_value() ? MonitorBackendName(*backend) : "mayfly";
    std::set<SimDuration> durations;
    Mcu mcu(std::make_unique<RecordingPowerModel>(
                std::make_unique<FixedChargePowerModel>(6'000.0, 6 * kMinute), &durations),
            OtherCostModel());
    flight::FlightRecorder recorder(512, flight::FlightLevel::kFull);
    ASSERT_TRUE(mcu.AttachFlightRecorder(&recorder).ok());
    KernelOptions options;
    options.max_wall_time = 3 * kHour;  // Mayfly does not complete the app.
    options.flight = &recorder;
    std::uint64_t violations = 0;
    KernelRunResult run;
    if (backend.has_value()) {
      std::unique_ptr<MonitorSet> set = BuildMonitorSet(spec, app.graph, *backend).value();
      set->set_flight(&recorder);
      IntermittentKernel kernel(&app.graph, set.get(), &mcu, options);
      run = kernel.Run();
      violations = set->violations_reported();
    } else {
      StatusOr<std::unique_ptr<MayflyRuntime>> mayfly =
          MayflyRuntime::Create(&app.graph, spec, &mcu, options);
      ASSERT_TRUE(mayfly.ok()) << mayfly.status().ToString();
      run = mayfly.value()->Run();
    }
    EXPECT_GT(run.stats.reboots, 0u) << checker;
    EXPECT_GT(recorder.stats().records_sealed, 0u) << checker;
    if (backend.has_value()) {
      EXPECT_GT(violations, 0u) << checker;
    }
    for (const SimDuration duration : durations) {
      EXPECT_EQ(allowed.count(duration), 1u) << checker << " charged " << duration << " us";
    }
  }
}

}  // namespace
}  // namespace artemis
