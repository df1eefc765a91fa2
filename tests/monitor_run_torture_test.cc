// Torture test for run charging in the monitor machine loop.
//
// MonitorSet and the fleet's CaptureChecker charge each run of machines
// with equal step cycles with one Mcu::ExecuteCyclesRun, then step only the
// charged prefix. Against the per-machine loop that charging replaced, a
// power failure at every machine offset of a health event, before and after
// the reboot it causes, must leave everything equal: each delivery's status
// and arbitrated verdict, the continuation cursor (every machine steps once
// per event), McuStats to the bit, the stored energy, clocks and reboots.
#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "src/apps/health_app.h"
#include "src/fleet/instance.h"
#include "src/monitor/arbitration.h"
#include "src/monitor/monitor_set.h"
#include "src/sim/cost_model.h"
#include "src/sim/mcu.h"
#include "src/sim/power_model.h"
#include "src/spec/parser.h"

namespace artemis {
namespace {

// The per-machine loop: charge one machine with ExecuteCycles, then step
// it. Around the loop it mirrors MonitorSet::OnEvent without the bus and
// flight hooks; `machines` only lends its monitors.
class PerMachineReference {
 public:
  PerMachineReference(std::unique_ptr<MonitorSet> machines, MonitorPlacement placement)
      : machines_(std::move(machines)), placement_(placement) {}

  CheckOutcome OnEvent(const MonitorEvent& event, Mcu& mcu) {
    CheckOutcome outcome;
    outcome.status = static_cast<int>(ChargeCrossing(mcu));
    if (outcome.status != 0) {
      return outcome;
    }
    if (has_cached_ && event.seq == done_seq_) {
      outcome.verdict = cached_;
      return outcome;
    }
    if (!in_progress_ || item_ != event.seq) {
      in_progress_ = true;
      item_ = event.seq;
      cursor_ = 0;
      pending_.clear();
    }
    const CostTag tag =
        placement_ == MonitorPlacement::kInlined ? CostTag::kRuntime : CostTag::kMonitor;
    for (; cursor_ < machines_->size(); ++cursor_) {
      Monitor& machine = machines_->monitor(cursor_);
      if (placement_ != MonitorPlacement::kRemote) {
        const ExecStatus step = mcu.ExecuteCycles(machine.StepCycles(mcu.costs()), tag);
        if (step != ExecStatus::kOk) {
          outcome.status = static_cast<int>(step);
          return outcome;
        }
      }
      MonitorVerdict verdict;
      if (machine.Step(event, &verdict)) {
        pending_.push_back(verdict);
      }
    }
    in_progress_ = false;
    has_cached_ = true;
    done_seq_ = event.seq;
    cached_ = Arbitrate(pending_, ArbitrationPolicy::kSeverity);
    ++events_processed_;
    outcome.verdict = cached_;
    return outcome;
  }

  void Finalize(Mcu& mcu) const {
    if (in_progress_) {
      mcu.ExecuteCycles(mcu.costs().timestamp_read_cycles, CostTag::kMonitor);
    }
  }

  bool in_progress() const { return in_progress_; }
  std::size_t cursor() const { return cursor_; }
  std::uint64_t events_processed() const { return events_processed_; }
  MonitorSet& machines() { return *machines_; }

 private:
  ExecStatus ChargeCrossing(Mcu& mcu) const {
    const RadioProfile radio{};
    switch (placement_) {
      case MonitorPlacement::kSeparate:
        return mcu.ExecuteCycles(mcu.costs().monitor_call_cycles, CostTag::kMonitor);
      case MonitorPlacement::kInlined:
        return ExecStatus::kOk;
      case MonitorPlacement::kRemote:
        break;
    }
    const ExecStatus tx = mcu.Execute(radio.tx_time, radio.tx_power, CostTag::kMonitor);
    return tx != ExecStatus::kOk ? tx
                                 : mcu.Execute(radio.rx_time, radio.rx_power, CostTag::kMonitor);
  }

  std::unique_ptr<MonitorSet> machines_;
  MonitorPlacement placement_;
  bool in_progress_ = false;
  std::uint64_t item_ = 0;
  std::size_t cursor_ = 0;
  std::vector<MonitorVerdict> pending_;
  bool has_cached_ = false;
  std::uint64_t done_seq_ = 0;
  MonitorVerdict cached_;
  std::uint64_t events_processed_ = 0;
};

// One checker under test: a MonitorSet per backend and placement, or the
// fleet's CaptureChecker over compiled step cycles (it charges like a
// separate compiled MonitorSet and never returns a verdict).
struct Config {
  const char* name;
  MonitorBackend backend;
  MonitorPlacement placement;
  bool capture;
};

void PrintTo(const Config& config, std::ostream* os) { *os << config.name; }

std::unique_ptr<MonitorSet> HealthMonitors(const HealthApp& app, const Config& config) {
  const StatusOr<SpecAst> spec = SpecParser::Parse(HealthAppSpec());
  return std::move(BuildMonitorSet(spec.value(), app.graph, config.backend, {},
                                   MonitorSetOptions{.placement = config.placement}))
      .value();
}

// Step cycles of the health set's machines under `config`, which are the
// same for all eight.
double HealthStepCycles(const Config& config) {
  const std::unique_ptr<MonitorSet> set = HealthMonitors(BuildHealthApp(), config);
  return set->monitor(0).StepCycles(DefaultCostModel());
}

EnergyUj CyclesEnergy(double cycles) {
  const CostModel& costs = DefaultCostModel();
  return EnergyFor(costs.mcu_active_power, costs.CyclesToTime(cycles));
}

// Energy of the interface crossing that precedes an event's machine loop.
EnergyUj CrossingEnergy(MonitorPlacement placement) {
  const RadioProfile radio{};
  switch (placement) {
    case MonitorPlacement::kSeparate:
      return CyclesEnergy(DefaultCostModel().monitor_call_cycles);
    case MonitorPlacement::kInlined:
      return 0.0;
    case MonitorPlacement::kRemote:
      break;
  }
  return EnergyFor(radio.tx_power, radio.tx_time) + EnergyFor(radio.rx_power, radio.rx_time);
}

// The device under test and the reference device, identical at the start.
struct Rig {
  Rig(const Config& config, std::unique_ptr<PowerModel> run_power,
      std::unique_ptr<PowerModel> ref_power)
      : app(BuildHealthApp()),
        ref(HealthMonitors(app, config), config.placement),
        run_mcu(std::make_unique<Mcu>(std::move(run_power), DefaultCostModel())),
        ref_mcu(std::make_unique<Mcu>(std::move(ref_power), DefaultCostModel())) {
    set = HealthMonitors(app, config);
    if (config.capture) {
      capture = std::make_unique<fleet::CaptureChecker>(
          std::vector<double>(set->size(), DefaultCostModel().compiled_step_cycles),
          set->FramBytes());
      checker = capture.get();
    } else {
      checker = set.get();
    }
    checker->HardReset(*run_mcu);
    ref.machines().HardReset(*ref_mcu);
  }

  std::uint64_t events_processed() const {
    return capture != nullptr ? capture->events_captured() : set->events_processed();
  }

  HealthApp app;
  std::unique_ptr<MonitorSet> set;
  std::unique_ptr<fleet::CaptureChecker> capture;
  PropertyChecker* checker = nullptr;
  PerMachineReference ref;
  std::unique_ptr<Mcu> run_mcu;
  std::unique_ptr<Mcu> ref_mcu;
  // The reference's cursor after each power failure: the machine that did
  // not get charged.
  std::vector<std::size_t> failed_at;
};

void ExpectSameDevice(Mcu& run, Mcu& ref, const std::string& where) {
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

// Delivers `event` to both devices until it completes, as the kernel does:
// after a power failure the checker's Finalize runs at boot and the same
// event (same seq) is delivered again. Returns the last outcome under test.
CheckOutcome Deliver(Rig& rig, const MonitorEvent& event, const std::string& where) {
  constexpr int kMaxDeliveries = 32;
  CheckOutcome run;
  for (int delivery = 0; delivery < kMaxDeliveries; ++delivery) {
    const std::string at = where + " delivery " + std::to_string(delivery);
    run = rig.checker->OnEvent(event, *rig.run_mcu);
    const CheckOutcome ref = rig.ref.OnEvent(event, *rig.ref_mcu);
    EXPECT_EQ(run.status, ref.status) << at;
    const MonitorVerdict expected = rig.capture != nullptr ? MonitorVerdict{} : ref.verdict;
    EXPECT_EQ(run.verdict.action, expected.action) << at;
    EXPECT_EQ(run.verdict.target_path, expected.target_path) << at;
    EXPECT_EQ(run.verdict.property, expected.property) << at;
    if (rig.set != nullptr && rig.capture == nullptr) {
      EXPECT_EQ(rig.set->quiescent(), !rig.ref.in_progress()) << at;
    }
    ExpectSameDevice(*rig.run_mcu, *rig.ref_mcu, at);
    if (ref.status != static_cast<int>(ExecStatus::kPowerFailure)) {
      return run;
    }
    rig.failed_at.push_back(rig.ref.cursor());
    rig.checker->Finalize(*rig.run_mcu);
    rig.ref.Finalize(*rig.ref_mcu);
  }
  ADD_FAILURE() << where << ": no completion after " << kMaxDeliveries << " deliveries";
  return run;
}

MonitorEvent Event(EventKind kind, TaskId task, PathId path, std::uint64_t seq, SimTime at) {
  MonitorEvent e;
  e.kind = kind;
  e.task = task;
  e.path = path;
  e.seq = seq;
  e.timestamp = at;
  e.energy_fraction = 1.0;
  return e;
}

MonitorEvent Start(TaskId task, PathId path, std::uint64_t seq) {
  return Event(EventKind::kStartTask, task, path, seq, static_cast<SimTime>(seq) * kSecond);
}

// Eleven accel starts: accel's maxTries: 10 fires on the eleventh only if
// its counter advanced exactly once per event. Then accel ends, send starts
// in time, and send starts again 20 minutes later, which fails both send's
// MITD (restartPath) and its maxDuration (skipTask), so arbitration picks
// between two machines.
void DeliverHealthEvents(Rig& rig, const std::string& where) {
  const HealthApp& app = rig.app;
  for (std::uint64_t seq = 1; seq <= 11; ++seq) {
    const std::string at = where + " seq " + std::to_string(seq);
    const CheckOutcome outcome = Deliver(rig, Start(app.accel, app.path_resp, seq), at);
    if (rig.capture == nullptr) {
      EXPECT_EQ(outcome.verdict.violated(), seq == 11) << at;
    }
  }
  (void)Deliver(rig, Event(EventKind::kEndTask, app.accel, app.path_resp, 12, 12 * kSecond),
                where + " seq 12");
  (void)Deliver(rig, Start(app.send, app.path_resp, 13), where + " seq 13");
  const CheckOutcome late =
      Deliver(rig, Event(EventKind::kStartTask, app.send, app.path_resp, 14, 20 * kMinute),
              where + " seq 14");
  if (rig.capture == nullptr) {
    EXPECT_EQ(late.verdict.action, ActionType::kRestartPath) << where << " seq 14";
  }
  EXPECT_EQ(rig.events_processed(), 14u) << where;
  EXPECT_EQ(rig.events_processed(), rig.ref.events_processed()) << where;
}

class MachineLoopTortureTest : public ::testing::TestWithParam<Config> {};

TEST_P(MachineLoopTortureTest, PowerFailsAtEveryMachineOffsetLikePerMachineCharging) {
  const Config& config = GetParam();
  const CostModel& costs = DefaultCostModel();
  const std::unique_ptr<MonitorSet> probe = HealthMonitors(BuildHealthApp(), config);
  const std::size_t machines = probe->size();
  ASSERT_EQ(machines, 8u);
  const double step_cycles = probe->monitor(0).StepCycles(costs);
  for (std::size_t i = 1; i < machines; ++i) {
    ASSERT_EQ(probe->monitor(i).StepCycles(costs), step_cycles) << "one run per event";
  }
  const EnergyUj step = CyclesEnergy(step_cycles);
  const EnergyUj boot = CyclesEnergy(costs.reboot_restore_cycles) +
                        CyclesEnergy(costs.timestamp_read_cycles);
  const EnergyUj crossing = CrossingEnergy(config.placement);
  for (std::size_t offset = 0; offset <= machines; ++offset) {
    for (std::size_t per_life = 1; per_life <= machines; ++per_life) {
      // Every power life after a reboot pays the boot restore and Finalize's
      // cursor read, crosses into the monitor and charges `per_life`
      // machines and half of the next. The first life is drained up front so
      // that it fails at machine `offset` of the first event; each reboot
      // after that fails `per_life` machines further on.
      const EnergyUj budget = boot + crossing + (static_cast<double>(per_life) + 0.5) * step;
      Rig rig(config, std::make_unique<FixedChargePowerModel>(budget, kMinute),
              std::make_unique<FixedChargePowerModel>(budget, kMinute));
      const EnergyUj drain =
          budget - crossing - (static_cast<double>(offset) + 0.5) * step;
      const auto drain_time = static_cast<SimDuration>(1000.0 * drain / costs.mcu_active_power);
      ASSERT_EQ(rig.run_mcu->Execute(drain_time, costs.mcu_active_power, CostTag::kApp),
                ExecStatus::kOk);
      ASSERT_EQ(rig.ref_mcu->Execute(drain_time, costs.mcu_active_power, CostTag::kApp),
                ExecStatus::kOk);
      const std::string where = std::string(config.name) + " offset " + std::to_string(offset) +
                                " per-life " + std::to_string(per_life);
      DeliverHealthEvents(rig, where);
      EXPECT_GT(rig.run_mcu->stats().reboots, 0u) << where;
      ASSERT_FALSE(rig.failed_at.empty()) << where;
      if (config.placement != MonitorPlacement::kRemote && offset < machines) {
        EXPECT_EQ(rig.failed_at[0], offset) << where;
        if (offset + per_life < machines) {
          EXPECT_EQ(rig.failed_at[1], offset + per_life) << where << " rebooted";
        }
      }
      if (HasFailure()) {
        return;  // One failing combination explains the rest.
      }
    }
  }
}

// Time of the interface crossing that precedes an event's machine loop.
SimDuration CrossingTime(MonitorPlacement placement) {
  const RadioProfile radio{};
  switch (placement) {
    case MonitorPlacement::kSeparate:
      return DefaultCostModel().CyclesToTime(DefaultCostModel().monitor_call_cycles);
    case MonitorPlacement::kInlined:
      return 0;
    case MonitorPlacement::kRemote:
      break;
  }
  return radio.tx_time + radio.rx_time;
}

TEST_P(MachineLoopTortureTest, ModelWithoutRunsChargesLikePerMachineCharging) {
  // StochasticPowerModel proves no run, so every machine is charged on its
  // own. Mean on-times of a boot restore plus four events put failures
  // inside about half of the events.
  const Config& config = GetParam();
  const CostModel& costs = DefaultCostModel();
  const SimDuration event =
      CrossingTime(config.placement) + 8 * costs.CyclesToTime(HealthStepCycles(config));
  const SimDuration mean_on = costs.CyclesToTime(costs.reboot_restore_cycles) + 4 * event;
  std::uint64_t reboots = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rig rig(config, std::make_unique<StochasticPowerModel>(mean_on, kSecond, seed),
            std::make_unique<StochasticPowerModel>(mean_on, kSecond, seed));
    DeliverHealthEvents(rig, std::string(config.name) + " seed " + std::to_string(seed));
    reboots += rig.run_mcu->stats().reboots;
  }
  EXPECT_GT(reboots, 0u);
}

TEST_P(MachineLoopTortureTest, BudgetBelowBootRestoreStarvesLikePerMachineCharging) {
  // The first life fits the crossing and two and a half machines; the boot
  // restore after the failure never fits, so the device starves inside the
  // machine loop. The radio alone outweighs a boot restore, so a remote set
  // starves at the crossing.
  const Config& config = GetParam();
  const CostModel& costs = DefaultCostModel();
  const EnergyUj restore = CyclesEnergy(costs.reboot_restore_cycles);
  const EnergyUj budget =
      config.placement == MonitorPlacement::kRemote
          ? 0.5 * restore
          : CrossingEnergy(config.placement) + 2.5 * CyclesEnergy(HealthStepCycles(config));
  ASSERT_LT(budget, restore);
  Rig rig(config, std::make_unique<FixedChargePowerModel>(budget, kMinute),
          std::make_unique<FixedChargePowerModel>(budget, kMinute));
  const CheckOutcome outcome =
      Deliver(rig, Start(rig.app.accel, rig.app.path_resp, 1), config.name);
  EXPECT_EQ(outcome.status, static_cast<int>(ExecStatus::kStarved));
  EXPECT_TRUE(rig.run_mcu->starved());
}

INSTANTIATE_TEST_SUITE_P(
    Placements, MachineLoopTortureTest,
    ::testing::Values(
        Config{"builtin_separate", MonitorBackend::kBuiltin, MonitorPlacement::kSeparate, false},
        Config{"builtin_inlined", MonitorBackend::kBuiltin, MonitorPlacement::kInlined, false},
        Config{"builtin_remote", MonitorBackend::kBuiltin, MonitorPlacement::kRemote, false},
        Config{"compiled_separate", MonitorBackend::kCompiled, MonitorPlacement::kSeparate,
               false},
        Config{"compiled_inlined", MonitorBackend::kCompiled, MonitorPlacement::kInlined, false},
        Config{"compiled_remote", MonitorBackend::kCompiled, MonitorPlacement::kRemote, false},
        Config{"interpreted_separate", MonitorBackend::kInterpreted,
               MonitorPlacement::kSeparate, false},
        Config{"interpreted_inlined", MonitorBackend::kInterpreted, MonitorPlacement::kInlined,
               false},
        Config{"interpreted_remote", MonitorBackend::kInterpreted, MonitorPlacement::kRemote,
               false},
        Config{"capture", MonitorBackend::kCompiled, MonitorPlacement::kSeparate, true}),
    [](const ::testing::TestParamInfo<Config>& row) { return std::string(row.param.name); });

// Counts the power-model calls an event costs; forwards everything.
class CountingPowerModel final : public PowerModel {
 public:
  explicit CountingPowerModel(std::unique_ptr<PowerModel> inner) : inner_(std::move(inner)) {}

  ConsumeResult Consume(SimTime now, SimDuration duration, Milliwatts power) override {
    ++calls;
    return inner_->Consume(now, duration, power);
  }
  std::size_t ConsumeRun(SimDuration duration, Milliwatts power, std::size_t count) override {
    ++calls;
    return inner_->ConsumeRun(duration, power, count);
  }
  void NotifyReboot(SimTime now) override { inner_->NotifyReboot(now); }
  double StoredEnergyFraction() const override { return inner_->StoredEnergyFraction(); }
  std::string Name() const override { return inner_->Name(); }

  std::uint64_t calls = 0;

 private:
  std::unique_ptr<PowerModel> inner_;
};

TEST(MachineLoopChargeTest, CompiledHealthEventCostsTwoPowerModelCalls) {
  // The interface crossing plus one run for the eight equal-cost machines;
  // the per-machine loop makes one call for the crossing and one per
  // machine.
  const Config config{"compiled_separate", MonitorBackend::kCompiled,
                      MonitorPlacement::kSeparate, false};
  auto run_power = std::make_unique<CountingPowerModel>(
      std::make_unique<FixedChargePowerModel>(19'500.0, kMinute));
  auto ref_power = std::make_unique<CountingPowerModel>(
      std::make_unique<FixedChargePowerModel>(19'500.0, kMinute));
  CountingPowerModel* const run_calls = run_power.get();
  CountingPowerModel* const ref_calls = ref_power.get();
  Rig rig(config, std::move(run_power), std::move(ref_power));
  const std::uint64_t run_before = run_calls->calls;
  const std::uint64_t ref_before = ref_calls->calls;
  const CheckOutcome outcome =
      Deliver(rig, Start(rig.app.accel, rig.app.path_resp, 1), "one event");
  EXPECT_EQ(outcome.status, 0);
  EXPECT_EQ(run_calls->calls - run_before, 2u);
  EXPECT_EQ(ref_calls->calls - ref_before, 9u);
}

}  // namespace
}  // namespace artemis
