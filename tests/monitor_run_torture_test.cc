// Torture test for run charging in the monitor machine loop.
//
// MonitorSet and the fleet's CaptureChecker charge an event's machines with
// one Mcu::ExecuteChargeRun of the backend's step charge, then step only the
// charged prefix, and of it only the machines that can react to the event.
// Against the per-machine loop that charges and steps every machine, a
// power failure at every machine offset of a health event, before and after
// the reboot it causes, must leave everything equal: each delivery's status
// and arbitrated verdict, the continuation cursor (every machine steps once
// per event), McuStats to the bit, the stored energy, clocks and reboots.
// The reacting-machine oracle at the end does the same for random event
// streams over every shipped spec.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/apps/health_app.h"
#include "src/base/rng.h"
#include "src/fleet/instance.h"
#include "src/monitor/arbitration.h"
#include "src/monitor/builtin.h"
#include "src/monitor/compiled.h"
#include "src/monitor/interp.h"
#include "src/monitor/monitor_set.h"
#include "src/sim/cost_model.h"
#include "src/sim/mcu.h"
#include "src/sim/power_model.h"
#include "src/spec/app_lang.h"
#include "src/spec/parser.h"

#ifndef ARTEMIS_SOURCE_DIR
#define ARTEMIS_SOURCE_DIR "."
#endif

namespace artemis {
namespace {

// The per-machine loop: charge one machine its backend's step with
// ExecuteCharge, then step it. Around the loop it mirrors
// MonitorSet::OnEvent without the bus and flight hooks; `machines` only
// lends its monitors.
class PerMachineReference {
 public:
  PerMachineReference(std::unique_ptr<MonitorSet> machines, MonitorBackend backend,
                      MonitorPlacement placement)
      : machines_(std::move(machines)), backend_(backend), placement_(placement) {}

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
        const ExecStatus step = mcu.ExecuteCharge(StepCharge(backend_, mcu.charges()), tag);
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
      mcu.ExecuteCharge(mcu.charges().timestamp_read, CostTag::kMonitor);
    }
  }

  void OnPathRestart(PathId path, Mcu& mcu) {
    const CostTag tag =
        placement_ == MonitorPlacement::kInlined ? CostTag::kRuntime : CostTag::kMonitor;
    mcu.ExecuteCharge(mcu.charges().action_apply, tag);
    for (std::size_t i = 0; i < machines_->size(); ++i) {
      machines_->monitor(i).OnPathRestart(path);
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
        return mcu.ExecuteCharge(mcu.charges().monitor_call, CostTag::kMonitor);
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
  MonitorBackend backend_;
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

std::unique_ptr<MonitorSet> Monitors(const SpecAst& spec, const AppGraph& graph,
                                     const Config& config) {
  return std::move(BuildMonitorSet(spec, graph, config.backend,
                                   MonitorSetOptions{.placement = config.placement}))
      .value();
}

const SpecAst& HealthSpec() {
  static const SpecAst spec = SpecParser::Parse(HealthAppSpec()).value();
  return spec;
}

std::unique_ptr<MonitorSet> HealthMonitors(const HealthApp& app, const Config& config) {
  return Monitors(HealthSpec(), app.graph, config);
}

// The charge of one machine step under `config` on the default cost model.
const CycleCharge& Step(const Config& config) {
  return StepCharge(config.backend, CycleCharges::Default());
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
  // The health spec on the health app.
  Rig(const Config& config, std::unique_ptr<PowerModel> run_power,
      std::unique_ptr<PowerModel> ref_power)
      : Rig(config, HealthSpec(), nullptr, std::move(run_power), std::move(ref_power)) {}
  // `spec` on `graph`, or on the rig's health app when `graph` is null.
  Rig(const Config& config, const SpecAst& spec, const AppGraph* graph,
      std::unique_ptr<PowerModel> run_power, std::unique_ptr<PowerModel> ref_power)
      : app(BuildHealthApp()),
        ref(Monitors(spec, graph != nullptr ? *graph : app.graph, config), config.backend,
            config.placement),
        run_mcu(std::make_unique<Mcu>(std::move(run_power), DefaultCostModel())),
        ref_mcu(std::make_unique<Mcu>(std::move(ref_power), DefaultCostModel())) {
    set = Monitors(spec, graph != nullptr ? *graph : app.graph, config);
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
      EXPECT_EQ(rig.set->cursor(), rig.ref.in_progress() ? rig.ref.cursor() : 0) << at;
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
  const std::size_t machines = HealthMonitors(BuildHealthApp(), config)->size();
  ASSERT_EQ(machines, 8u);
  const EnergyUj step = Step(config).energy;
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
      CrossingTime(config.placement) + 8 * Step(config).duration;
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
          : CrossingEnergy(config.placement) + 2.5 * Step(config).energy;
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

// Fixed-charge power that counts its Consume calls. It keeps the model's
// inline budget, so it only sees the charges the Mcu cannot complete inline.
class CountingFixedCharge final : public FixedChargePowerModel {
 public:
  using FixedChargePowerModel::FixedChargePowerModel;

  ConsumeResult Consume(SimTime now, SimDuration duration, Milliwatts power) override {
    ++calls;
    return FixedChargePowerModel::Consume(now, duration, power);
  }

  std::uint64_t calls = 0;
};

// A decorator that counts the power-model calls and forwards everything. It
// does not opt in to inline charging, so every charge reaches Consume.
class CountingPowerModel final : public PowerModel {
 public:
  explicit CountingPowerModel(std::unique_ptr<PowerModel> inner) : inner_(std::move(inner)) {}

  ConsumeResult Consume(SimTime now, SimDuration duration, Milliwatts power) override {
    ++calls;
    return inner_->Consume(now, duration, power);
  }
  void NotifyReboot(SimTime now) override { inner_->NotifyReboot(now); }
  double StoredEnergyFraction() const override { return inner_->StoredEnergyFraction(); }
  std::string Name() const override { return inner_->Name(); }

  std::uint64_t calls = 0;

 private:
  std::unique_ptr<PowerModel> inner_;
};

const Config kCompiledSeparate{"compiled_separate", MonitorBackend::kCompiled,
                               MonitorPlacement::kSeparate, false};

TEST(MachineLoopChargeTest, CompiledHealthEventMakesNoPowerModelCall) {
  // The interface crossing and the eight machines all fit the fixed-charge
  // budget, so they complete inline. The per-machine reference sits behind
  // a decorator that does not opt in: one Consume for the crossing and one
  // per machine.
  auto run_power = std::make_unique<CountingFixedCharge>(19'500.0, kMinute);
  auto ref_power = std::make_unique<CountingPowerModel>(
      std::make_unique<FixedChargePowerModel>(19'500.0, kMinute));
  CountingFixedCharge* const run_calls = run_power.get();
  CountingPowerModel* const ref_calls = ref_power.get();
  Rig rig(kCompiledSeparate, std::move(run_power), std::move(ref_power));
  const CheckOutcome outcome =
      Deliver(rig, Start(rig.app.accel, rig.app.path_resp, 1), "one event");
  EXPECT_EQ(outcome.status, 0);
  EXPECT_EQ(run_calls->calls, 0u);
  EXPECT_EQ(ref_calls->calls, 9u);
}

TEST(MachineLoopChargeTest, PowerFailureInsideAnEventMakesTwoPowerModelCalls) {
  // The first life fits the crossing and four and a half machines. The
  // fifth machine's charge does not fit: Consume fails it, and the boot
  // restore after the outage is the second call. Finalize's cursor read and
  // the re-delivered event then complete inline. The reference makes one
  // call per charge: crossing, four machines, the failing one, the restore,
  // the cursor read, the second crossing and the last four machines.
  const CostModel& costs = DefaultCostModel();
  const EnergyUj step = CyclesEnergy(costs.compiled_step_cycles);
  const EnergyUj crossing = CrossingEnergy(MonitorPlacement::kSeparate);
  const EnergyUj boot = CyclesEnergy(costs.reboot_restore_cycles) +
                        CyclesEnergy(costs.timestamp_read_cycles);
  const EnergyUj budget = boot + crossing + 8.5 * step;
  auto run_power = std::make_unique<CountingFixedCharge>(budget, kMinute);
  auto ref_power = std::make_unique<CountingPowerModel>(
      std::make_unique<FixedChargePowerModel>(budget, kMinute));
  CountingFixedCharge* const run_calls = run_power.get();
  CountingPowerModel* const ref_calls = ref_power.get();
  Rig rig(kCompiledSeparate, std::move(run_power), std::move(ref_power));
  const auto drain = static_cast<SimDuration>(1000.0 * (budget - crossing - 4.5 * step) /
                                              costs.mcu_active_power);
  ASSERT_EQ(rig.run_mcu->Execute(drain, costs.mcu_active_power, CostTag::kApp), ExecStatus::kOk);
  ASSERT_EQ(rig.ref_mcu->Execute(drain, costs.mcu_active_power, CostTag::kApp), ExecStatus::kOk);
  const std::uint64_t ref_before = ref_calls->calls;
  const CheckOutcome outcome =
      Deliver(rig, Start(rig.app.accel, rig.app.path_resp, 1), "failing event");
  EXPECT_EQ(outcome.status, 0);
  ASSERT_EQ(rig.failed_at, std::vector<std::size_t>{4});
  EXPECT_EQ(run_calls->calls, 2u);
  EXPECT_EQ(ref_calls->calls - ref_before, 13u);
}

// ------------------------------------------------- reacting-machine oracle --
// MonitorSet charges every machine of an event but steps only those whose
// Step can react to the event's (kind, task) (Monitor::Reacts); the
// reference steps every machine. For every shipped examples/specs/*.prop,
// every backend and every placement, random event streams under power
// failures must leave both with the same outcomes, verdict text, cursors
// and machine states.

// A shipped spec and the app it is written for: `<stem>.app` next to it, or
// the health app.
struct ShippedSpec {
  std::string name;
  SpecAst spec;
  std::shared_ptr<const AppGraph> graph;
};

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

const std::vector<ShippedSpec>& ShippedSpecs() {
  static const std::vector<ShippedSpec> specs = [] {
    const std::filesystem::path dir = std::filesystem::path(ARTEMIS_SOURCE_DIR) / "examples/specs";
    std::vector<std::filesystem::path> files;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      if (entry.path().extension() == ".prop") {
        files.push_back(entry.path());
      }
    }
    std::sort(files.begin(), files.end());
    std::vector<ShippedSpec> out;
    for (const std::filesystem::path& file : files) {
      ShippedSpec shipped;
      shipped.name = file.stem().string();
      shipped.spec = SpecParser::Parse(ReadFile(file)).value();
      std::filesystem::path app = file;
      app.replace_extension(".app");
      shipped.graph = std::make_shared<const AppGraph>(
          std::filesystem::exists(app) ? ParseAppDescription(ReadFile(app)).value().graph
                                       : BuildHealthApp().graph);
      out.push_back(std::move(shipped));
    }
    return out;
  }();
  return specs;
}

// A task id far past every app and past MonitorSet's cached reactor
// columns.
constexpr TaskId kFarTask = 5000;

// Every (kind, task) column an app's events can land on, plus one task id
// just past the app and kFarTask.
std::vector<std::pair<EventKind, TaskId>> Columns(const AppGraph& graph) {
  std::vector<std::pair<EventKind, TaskId>> columns;
  for (const EventKind kind : {EventKind::kStartTask, EventKind::kEndTask}) {
    for (TaskId task = 0; task <= graph.task_count(); ++task) {
      columns.emplace_back(kind, task);
    }
    columns.emplace_back(kind, kFarTask);
  }
  return columns;
}

// A random event after `*now`: any column, any path (0 = none), a time gap
// from back-to-back to past every shipped time limit, dependent data in and
// out of every shipped range, and any stored-energy fraction.
MonitorEvent RandomEvent(Rng& rng, const AppGraph& graph, std::uint64_t seq, SimTime* now) {
  const std::vector<std::pair<EventKind, TaskId>> columns = Columns(graph);
  const SimDuration gaps[] = {0, kMillisecond, 300 * kMillisecond, 10 * kSecond,
                              3 * kMinute, 7 * kMinute, 30 * kMinute};
  *now += gaps[rng.UniformU64(0, std::size(gaps) - 1)];
  const auto [kind, task] = columns[rng.UniformU64(0, columns.size() - 1)];
  MonitorEvent event = Event(kind, task, static_cast<PathId>(rng.UniformU64(0, graph.path_count())),
                             seq, *now);
  event.has_dep_data = rng.UniformU64(0, 3) != 0;
  event.dep_data = rng.UniformDouble(-30.0, 120.0);
  event.energy_fraction = rng.NextDouble();
  return event;
}

// Events that tell two builtin machines' states apart: every column and
// path at a short, a long and a very long gap after `now`, with dependent
// data and stored energy at both extremes.
std::vector<MonitorEvent> ProbeEvents(const AppGraph& graph, SimTime now) {
  std::vector<MonitorEvent> probe;
  const SimDuration gaps[] = {kMillisecond, 11 * kMinute, 45 * kMinute};
  for (const SimDuration gap : gaps) {
    now += gap;
    for (const auto& [kind, task] : Columns(graph)) {
      for (PathId path = 0; path <= graph.path_count(); ++path) {
        MonitorEvent event = Event(kind, task, path, 0, now);
        event.has_dep_data = true;
        event.dep_data = probe.size() % 2 == 0 ? -1000.0 : 1000.0;
        event.energy_fraction = probe.size() % 3 == 0 ? 0.01 : 1.0;
        probe.push_back(event);
      }
    }
  }
  return probe;
}

template <class... Kinds>
std::unique_ptr<Monitor> CloneAs(const Monitor& machine) {
  std::unique_ptr<Monitor> clone;
  (void)((dynamic_cast<const Kinds*>(&machine) != nullptr &&
          (clone = std::make_unique<Kinds>(dynamic_cast<const Kinds&>(machine)), true)) ||
         ...);
  return clone;
}

std::unique_ptr<Monitor> Clone(const Monitor& machine) {
  std::unique_ptr<Monitor> clone =
      CloneAs<CompiledMonitor, InterpretedMonitor, MaxTriesMonitor, MaxDurationMonitor,
              CollectMonitor, MitdMonitor, PeriodMonitor, DpDataMonitor, MinEnergyMonitor>(
          machine);
  EXPECT_NE(clone, nullptr) << "unknown monitor class for " << machine.label();
  return clone;
}

std::vector<std::uint64_t> Bits(const std::vector<double>& values) {
  std::vector<std::uint64_t> bits;
  for (const double v : values) {
    bits.push_back(std::bit_cast<std::uint64_t>(v));
  }
  return bits;
}

// Compiled and interpreted machines compare their states and variables
// exactly. Builtin machines expose no state, so they compare by behavior:
// clones of both must answer `probe` identically.
void ExpectSameState(const Monitor& a, const Monitor& b, const std::vector<MonitorEvent>& probe,
                     const std::string& where) {
  if (const auto* ca = dynamic_cast<const CompiledMonitor*>(&a)) {
    const auto& cb = dynamic_cast<const CompiledMonitor&>(b);
    EXPECT_EQ(ca->current_id(), cb.current_id()) << where;
    EXPECT_EQ(Bits(ca->slots()), Bits(cb.slots())) << where;
    return;
  }
  if (const auto* ia = dynamic_cast<const InterpretedMonitor*>(&a)) {
    const auto& ib = dynamic_cast<const InterpretedMonitor&>(b);
    EXPECT_EQ(ia->current_state(), ib.current_state()) << where;
    for (const auto& [name, initial] : ia->machine().variables) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(ia->VarValue(name)),
                std::bit_cast<std::uint64_t>(ib.VarValue(name)))
          << where << " variable " << name;
    }
    return;
  }
  const std::unique_ptr<Monitor> ca = Clone(a);
  const std::unique_ptr<Monitor> cb = Clone(b);
  for (std::size_t i = 0; i < probe.size() && !::testing::Test::HasFailure(); ++i) {
    MonitorVerdict va;
    MonitorVerdict vb;
    const bool fa = ca->Step(probe[i], &va);
    const bool fb = cb->Step(probe[i], &vb);
    EXPECT_EQ(fa, fb) << where << " probe " << i;
    if (fa && fb) {
      EXPECT_EQ(va.action, vb.action) << where << " probe " << i;
      EXPECT_EQ(va.target_path, vb.target_path) << where << " probe " << i;
      EXPECT_EQ(va.property, vb.property) << where << " probe " << i;
    }
  }
}

void ExpectSameMachines(Rig& rig, const AppGraph& graph, SimTime now, bool probe_builtin,
                        const std::string& where) {
  const bool builtin = rig.set->size() > 0 &&
                       dynamic_cast<const BuiltinMonitor*>(&rig.set->monitor(0)) != nullptr;
  if (builtin && !probe_builtin) {
    return;
  }
  const std::vector<MonitorEvent> probe = builtin ? ProbeEvents(graph, now)
                                                  : std::vector<MonitorEvent>{};
  for (std::size_t i = 0; i < rig.set->size(); ++i) {
    ExpectSameState(rig.set->monitor(i), rig.ref.machines().monitor(i), probe,
                    where + " machine " + rig.set->monitor(i).label());
  }
}

class ReactingOracleTest : public ::testing::TestWithParam<Config> {};

TEST_P(ReactingOracleTest, SteppingOnlyReactingMachinesMatchesSteppingAll) {
  const Config& config = GetParam();
  const CostModel& costs = DefaultCostModel();
  ASSERT_GE(ShippedSpecs().size(), 2u) << "at least health.prop and sensornet.prop";
  std::uint64_t violations = 0;
  std::uint64_t reboots = 0;
  for (const ShippedSpec& shipped : ShippedSpecs()) {
    const AppGraph& graph = *shipped.graph;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      const std::string where = std::string(config.name) + " " + shipped.name + " seed " +
                                std::to_string(seed);
      Rng rng(seed * 7919 + graph.task_count());
      // Odd seeds run on fixed-charge power whose lives fit the crossing and
      // one to four machines, so events span reboots; even seeds run on
      // continuous power.
      std::unique_ptr<PowerModel> run_power = std::make_unique<AlwaysOnPowerModel>();
      std::unique_ptr<PowerModel> ref_power = std::make_unique<AlwaysOnPowerModel>();
      if (seed % 2 == 1) {
        const EnergyUj step = Step(config).energy;
        const EnergyUj boot = CyclesEnergy(costs.reboot_restore_cycles) +
                              CyclesEnergy(costs.timestamp_read_cycles) +
                              CyclesEnergy(costs.action_apply_cycles);
        const EnergyUj budget = boot + CrossingEnergy(config.placement) +
                                (static_cast<double>(rng.UniformU64(1, 4)) + 0.5) * step;
        run_power = std::make_unique<FixedChargePowerModel>(budget, kMinute);
        ref_power = std::make_unique<FixedChargePowerModel>(budget, kMinute);
      }
      Rig rig(config, shipped.spec, &graph, std::move(run_power), std::move(ref_power));
      SimTime now = kSecond;
      MonitorEvent last;
      const auto deliver = [&](const MonitorEvent& event, const std::string& at) {
        violations += Deliver(rig, event, at).verdict.violated() ? 1 : 0;
      };
      for (std::uint64_t seq = 1; seq <= 150; ++seq) {
        const std::string at = where + " seq " + std::to_string(seq);
        const std::uint64_t roll = rng.UniformU64(0, 9);
        if (roll == 0 && seq > 1) {
          // A boundary retry of the last event replays the cached verdict.
          deliver(last, at + " retry");
        } else if (roll == 1) {
          const auto path = static_cast<PathId>(rng.UniformU64(1, graph.path_count()));
          rig.checker->OnPathRestart(path, *rig.run_mcu);
          rig.ref.OnPathRestart(path, *rig.ref_mcu);
          ExpectSameDevice(*rig.run_mcu, *rig.ref_mcu, at + " path restart");
        }
        last = RandomEvent(rng, graph, seq, &now);
        deliver(last, at);
        ExpectSameMachines(rig, graph, now, seq % 25 == 0, at);
        if (HasFailure()) {
          return;  // One divergence explains the rest.
        }
      }
      ExpectSameMachines(rig, graph, now, true, where + " end");
      EXPECT_EQ(rig.events_processed(), rig.ref.events_processed()) << where;
      reboots += rig.run_mcu->stats().reboots;
    }
  }
  // Both streams did what they are there for.
  EXPECT_GT(violations, 0u);
  if (config.placement != MonitorPlacement::kRemote) {
    EXPECT_GT(reboots, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Placements, ReactingOracleTest,
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
               false}),
    [](const ::testing::TestParamInfo<Config>& row) { return std::string(row.param.name); });

TEST(ReactsClaimTest, NonReactingMachineKeepsItsStateFromEveryReachedState) {
  // Walks each machine through random events and, in every state it
  // reaches, steps a clone with an event of each column the machine claims
  // not to react to: the step must report nothing and change nothing.
  for (const MonitorBackend backend :
       {MonitorBackend::kBuiltin, MonitorBackend::kInterpreted, MonitorBackend::kCompiled}) {
    std::size_t silent_columns = 0;
    for (const ShippedSpec& shipped : ShippedSpecs()) {
      const AppGraph& graph = *shipped.graph;
      const std::unique_ptr<MonitorSet> set =
          Monitors(shipped.spec, graph, Config{"", backend, MonitorPlacement::kSeparate, false});
      for (std::size_t m = 0; m < set->size(); ++m) {
        Monitor& machine = set->monitor(m);
        const std::string where = std::string(MonitorBackendName(backend)) + " " +
                                  shipped.name + " " + machine.label();
        std::vector<std::pair<EventKind, TaskId>> silent;
        for (const auto& [kind, task] : Columns(graph)) {
          if (!machine.Reacts(kind, task)) {
            silent.emplace_back(kind, task);
          }
        }
        silent_columns += silent.size();
        Rng rng(m + 1);
        SimTime now = kSecond;
        for (std::uint64_t seq = 1; seq <= 400 && !silent.empty(); ++seq) {
          MonitorVerdict ignored;
          (void)machine.Step(RandomEvent(rng, graph, seq, &now), &ignored);
          const std::vector<MonitorEvent> probe =
              seq % 40 == 0 ? ProbeEvents(graph, now) : std::vector<MonitorEvent>{};
          for (const auto& [kind, task] : silent) {
            const std::string at = where + " seq " + std::to_string(seq) + " " +
                                   EventKindName(kind) + " task " + std::to_string(task);
            SimTime later = now;
            MonitorEvent event = RandomEvent(rng, graph, seq, &later);
            event.kind = kind;
            event.task = task;
            const std::unique_ptr<Monitor> clone = Clone(machine);
            MonitorVerdict verdict;
            EXPECT_FALSE(clone->Step(event, &verdict)) << at;
            if (dynamic_cast<const BuiltinMonitor*>(&machine) == nullptr || !probe.empty()) {
              ExpectSameState(machine, *clone, probe, at);
            }
          }
          if (HasFailure()) {
            return;
          }
        }
      }
    }
    // The claim is not vacuous: most machines ignore most columns.
    EXPECT_GT(silent_columns, 0u) << MonitorBackendName(backend);
  }
}

}  // namespace
}  // namespace artemis
