#include "perfbench/harness/traced.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <utility>
#include <vector>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

#include "src/apps/health_app.h"
#include "src/base/thread_pool.h"
#include "src/core/obs_stats.h"
#include "src/fleet/instance.h"
#include "src/ir/compile.h"
#include "src/ir/lowering.h"
#include "src/mayfly/mayfly.h"
#include "src/monitor/arbitration.h"
#include "src/monitor/compiled_batch.h"
#include "src/obs/bus.h"
#include "src/sim/cost_model.h"
#include "src/sim/timekeeper.h"
#include "src/spec/parser.h"
#include "src/spec/validator.h"
#include "src/sweep/spec_cache.h"

namespace perfbench {
namespace {

namespace fleet = artemis::fleet;
namespace sweep = artemis::sweep;
using artemis::Status;
using artemis::StatusOr;

// ---- spans ----------------------------------------------------------------

enum Layer : int {
  kGraph,
  kPlatform,
  kRuntime,
  kKernel,
  kSim,
  kMonitor,
  kBatch,
  kFold,
  kNumLayers
};
constexpr std::array<const char*, kNumLayers> kLayerNames = {
    "core.graph", "core.platform", "core.runtime",  "kernel",
    "sim",        "monitor",       "monitor.batch", "fleet.fold"};

// Span timestamps are raw CPU ticks where the CPU has an invariant
// counter (a clock read costs a few ns instead of ~20), converted to ns
// once per run; elsewhere they are steady_clock nanoseconds.
std::int64_t NowTicks() {
#if defined(__x86_64__)
  return static_cast<std::int64_t>(__rdtsc());
#else
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
#endif
}

double NsPerTick() {
  const Clock::time_point wall0 = Clock::now();
  const std::int64_t ticks0 = NowTicks();
  while (SecondsSince(wall0) < 0.05) {
  }
  const double ns = SecondsSince(wall0) * 1e9;
  return ns / static_cast<double>(NowTicks() - ticks0);
}

// What one span costs the measurement, in ticks: `inside` shows up in the
// span's own duration, `seen` is what its parent pays per child span.
struct SpanCost {
  std::int64_t inside = 0;
  std::int64_t seen = 0;
};

// One device's (or grid point's) spans: per layer the summed self time,
// the number of spans, and the first start / last end.
struct DeviceSpans {
  std::uint64_t index = 0;
  std::int64_t start_tick = 0;
  std::int64_t end_tick = 0;
  std::array<std::int64_t, kNumLayers> self_ticks{};
  std::array<std::uint64_t, kNumLayers> calls{};
  std::array<std::int64_t, kNumLayers> first_tick{};
  std::array<std::int64_t, kNumLayers> last_tick{};
  std::uint64_t checker_events = 0;
  std::uint64_t path_restarts = 0;
  // Sim calls, by the layer that made them (Tracer::LogConsume).
  std::array<std::uint64_t, kNumLayers> sim_calls_under{};
};

// One call into a power model, as logged for replay.
struct SimCall {
  artemis::SimTime now = 0;
  artemis::SimDuration duration = 0;
  artemis::Milliwatts power = 0.0;
  bool reboot = false;
};

// Per-worker span recorder. Self time = a span's duration minus its
// children's, each corrected by the calibrated empty-span cost.
class Tracer {
 public:
  explicit Tracer(SpanCost cost) : cost_(cost) {}

  void BeginDevice(std::uint64_t index) {
    sim_log_.clear();
    spans_ = DeviceSpans{};
    spans_.index = index;
    spans_.start_tick = NowTicks();
  }
  DeviceSpans EndDevice() {
    spans_.end_tick = NowTicks();
    return spans_;
  }
  DeviceSpans& spans() { return spans_; }

  // Sim sees ~10^8 calls of a few ns each, less than two clock reads, so
  // its calls are logged (and counted against the calling layer) instead
  // of timed in place; ReplaySim times them afterwards.
  void LogConsume(artemis::SimTime now, artemis::SimDuration duration,
                  artemis::Milliwatts power) {
    ++spans_.sim_calls_under[depth_ > 0 ? frames_[depth_ - 1].layer : kSim];
    sim_log_.push_back(SimCall{now, duration, power, false});
  }
  void LogReboot(artemis::SimTime now) { sim_log_.push_back(SimCall{now, 0, 0.0, true}); }

  // Replays this device's logged calls on `fresh`, a new power model of the
  // same configuration, as one span; books that time to sim and takes it
  // out of the calling layers' self time in proportion to their calls.
  void ReplaySim(artemis::PowerModel& fresh) {
    const std::int64_t start = NowTicks();
    for (const SimCall& call : sim_log_) {
      if (call.reboot) {
        fresh.NotifyReboot(call.now);
      } else {
        (void)fresh.Consume(call.now, call.duration, call.power);
      }
    }
    const std::int64_t end = NowTicks();
    const std::int64_t ticks = std::max<std::int64_t>(0, end - start - cost_.inside);
    std::uint64_t total = 0;
    for (const std::uint64_t n : spans_.sim_calls_under) {
      total += n;
    }
    for (int l = 0; l < kNumLayers; ++l) {
      const std::uint64_t n = spans_.sim_calls_under[l];
      if (n != 0 && l != kSim) {
        const auto share = static_cast<std::int64_t>(static_cast<double>(ticks) *
                                                     static_cast<double>(n) /
                                                     static_cast<double>(total));
        spans_.self_ticks[l] = std::max<std::int64_t>(0, spans_.self_ticks[l] - share);
      }
    }
    spans_.self_ticks[kSim] += ticks;
    spans_.calls[kSim] += total;
    spans_.first_tick[kSim] = start;
    spans_.last_tick[kSim] = end;
  }

  void Enter(Layer layer) { frames_[depth_++] = Frame{layer, NowTicks(), 0}; }
  void Exit() {
    const std::int64_t end = NowTicks();
    const Frame frame = frames_[--depth_];
    const std::int64_t inclusive = std::max<std::int64_t>(0, end - frame.start - cost_.inside);
    spans_.self_ticks[frame.layer] += std::max<std::int64_t>(0, inclusive - frame.child);
    if (spans_.calls[frame.layer]++ == 0) {
      spans_.first_tick[frame.layer] = frame.start;
    }
    spans_.last_tick[frame.layer] = end;
    if (depth_ > 0) {
      frames_[depth_ - 1].child += inclusive + cost_.seen;
    }
  }

 private:
  struct Frame {
    Layer layer = kGraph;
    std::int64_t start = 0;
    std::int64_t child = 0;
  };
  SpanCost cost_;
  std::array<Frame, 8> frames_{};
  int depth_ = 0;
  DeviceSpans spans_;
  std::vector<SimCall> sim_log_;  // reused across devices
};

// Times empty spans nested in a parent, with the Tracer itself.
SpanCost CalibrateSpanCost() {
  constexpr int kSpans = 20'000;
  std::vector<double> inside;
  std::vector<double> seen;
  for (int rep = 0; rep < 15; ++rep) {
    Tracer tracer{SpanCost{}};
    tracer.BeginDevice(0);
    const std::int64_t start = NowTicks();
    for (int i = 0; i < kSpans; ++i) {
      tracer.Enter(kSim);
      tracer.Exit();
    }
    seen.push_back(static_cast<double>(NowTicks() - start) / kSpans);
    inside.push_back(static_cast<double>(tracer.spans().self_ticks[kSim]) / kSpans);
  }
  return SpanCost{std::llround(Median(inside)), std::llround(Median(seen))};
}

// ---- decorators -------------------------------------------------------------

// Layer `sim`: logs every call into the wrapped power model for replay.
class LoggingPowerModel final : public artemis::PowerModel {
 public:
  LoggingPowerModel(std::unique_ptr<artemis::PowerModel> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  artemis::ConsumeResult Consume(artemis::SimTime now, artemis::SimDuration duration,
                                 artemis::Milliwatts power) override {
    tracer_->LogConsume(now, duration, power);
    return inner_->Consume(now, duration, power);
  }
  void NotifyReboot(artemis::SimTime now) override {
    tracer_->LogReboot(now);
    inner_->NotifyReboot(now);
  }
  double StoredEnergyFraction() const override { return inner_->StoredEnergyFraction(); }
  std::string Name() const override { return inner_->Name(); }

 private:
  std::unique_ptr<artemis::PowerModel> inner_;
  Tracer* tracer_;
};

// Layer `monitor`: times every call into the wrapped checker.
class TimedChecker final : public artemis::PropertyChecker {
 public:
  TimedChecker(artemis::PropertyChecker* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  void HardReset(artemis::Mcu& mcu) override {
    tracer_->Enter(kMonitor);
    inner_->HardReset(mcu);
    tracer_->Exit();
  }
  void Finalize(artemis::Mcu& mcu) override {
    tracer_->Enter(kMonitor);
    inner_->Finalize(mcu);
    tracer_->Exit();
  }
  artemis::CheckOutcome OnEvent(const artemis::MonitorEvent& event,
                                artemis::Mcu& mcu) override {
    ++tracer_->spans().checker_events;
    tracer_->Enter(kMonitor);
    artemis::CheckOutcome outcome = inner_->OnEvent(event, mcu);
    tracer_->Exit();
    return outcome;
  }
  void OnPathRestart(artemis::PathId path, artemis::Mcu& mcu) override {
    ++tracer_->spans().path_restarts;
    tracer_->Enter(kMonitor);
    inner_->OnPathRestart(path, mcu);
    tracer_->Exit();
  }
  std::string Name() const override { return inner_->Name(); }

 private:
  artemis::PropertyChecker* inner_;
  Tracer* tracer_;
};

// ---- device assembly ------------------------------------------------------
// The same pieces, in the same order, as PlatformBuilder::Build,
// ArtemisRuntime::CreateFromArtifact, fleet::DeviceInstance and
// sweep::RunSweepPoint; parity below proves the result is identical.

std::unique_ptr<artemis::PowerModel> MakePowerModel(artemis::SimDuration charge,
                                                   artemis::EnergyUj budget) {
  if (charge == 0) {
    return std::make_unique<artemis::AlwaysOnPowerModel>();
  }
  return std::make_unique<artemis::FixedChargePowerModel>(budget, charge);
}

std::unique_ptr<artemis::Mcu> MakeMcu(artemis::SimDuration charge, artemis::EnergyUj budget,
                                      Tracer* tracer) {
  auto mcu = std::make_unique<artemis::Mcu>(
      std::make_unique<LoggingPowerModel>(MakePowerModel(charge, budget), tracer),
      artemis::DefaultCostModel());
  mcu->clock().SetMaxDriftPerOutage(0);
  return mcu;
}

std::uint64_t EnergyNj(artemis::EnergyUj uj) {
  return uj <= 0.0 ? 0 : static_cast<std::uint64_t>(std::llround(uj * 1000.0));
}

fleet::DeviceResult FinishDevice(const artemis::KernelRunResult& run,
                                 const artemis::IntermittentKernel& kernel,
                                 std::uint64_t monitor_events, std::uint64_t violations) {
  fleet::DeviceResult r;
  r.ok = true;
  r.completed = run.completed;
  r.starved = run.starved;
  r.timed_out = run.timed_out;
  r.finished_at_us = run.finished_at;
  r.iterations = run.iterations_completed;
  r.reboots = run.stats.reboots;
  r.charging_us = run.stats.charging_time;
  r.energy_nj = EnergyNj(run.stats.TotalEnergy());
  r.monitor_energy_nj =
      EnergyNj(run.stats.energy[static_cast<int>(artemis::CostTag::kMonitor)]);
  r.monitor_events = monitor_events;
  r.violations = violations;
  for (const artemis::TaskProfile& profile : kernel.profiles()) {
    r.commits += profile.commits;
    r.aborts += profile.aborts;
    r.skips += profile.skips;
    if (profile.commits > 0) {
      const std::uint64_t attempts =
          (profile.commits + profile.aborts + profile.commits - 1) / profile.commits;
      r.max_attempts_per_commit = std::max(r.max_attempts_per_commit, attempts);
    }
  }
  return r;
}

artemis::KernelOptions FleetKernelOptions(const fleet::DeviceConfig& config) {
  artemis::KernelOptions options;
  options.seed = config.seed;
  options.max_wall_time = config.horizon;
  options.app_iterations = config.iterations == 0 ? UINT64_MAX : config.iterations;
  options.max_steps = config.max_steps;
  options.record_trace = false;
  return options;
}

fleet::DeviceResult ErrorResult(const Status& status) {
  fleet::DeviceResult r;
  r.error = status.ToString();
  return r;
}

// fleet scalar mode: in-loop MonitorSet (DeviceInstance::RunScalar).
fleet::DeviceResult ScalarDevice(const fleet::FleetContext& ctx,
                                 const fleet::DeviceConfig& config, Tracer& t) {
  t.Enter(kGraph);
  artemis::AppGraph graph = sweep::BuildAppGraphByName(ctx.app);
  t.Exit();
  t.Enter(kPlatform);
  std::unique_ptr<artemis::Mcu> mcu = MakeMcu(config.charge, config.budget, &t);
  t.Exit();
  t.Enter(kRuntime);
  // The engines build a bus and aggregator per device even with obs off.
  const artemis::obs::EventBus bus{};
  const artemis::ObsStatsAggregator aggregator{};
  const Status valid = graph.Validate();
  StatusOr<std::unique_ptr<artemis::MonitorSet>> set =
      valid.ok() ? artemis::BuildMonitorSetFromArtifact(ctx.artifact, graph, config.backend)
                 : StatusOr<std::unique_ptr<artemis::MonitorSet>>(valid);
  if (!set.ok()) {
    t.Exit();
    return ErrorResult(set.status());
  }
  // ArtemisRuntime keeps its own copy of the AST and the warnings.
  const artemis::SpecAst spec_copy = ctx.artifact->ast;
  const std::vector<std::string> warnings_copy = ctx.artifact->validation_warnings;
  TimedChecker checker(set.value().get(), &t);
  artemis::IntermittentKernel kernel(&graph, &checker, mcu.get(), FleetKernelOptions(config));
  t.Exit();
  t.Enter(kKernel);
  const artemis::KernelRunResult run = kernel.Run();
  t.Exit();
  t.ReplaySim(*MakePowerModel(config.charge, config.budget));
  return FinishDevice(run, kernel, set.value()->events_processed(),
                      set.value()->violations_reported());
}

// fleet batch mode, device half: monitor costs charged, events captured
// (DeviceInstance::RunCapture).
fleet::DeviceResult CaptureDevice(const fleet::FleetContext& ctx,
                                  const fleet::DeviceConfig& config, Tracer& t,
                                  std::vector<fleet::CapturedRecord>* records) {
  t.Enter(kGraph);
  artemis::AppGraph graph = sweep::BuildAppGraphByName(ctx.app);
  t.Exit();
  t.Enter(kPlatform);
  std::unique_ptr<artemis::Mcu> mcu = MakeMcu(config.charge, config.budget, &t);
  t.Exit();
  t.Enter(kRuntime);
  const artemis::obs::EventBus bus{};
  const artemis::ObsStatsAggregator aggregator{};
  const artemis::SharedSpecArtifact& artifact = *ctx.artifact;
  // Capture mirrors MonitorSet's charging and FRAM footprint over the
  // compiled machines.
  std::size_t fram_bytes = sizeof(std::uint64_t) + sizeof(artemis::MonitorVerdict) + 16;
  for (const artemis::CompiledMachine& machine : artifact.compiled) {
    fram_bytes += sizeof(std::uint16_t) + machine.initial_slots.size() * sizeof(double) + 24;
  }
  fleet::CaptureChecker capture(
      std::vector<double>(artifact.compiled.size(),
                          static_cast<double>(mcu->costs().compiled_step_cycles)),
      fram_bytes);
  TimedChecker checker(&capture, &t);
  artemis::IntermittentKernel kernel(&graph, &checker, mcu.get(), FleetKernelOptions(config));
  t.Exit();
  t.Enter(kKernel);
  const artemis::KernelRunResult run = kernel.Run();
  t.Exit();
  t.ReplaySim(*MakePowerModel(config.charge, config.budget));
  *records = capture.TakeRecords();
  return FinishDevice(run, kernel, 0, 0);
}

// fleet batch mode, monitor half: the captured streams of one tile stepped
// through the batch VM with the engine's event- and machine-pass elision
// and per-lane arbitration.
class BatchStepper {
 public:
  BatchStepper(const artemis::SharedSpecArtifactPtr& artifact, std::uint32_t lanes) {
    for (const artemis::CompiledMachine& machine : artifact->compiled) {
      machines_.emplace_back(std::shared_ptr<const artemis::CompiledMachine>(artifact, &machine),
                             lanes);
      max_task_ = std::max(max_task_, machine.max_task);
    }
    failures_.resize(machines_.size());
    high_water_.resize(machines_.size(), 0);
    pending_.resize(lanes);
    cursors_.resize(lanes);
    events_.resize(lanes);
    const std::uint32_t cols = max_task_ + 2u;
    base_dead_.assign(2u * cols, machines_.empty() ? 0u : 1u);
    for (const artemis::BatchCompiledMonitor& m : machines_) {
      if (m.machine().path_scope == artemis::kNoPath) {
        AndColumnsInto(m, &base_dead_);
      }
    }
    for (const artemis::BatchCompiledMonitor& m : machines_) {
      const artemis::PathId scope = m.machine().path_scope;
      if (scope == artemis::kNoPath) {
        continue;
      }
      const auto p = static_cast<std::size_t>(scope);
      if (scope_dead_.size() <= p) {
        scope_dead_.resize(p + 1);
        path_lanes_.resize(p + 1);
        path_watched_.resize(p + 1, 0u);
      }
      if (scope_dead_[p].empty()) {
        scope_dead_[p] = base_dead_;
      }
      AndColumnsInto(m, &scope_dead_[p]);
      path_watched_[p] = 1u;
    }
    column_mask_ok_ = 2u * cols <= 64u;
    if (column_mask_ok_) {
      live_col_mask_.assign(machines_.size(), 0u);
      for (std::size_t m = 0; m < machines_.size(); ++m) {
        for (std::uint32_t bit = 0; bit < 2u * cols; ++bit) {
          if (!machines_[m].ColumnDead(static_cast<artemis::EventKind>(bit / cols),
                                       static_cast<artemis::TaskId>(bit % cols))) {
            live_col_mask_[m] |= std::uint64_t{1} << bit;
          }
        }
      }
    }
    path_masks_.resize(path_watched_.size(), 0u);
  }

  // Fills monitor_events / monitor_events_elided / violations of each
  // lane's result; returns the lane-events handed to the batch VM.
  std::uint64_t RunTile(std::vector<std::vector<fleet::CapturedRecord>>& streams,
                        std::vector<fleet::DeviceResult*>& results) {
    std::uint64_t lane_events = 0;
    const auto n = static_cast<std::uint32_t>(streams.size());
    const std::uint32_t cols = max_task_ + 2u;
    for (std::uint32_t lane = 0; lane < n; ++lane) {
      cursors_[lane] = 0;
      for (artemis::BatchCompiledMonitor& m : machines_) {
        m.HardResetLane(lane);
      }
    }
    for (;;) {
      live_lanes_.clear();
      for (std::vector<std::uint32_t>& list : path_lanes_) {
        list.clear();
      }
      std::uint64_t pass_mask = 0;
      std::fill(path_masks_.begin(), path_masks_.end(), std::uint64_t{0});
      for (std::uint32_t lane = 0; lane < n; ++lane) {
        const std::vector<fleet::CapturedRecord>& stream = streams[lane];
        std::size_t& cur = cursors_[lane];
        while (cur < stream.size()) {
          const fleet::CapturedRecord& rec = stream[cur];
          if (rec.kind == fleet::CapturedRecord::Kind::kPathRestart) {
            for (artemis::BatchCompiledMonitor& m : machines_) {
              m.OnPathRestartLane(lane, rec.restart_path);
            }
          } else if (EventDead(rec.event)) {
            ++results[lane]->monitor_events;
            ++results[lane]->monitor_events_elided;
          } else {
            break;
          }
          ++cur;
        }
        if (cur == stream.size()) {
          events_[lane] = nullptr;
          continue;
        }
        const artemis::MonitorEvent& event = stream[cur].event;
        events_[lane] = &event;
        live_lanes_.push_back(lane);
        const std::uint64_t col_bit =
            std::uint64_t{1} << (static_cast<std::uint32_t>(event.kind) * cols +
                                 std::min(static_cast<std::uint32_t>(event.task), cols - 1u));
        pass_mask |= col_bit;
        const auto p = static_cast<std::size_t>(event.path);
        if (p < path_watched_.size() && path_watched_[p] != 0u) {
          path_lanes_[p].push_back(lane);
          path_masks_[p] |= col_bit;
        }
      }
      if (live_lanes_.empty()) {
        return lane_events;
      }
      for (std::size_t m = 0; m < machines_.size(); ++m) {
        failures_[m].clear();
        const artemis::PathId scope = machines_[m].machine().path_scope;
        const bool scoped = scope != artemis::kNoPath;
        const std::vector<std::uint32_t>& list =
            scoped ? path_lanes_[static_cast<std::size_t>(scope)] : live_lanes_;
        if (list.empty()) {
          continue;
        }
        const std::uint64_t mask =
            scoped ? path_masks_[static_cast<std::size_t>(scope)] : pass_mask;
        if (column_mask_ok_ && (mask & live_col_mask_[m]) == 0u) {
          continue;
        }
        if (failures_[m].capacity() < high_water_[m]) {
          failures_[m].reserve(high_water_[m]);
        }
        machines_[m].StepBatchLanes(events_.data(), list.data(),
                                    static_cast<std::uint32_t>(list.size()), &failures_[m]);
        lane_events += list.size();
        high_water_[m] = std::max(high_water_[m], failures_[m].size());
      }
      touched_.clear();
      for (std::size_t m = 0; m < machines_.size(); ++m) {
        for (const artemis::BatchFailure& f : failures_[m]) {
          if (pending_[f.lane].empty()) {
            touched_.push_back(f.lane);
          }
          artemis::MonitorVerdict verdict;
          verdict.action = f.action;
          verdict.target_path = f.target_path;
          verdict.property = machines_[m].fail_record(f.fail_index).property;
          pending_[f.lane].push_back(std::move(verdict));
        }
      }
      for (std::uint32_t lane = 0; lane < n; ++lane) {
        if (events_[lane] != nullptr) {
          ++results[lane]->monitor_events;
          ++cursors_[lane];
        }
      }
      for (const std::uint32_t lane : touched_) {
        if (artemis::Arbitrate(pending_[lane], artemis::ArbitrationPolicy::kSeverity)
                .violated()) {
          ++results[lane]->violations;
        }
        pending_[lane].clear();
      }
    }
  }

 private:
  void AndColumnsInto(const artemis::BatchCompiledMonitor& m,
                      std::vector<std::uint8_t>* table) const {
    const std::uint32_t cols = max_task_ + 2u;
    for (std::uint32_t bit = 0; bit < 2u * cols; ++bit) {
      if (!m.ColumnDead(static_cast<artemis::EventKind>(bit / cols),
                        static_cast<artemis::TaskId>(bit % cols))) {
        (*table)[bit] = 0u;
      }
    }
  }

  bool EventDead(const artemis::MonitorEvent& e) const {
    const std::uint32_t cols = max_task_ + 2u;
    const auto t = std::min(static_cast<std::uint32_t>(e.task), cols - 1u);
    const auto p = static_cast<std::size_t>(e.path);
    const std::vector<std::uint8_t>& table =
        e.path != artemis::kNoPath && p < scope_dead_.size() && !scope_dead_[p].empty()
            ? scope_dead_[p]
            : base_dead_;
    return table[static_cast<std::uint32_t>(e.kind) * cols + t] != 0;
  }

  std::uint32_t max_task_ = 0;
  std::vector<artemis::BatchCompiledMonitor> machines_;
  std::vector<std::uint8_t> base_dead_;
  std::vector<std::vector<std::uint8_t>> scope_dead_;
  std::vector<std::vector<artemis::BatchFailure>> failures_;
  std::vector<std::size_t> high_water_;
  std::vector<std::vector<artemis::MonitorVerdict>> pending_;
  std::vector<std::uint32_t> touched_;
  std::vector<std::size_t> cursors_;
  std::vector<const artemis::MonitorEvent*> events_;
  std::vector<std::uint32_t> live_lanes_;
  std::vector<std::vector<std::uint32_t>> path_lanes_;
  std::vector<std::uint8_t> path_watched_;
  bool column_mask_ok_ = false;
  std::vector<std::uint64_t> live_col_mask_;
  std::vector<std::uint64_t> path_masks_;
};

// A sweep point with its kernel profile totals (not part of SweepRow).
struct PointResult {
  sweep::SweepRow row;
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;
};

void AddProfiles(const artemis::IntermittentKernel& kernel, PointResult* out) {
  for (const artemis::TaskProfile& profile : kernel.profiles()) {
    out->commits += profile.commits;
    out->aborts += profile.aborts;
  }
}

// One grid point (sweep::RunSweepPoint), artemis or mayfly.
PointResult SweepPointDevice(const sweep::SweepPoint& point, const sweep::SweepSpec& spec,
                             artemis::CompiledSpecCache& cache, Tracer& t) {
  PointResult out;
  sweep::SweepRow& row = out.row;
  row.index = point.index;
  row.system = point.system;
  row.spec_label = point.spec_label;
  row.backend = point.backend_name;
  row.timekeeper = point.timekeeper;
  row.charge = point.charge;
  row.budget = point.budget;
  row.seed = point.seed;

  t.Enter(kGraph);
  artemis::AppGraph graph = sweep::BuildAppGraphByName(point.app);
  t.Exit();

  t.Enter(kPlatform);
  std::unique_ptr<artemis::Mcu> mcu = MakeMcu(point.charge, point.budget, &t);
  if (point.timekeeper.rfind("rtc:", 0) == 0) {
    mcu->clock().SetTimekeeper(std::make_unique<artemis::RtcTimekeeper>(
        std::strtod(point.timekeeper.c_str() + 4, nullptr)));
  } else if (point.timekeeper != "default") {
    t.Exit();
    row.error = "timekeeper '" + point.timekeeper + "' is not part of the benchmark grid";
    return out;
  }
  artemis::flight::FlightLevel level = artemis::flight::FlightLevel::kOff;
  std::unique_ptr<artemis::flight::FlightRecorder> recorder;
  if (artemis::flight::ParseFlightLevel(spec.flight, &level) &&
      level != artemis::flight::FlightLevel::kOff) {
    recorder = std::make_unique<artemis::flight::FlightRecorder>(spec.flight_bytes, level);
    if (const Status attached = mcu->AttachFlightRecorder(recorder.get()); !attached.ok()) {
      t.Exit();
      row.error = attached.ToString();
      return out;
    }
  }
  t.Exit();

  t.Enter(kRuntime);
  const artemis::obs::EventBus bus{};
  const artemis::ObsStatsAggregator aggregator{};
  const bool mayfly = point.system == "mayfly";
  StatusOr<artemis::SharedSpecArtifactPtr> artifact =
      cache.Get(point.app, point.spec_text, graph,
                mayfly ? artemis::SpecArtifactStage::kAst
                       : artemis::StageForBackend(point.backend));
  Status status = artifact.ok() ? graph.Validate() : artifact.status();
  artemis::KernelOptions options;
  options.seed = point.seed;
  options.max_wall_time = spec.max_wall;
  options.record_trace = spec.record_trace;
  options.flight = recorder.get();
  std::unique_ptr<artemis::MonitorSet> set;
  std::unique_ptr<artemis::MayflyChecker> rules;
  std::optional<artemis::SpecAst> spec_copy;
  if (status.ok() && mayfly) {
    StatusOr<artemis::MayflySpec> parsed =
        artemis::MayflyFromSpec(artifact.value()->ast, graph);
    status = parsed.ok() ? Status::Ok() : parsed.status();
    if (parsed.ok()) {
      rules = std::make_unique<artemis::MayflyChecker>();
      for (artemis::MayflyRule& rule : parsed.value().rules) {
        rules->AddRule(std::move(rule));
      }
    }
  } else if (status.ok()) {
    StatusOr<std::unique_ptr<artemis::MonitorSet>> built =
        artemis::BuildMonitorSetFromArtifact(artifact.value(), graph, point.backend);
    status = built.ok() ? Status::Ok() : built.status();
    if (built.ok()) {
      set = std::move(built).value();
      set->set_flight(recorder.get());
      spec_copy = artifact.value()->ast;  // as ArtemisRuntime does
    }
  }
  if (!status.ok()) {
    t.Exit();
    row.error = status.ToString();
    return out;
  }
  artemis::PropertyChecker* inner =
      mayfly ? static_cast<artemis::PropertyChecker*>(rules.get()) : set.get();
  TimedChecker checker(inner, &t);
  artemis::IntermittentKernel kernel(&graph, &checker, mcu.get(), options);
  t.Exit();

  t.Enter(kKernel);
  row.result = kernel.Run();
  t.Exit();
  t.ReplaySim(*MakePowerModel(point.charge, point.budget));
  row.ok = true;
  if (set != nullptr) {
    row.monitor_events = set->events_processed();
    row.violations = set->violations_reported();
  }
  AddProfiles(kernel, &out);
  if (recorder != nullptr) {
    const artemis::flight::FlightStats& fs = recorder->stats();
    row.flight_enabled = true;
    row.flight_sealed = fs.records_sealed;
    row.flight_dropped = fs.appends_aborted + fs.records_evicted + fs.records_dropped;
    row.flight_bytes = fs.bytes_sealed;
    const double total = row.result.stats.TotalEnergy();
    if (total > 0.0) {
      row.flight_energy_share =
          row.result.stats.energy[static_cast<int>(artemis::CostTag::kFlight)] / total;
    }
  }
  return out;
}

// ---- passes -----------------------------------------------------------------

struct SetupLayers {
  double parse_s = 0.0;
  double validate_s = 0.0;
  double lower_s = 0.0;
  double compile_s = 0.0;
  double gate_s = 0.0;
};

// Medians over repeated runs of each pipeline stage on the health spec.
SetupLayers TimeSetupLayers(const WorkloadInput& input) {
  const std::string text = artemis::HealthAppSpec();
  const artemis::AppGraph graph = sweep::BuildAppGraphByName("health");
  std::vector<double> parse, validate, lower, compile, gate;
  for (int rep = 0; rep < 21; ++rep) {
    Clock::time_point t0 = Clock::now();
    StatusOr<artemis::SpecAst> ast = artemis::SpecParser::Parse(text);
    parse.push_back(SecondsSince(t0));
    if (!ast.ok()) {
      break;
    }
    t0 = Clock::now();
    const artemis::ValidationResult validation =
        artemis::SpecValidator::Validate(ast.value(), graph);
    validate.push_back(SecondsSince(t0));
    t0 = Clock::now();
    StatusOr<std::vector<artemis::StateMachine>> machines =
        artemis::LowerSpec(ast.value(), graph, {});
    lower.push_back(SecondsSince(t0));
    if (!validation.ok() || !machines.ok()) {
      break;
    }
    t0 = Clock::now();
    for (const artemis::StateMachine& machine : machines.value()) {
      (void)artemis::CompileStateMachine(machine);
    }
    compile.push_back(SecondsSince(t0));
    t0 = Clock::now();
    if (input.is_fleet) {
      (void)sweep::PreAnalyzeSpec("fleet", input.fleet.spec_label, text, graph,
                                  input.fleet.budgets, input.fleet.charges, "off", 1024);
    } else {
      (void)sweep::PreAnalyzeSpec("sweep", "default", text, graph, input.sweep.budgets,
                                  input.sweep.charges, input.sweep.flight,
                                  input.sweep.flight_bytes);
    }
    gate.push_back(SecondsSince(t0));
  }
  return SetupLayers{Median(parse), Median(validate), Median(lower), Median(compile),
                     Median(gate)};
}

ParityCounts FleetCounts(const fleet::FleetAggregates& a) {
  return ParityCounts{a.energy_nj, a.commits,        a.aborts,
                      a.reboots,   a.monitor_events, a.violations};
}

void AddRow(const sweep::SweepRow& row, ParityCounts* counts) {
  counts->energy_nj += EnergyNj(row.result.stats.TotalEnergy());
  counts->reboots += row.result.stats.reboots;
  counts->monitor_events += row.monitor_events;
  counts->violations += row.violations;
}

// Everything the passes measure, before it becomes metrics.
struct Measurements {
  double ns_per_tick = 1.0;
  SpanCost span_cost;
  SetupLayers setup;
  std::uint64_t spec_builds = 0;
  double untraced_s = 0.0;  // engine call, tracing off
  double traced_s = 0.0;    // traced pass over the same input
  double render_s = 0.0;
  double merge_s = 0.0;
  double cache_hit_ratio = 0.0;
  std::vector<double> device_us;                       // fleet, per device
  std::map<std::string, std::vector<double>> point_us;  // sweep, by system
  std::map<std::string, std::vector<double>> point_us_by_charge;
  std::uint64_t lane_events = 0;
  std::uint64_t elided = 0;
  std::uint64_t flight_records = 0;
  std::uint64_t flight_bytes = 0;
  std::vector<DeviceSpans> spans;
  std::string item_error;
};

TracedRun Finish(const WorkloadInput& input, const Measurements& m, TracedRun run,
                 const std::string& spans_path) {
  Result& result = run.result;
  const double devices = static_cast<double>(std::max<std::size_t>(1, m.spans.size()));
  std::array<double, kNumLayers> self_ns{};
  std::array<double, kNumLayers> calls{};
  double events = 0.0;
  double restarts = 0.0;
  for (const DeviceSpans& s : m.spans) {
    for (int l = 0; l < kNumLayers; ++l) {
      self_ns[l] += static_cast<double>(s.self_ticks[l]) * m.ns_per_tick;
      calls[l] += static_cast<double>(s.calls[l]);
    }
    events += static_cast<double>(s.checker_events);
    restarts += static_cast<double>(s.path_restarts);
  }
  double device_ns = 0.0;
  for (int l = kGraph; l <= kBatch; ++l) {
    device_ns += self_ns[l];
  }
  const auto share = [&](double ns) { return device_ns > 0.0 ? ns / device_ns : 0.0; };
  const auto per = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  const ParityCounts& c = run.traced;
  const double commits = static_cast<double>(c.commits);
  const double aborts = static_cast<double>(c.aborts);

  result.Add("spec.parse_s", m.setup.parse_s, "s");
  result.Add("spec.validate_s", m.setup.validate_s, "s");
  result.Add("spec.builds", static_cast<double>(m.spec_builds), "count");
  result.Add("ir.lower_s", m.setup.lower_s, "s");
  result.Add("ir.compile_s", m.setup.compile_s, "s");
  result.Add("analysis.gate_s", m.setup.gate_s, "s");
  result.Add("core.graph_us", self_ns[kGraph] / devices / 1e3, "us");
  result.Add("core.platform_us", self_ns[kPlatform] / devices / 1e3, "us");
  result.Add("core.runtime_us", self_ns[kRuntime] / devices / 1e3, "us");
  result.Add("core.share", share(self_ns[kGraph] + self_ns[kPlatform] + self_ns[kRuntime]),
             "ratio");
  result.Add("kernel.self_us", self_ns[kKernel] / devices / 1e3, "us");
  result.Add("kernel.commits", commits / devices, "count");
  result.Add("kernel.aborts", aborts / devices, "count");
  result.Add("kernel.commit_ratio", per(commits, commits + aborts), "ratio");
  result.Add("kernel.reboots", static_cast<double>(c.reboots) / devices, "count");
  result.Add("kernel.share", share(self_ns[kKernel]), "ratio");
  result.Add("sim.consume_us", self_ns[kSim] / devices / 1e3, "us");
  result.Add("sim.consume_calls", calls[kSim] / devices, "count");
  result.Add("sim.ns_per_consume", per(self_ns[kSim], calls[kSim]), "ns");
  result.Add("sim.share", share(self_ns[kSim]), "ratio");
  result.Add("monitor.step_us", self_ns[kMonitor] / devices / 1e3, "us");
  result.Add("monitor.events", events / devices, "count");
  result.Add("monitor.path_restarts", restarts / devices, "count");
  result.Add("monitor.ns_per_event", per(self_ns[kMonitor], events), "ns");
  result.Add("monitor.share", share(self_ns[kMonitor]), "ratio");
  const double lane_events = static_cast<double>(m.lane_events);
  result.Add("monitor.batch_us", self_ns[kBatch] / devices / 1e3, "us");
  result.Add("monitor.batch.lane_events", lane_events / devices, "count");
  result.Add("monitor.batch.ns_per_lane_event", per(self_ns[kBatch], lane_events), "ns");
  result.Add("monitor.batch.elision_rate",
             input.is_fleet && input.fleet.monitor == "batch"
                 ? per(static_cast<double>(m.elided), static_cast<double>(c.monitor_events))
                 : 0.0,
             "ratio");
  result.Add("monitor.batch.share", share(self_ns[kBatch]), "ratio");
  result.Add("flight.records", static_cast<double>(m.flight_records) / devices, "count");
  result.Add("flight.bytes", static_cast<double>(m.flight_bytes) / devices, "bytes");
  for (const char* system : {"artemis", "mayfly"}) {
    const auto it = m.point_us.find(system);
    const std::vector<double> none;
    const std::vector<double>& v = it == m.point_us.end() ? none : it->second;
    result.Add(std::string("sweep.") + system + ".point_us_p50", Quantile(v, 0.50), "us");
    result.Add(std::string("sweep.") + system + ".point_us_p99", Quantile(v, 0.99), "us");
  }
  result.Add("sweep.render_s", input.is_fleet ? 0.0 : m.render_s, "s");
  result.Add("sweep.cache_hit_ratio", m.cache_hit_ratio, "ratio");
  result.Add("fleet.merge_s", m.merge_s, "s");
  result.Add("fleet.render_s", input.is_fleet ? m.render_s : 0.0, "s");
  result.Add("fleet.device_us_p50", Quantile(m.device_us, 0.50), "us");
  result.Add("fleet.device_us_p99", Quantile(m.device_us, 0.99), "us");
  result.Add("trace.overhead", per(m.traced_s, m.untraced_s), "ratio");
  // Attributed layer time over the untraced per-item wall (which has no
  // batch pass): what of the tracing cost the span-cost correction did
  // not remove.
  double item_sum = std::accumulate(m.device_us.begin(), m.device_us.end(), 0.0);
  for (const auto& [system, values] : m.point_us) {
    item_sum = std::accumulate(values.begin(), values.end(), item_sum);
  }
  result.Add("trace.attributed_ratio",
             per((device_ns - self_ns[kBatch]) / devices / 1e3, item_sum / devices),
             "ratio");
  result.Add("trace.devices", devices, "count");

  std::printf("layer self time per device (tracing on, span cost subtracted, sim replayed):\n");
  for (int l = kGraph; l <= kBatch; ++l) {
    std::printf("  %-14s %12.3f us  %6.1f%%\n", kLayerNames[l], self_ns[l] / devices / 1e3,
                100.0 * share(self_ns[l]));
  }
  for (const auto& [key, values] : m.point_us_by_charge) {
    std::printf("  point %-22s p50 %10.1f us  p99 %10.1f us  (%zu points)\n", key.c_str(),
                Quantile(values, 0.50), Quantile(values, 0.99), values.size());
  }
  std::printf("tracing overhead: traced %.3f s / untraced %.3f s = %.2fx "
              "(span cost %.1f ns inside, %.1f ns to the parent)\n",
              m.traced_s, m.untraced_s, per(m.traced_s, m.untraced_s),
              static_cast<double>(m.span_cost.inside) * m.ns_per_tick,
              static_cast<double>(m.span_cost.seen) * m.ns_per_tick);

  if (!spans_path.empty()) {
    std::ofstream out(spans_path);
    out << "device,layer,first_ns,last_ns,self_ns,spans\n";
    std::int64_t origin = std::numeric_limits<std::int64_t>::max();
    for (const DeviceSpans& s : m.spans) {
      origin = std::min(origin, s.start_tick);
    }
    const auto ns = [&](std::int64_t ticks) {
      return std::llround(static_cast<double>(ticks) * m.ns_per_tick);
    };
    for (const DeviceSpans& s : m.spans) {
      out << s.index << ",device," << ns(s.start_tick - origin) << ","
          << ns(s.end_tick - origin) << ",,1\n";
      for (int l = 0; l < kNumLayers; ++l) {
        if (s.calls[l] != 0) {
          out << s.index << "," << kLayerNames[l] << "," << ns(s.first_tick[l] - origin) << ","
              << ns(s.last_tick[l] - origin) << "," << ns(s.self_ticks[l]) << "," << s.calls[l]
              << "\n";
        }
      }
    }
    std::printf("spans: %zu devices written to %s\n", m.spans.size(), spans_path.c_str());
  }

  result.attempted = m.spans.size();
  std::string failure = m.item_error;
  if (failure.empty()) {
    failure = CheckParity(run.engine, run.traced);
  }
  if (!failure.empty()) {
    std::printf("traced run failed: %s\n", failure.c_str());
    result.correct = false;
    result.failed = result.attempted;
  } else {
    std::printf("parity: traced counts equal the untraced engine aggregates\n");
  }
  return run;
}

TracedRun TraceFleet(const WorkloadInput& input, const std::string& spans_path) {
  const fleet::FleetSpec& spec = input.fleet;
  Measurements m;
  m.setup = TimeSetupLayers(input);
  m.spec_builds = 2;  // the fleet's artifact plus the analyzer gate's
  TracedRun run;

  // Pass A: the engine, untraced.
  Clock::time_point t0 = Clock::now();
  StatusOr<fleet::FleetOutcome> engine = fleet::RunFleet(spec);
  m.untraced_s = SecondsSince(t0);
  if (!engine.ok()) {
    m.item_error = engine.status().ToString();
    return Finish(input, m, std::move(run), spans_path);
  }
  t0 = Clock::now();
  const std::string rendering = fleet::RenderFleetJson(spec, engine.value());
  m.render_s = SecondsSince(t0);
  run.engine = FleetCounts(engine.value().agg);

  const artemis::AppGraph template_graph = sweep::BuildAppGraphByName(spec.app);
  StatusOr<artemis::SharedSpecArtifactPtr> artifact = artemis::BuildSpecArtifact(
      artemis::HealthAppSpec(), template_graph, artemis::SpecArtifactStage::kCompiled);
  if (!artifact.ok()) {
    m.item_error = artifact.status().ToString();
    return Finish(input, m, std::move(run), spans_path);
  }
  fleet::FleetContext ctx;
  ctx.app = spec.app;
  ctx.artifact = artifact.value();
  const bool batch = spec.monitor == "batch";

  // Pass B: per-device wall through the public DeviceInstance, untraced.
  m.device_us.assign(spec.devices, 0.0);
  artemis::ParallelFor(kWorkers, spec.devices, [&](std::size_t i) {
    const Clock::time_point start = Clock::now();
    fleet::DeviceInstance instance(ctx, fleet::ConfigForDevice(spec, i));
    std::vector<fleet::CapturedRecord> records;
    (void)(batch ? instance.RunCapture(&records) : instance.RunScalar());
    m.device_us[i] = SecondsSince(start) * 1e6;
  });

  // Pass C: traced devices over the engine's cpu-map.
  m.ns_per_tick = NsPerTick();
  m.span_cost = CalibrateSpanCost();
  const std::int64_t clock_cost = m.span_cost.inside;
  const std::vector<fleet::ShardRange> map = fleet::BuildCpuMap(spec.devices, kWorkers);
  std::vector<fleet::FleetAggregates> partials(map.size());
  std::vector<std::vector<DeviceSpans>> shard_spans(map.size());
  std::vector<std::uint64_t> lane_events(map.size(), 0);
  std::vector<std::uint64_t> elided(map.size(), 0);
  t0 = Clock::now();
  artemis::RunWorkers(static_cast<int>(map.size()), [&](int w) {
    const fleet::ShardRange range = map[static_cast<std::size_t>(w)];
    fleet::FleetAggregates& agg = partials[static_cast<std::size_t>(w)];
    std::vector<DeviceSpans>& spans = shard_spans[static_cast<std::size_t>(w)];
    Tracer tracer(m.span_cost);
    const auto fold = [&](const fleet::DeviceResult& r, DeviceSpans* s) {
      const std::int64_t start = NowTicks();
      agg.Fold(r);
      const std::int64_t stop = NowTicks();
      s->self_ticks[kFold] = std::max<std::int64_t>(0, stop - start - clock_cost);
      s->calls[kFold] = 1;
      s->first_tick[kFold] = start;
      s->last_tick[kFold] = stop;
    };
    if (!batch) {
      for (std::uint64_t i = range.begin; i < range.end; ++i) {
        tracer.BeginDevice(i);
        const fleet::DeviceResult r = ScalarDevice(ctx, fleet::ConfigForDevice(spec, i), tracer);
        spans.push_back(tracer.EndDevice());
        fold(r, &spans.back());
      }
      return;
    }
    BatchStepper stepper(ctx.artifact, spec.tile);
    std::vector<fleet::DeviceResult> results(spec.tile);
    std::vector<std::vector<fleet::CapturedRecord>> streams;
    std::vector<fleet::DeviceResult*> result_ptrs;
    for (std::uint64_t begin = range.begin; begin < range.end; begin += spec.tile) {
      const std::uint64_t end = std::min<std::uint64_t>(begin + spec.tile, range.end);
      const auto n = static_cast<std::uint32_t>(end - begin);
      streams.assign(n, {});
      result_ptrs.assign(n, nullptr);
      for (std::uint32_t lane = 0; lane < n; ++lane) {
        tracer.BeginDevice(begin + lane);
        results[lane] = CaptureDevice(ctx, fleet::ConfigForDevice(spec, begin + lane), tracer,
                                      &streams[lane]);
        result_ptrs[lane] = &results[lane];
        spans.push_back(tracer.EndDevice());
      }
      // The tile's batch pass is shared by its devices: split evenly.
      const std::int64_t start = NowTicks();
      lane_events[static_cast<std::size_t>(w)] += stepper.RunTile(streams, result_ptrs);
      const std::int64_t stop = NowTicks();
      const std::int64_t each = std::max<std::int64_t>(0, stop - start - clock_cost) / n;
      for (std::uint32_t lane = 0; lane < n; ++lane) {
        DeviceSpans& s = spans[spans.size() - n + lane];
        s.self_ticks[kBatch] = each;
        s.calls[kBatch] = 1;
        s.first_tick[kBatch] = start;
        s.last_tick[kBatch] = stop;
        elided[static_cast<std::size_t>(w)] += results[lane].monitor_events_elided;
        fold(results[lane], &s);
      }
    }
  });
  fleet::FleetOutcome traced;
  const Clock::time_point merge_start = Clock::now();
  for (const fleet::FleetAggregates& partial : partials) {
    traced.agg.MergeFrom(partial);
  }
  const double merge_s = SecondsSince(merge_start);
  m.traced_s = SecondsSince(t0);
  double fold_ticks = 0.0;
  for (std::size_t w = 0; w < map.size(); ++w) {
    for (DeviceSpans& s : shard_spans[w]) {
      fold_ticks += static_cast<double>(s.self_ticks[kFold]);
      m.spans.push_back(s);
    }
    m.lane_events += lane_events[w];
    m.elided += elided[w];
  }
  m.merge_s = fold_ticks * m.ns_per_tick / 1e9 + merge_s;
  run.traced = FleetCounts(traced.agg);

  // Whole-rendering parity on top of the six counts: the batch-mode facts
  // are static properties of the artifact, taken from the engine.
  traced.devices = engine.value().devices;
  traced.shards = engine.value().shards;
  traced.handler_classes = engine.value().handler_classes;
  traced.dead_columns = engine.value().dead_columns;
  traced.total_columns = engine.value().total_columns;
  if (engine.value().agg.errors != 0 || traced.agg.errors != 0) {
    m.item_error = "device errors: " + engine.value().agg.first_error + traced.agg.first_error;
  } else if (CheckParity(run.engine, run.traced).empty() &&
             fleet::RenderFleetJson(spec, traced) != rendering) {
    m.item_error = "traced fleet rendering differs from the engine's";
  }
  return Finish(input, m, std::move(run), spans_path);
}

TracedRun TraceSweep(const WorkloadInput& input, const std::string& spans_path) {
  const sweep::SweepSpec& spec = input.sweep;
  Measurements m;
  m.setup = TimeSetupLayers(input);
  TracedRun run;

  // Pass A: the engine, untraced.
  Clock::time_point t0 = Clock::now();
  StatusOr<sweep::SweepOutcome> engine = sweep::RunSweep(spec, kWorkers);
  m.untraced_s = SecondsSince(t0);
  if (!engine.ok()) {
    m.item_error = engine.status().ToString();
    return Finish(input, m, std::move(run), spans_path);
  }
  t0 = Clock::now();
  const std::string rendering = sweep::RenderJson(spec, engine.value());
  m.render_s = SecondsSince(t0);
  const sweep::SweepOutcome& outcome = engine.value();
  m.spec_builds = outcome.cache_builds + 1;  // plus the analyzer gate's
  m.cache_hit_ratio =
      outcome.cache_requests == 0
          ? 0.0
          : static_cast<double>(outcome.cache_requests - outcome.cache_builds) /
                static_cast<double>(outcome.cache_requests);
  for (const sweep::SweepRow& row : outcome.rows) {
    AddRow(row, &run.engine);
    m.flight_records += row.flight_sealed;
    m.flight_bytes += row.flight_bytes;
    if (!row.ok && m.item_error.empty()) {
      m.item_error = "error row: " + row.error;
    }
  }

  StatusOr<std::vector<sweep::SweepPoint>> points = sweep::ExpandGrid(spec);
  if (!points.ok()) {
    m.item_error = points.status().ToString();
    return Finish(input, m, std::move(run), spans_path);
  }
  const std::size_t n = points.value().size();

  // Pass B: per-point wall through the public RunSweepPoint, untraced; a
  // post-run hook reads the kernel profiles (commits, aborts) for parity.
  sweep::SweepSpec hooked = spec;
  hooked.post_run = [](const sweep::SweepPoint&, const sweep::SweepRunArtifacts& a,
                       sweep::SweepRow* row) {
    const artemis::IntermittentKernel& kernel =
        a.artemis != nullptr ? a.artemis->kernel() : a.mayfly->kernel();
    PointResult totals;
    AddProfiles(kernel, &totals);
    row->metrics.emplace_back("commits", static_cast<double>(totals.commits));
    row->metrics.emplace_back("aborts", static_cast<double>(totals.aborts));
  };
  std::vector<double> point_us(n, 0.0);
  std::vector<sweep::SweepRow> hooked_rows(n);
  artemis::CompiledSpecCache cache;
  artemis::ParallelFor(kWorkers, n, [&](std::size_t i) {
    const Clock::time_point start = Clock::now();
    hooked_rows[i] = sweep::RunSweepPoint(points.value()[i], hooked, cache);
    point_us[i] = SecondsSince(start) * 1e6;
  });
  for (std::size_t i = 0; i < n; ++i) {
    const sweep::SweepPoint& p = points.value()[i];
    m.point_us[p.system].push_back(point_us[i]);
    const std::string charge = p.charge == 0 ? "continuous" : artemis::FormatDuration(p.charge);
    m.point_us_by_charge[p.system + " " + charge].push_back(point_us[i]);
    for (const auto& [key, value] : hooked_rows[i].metrics) {
      (key == "commits" ? run.engine.commits : run.engine.aborts) +=
          static_cast<std::uint64_t>(value);
    }
  }

  // Pass C: traced points, interleaved across the workers like the
  // engine's dynamic claiming (grid order groups the slow systems).
  m.ns_per_tick = NsPerTick();
  m.span_cost = CalibrateSpanCost();
  std::vector<PointResult> traced(n);
  std::vector<std::vector<DeviceSpans>> worker_spans(kWorkers);
  t0 = Clock::now();
  artemis::RunWorkers(kWorkers, [&](int w) {
    Tracer tracer(m.span_cost);
    for (std::size_t i = static_cast<std::size_t>(w); i < n; i += kWorkers) {
      tracer.BeginDevice(i);
      traced[i] = SweepPointDevice(points.value()[i], spec, cache, tracer);
      worker_spans[static_cast<std::size_t>(w)].push_back(tracer.EndDevice());
    }
  });
  m.traced_s = SecondsSince(t0);
  for (std::vector<DeviceSpans>& spans : worker_spans) {
    m.spans.insert(m.spans.end(), spans.begin(), spans.end());
  }
  std::sort(m.spans.begin(), m.spans.end(),
            [](const DeviceSpans& a, const DeviceSpans& b) { return a.index < b.index; });
  sweep::SweepOutcome traced_outcome = outcome;
  for (std::size_t i = 0; i < n; ++i) {
    AddRow(traced[i].row, &run.traced);
    run.traced.commits += traced[i].commits;
    run.traced.aborts += traced[i].aborts;
    traced_outcome.rows[i] = traced[i].row;
    if (!traced[i].row.ok && m.item_error.empty()) {
      m.item_error = "traced error row: " + traced[i].row.error;
    }
  }
  if (m.item_error.empty() && CheckParity(run.engine, run.traced).empty() &&
      sweep::RenderJson(spec, traced_outcome) != rendering) {
    m.item_error = "traced sweep rendering differs from the engine's";
  }
  return Finish(input, m, std::move(run), spans_path);
}

}  // namespace

std::string CheckParity(const ParityCounts& engine, const ParityCounts& traced) {
  const std::pair<const char*, std::pair<std::uint64_t, std::uint64_t>> counts[] = {
      {"energy_nj", {engine.energy_nj, traced.energy_nj}},
      {"commits", {engine.commits, traced.commits}},
      {"aborts", {engine.aborts, traced.aborts}},
      {"reboots", {engine.reboots, traced.reboots}},
      {"monitor_events", {engine.monitor_events, traced.monitor_events}},
      {"violations", {engine.violations, traced.violations}},
  };
  for (const auto& [name, pair] : counts) {
    if (pair.first != pair.second) {
      return std::string(name) + ": engine " + std::to_string(pair.first) + " != traced " +
             std::to_string(pair.second);
    }
  }
  return "";
}

TracedRun RunTraced(const WorkloadInput& input, const std::string& spans_path) {
  return input.is_fleet ? TraceFleet(input, spans_path) : TraceSweep(input, spans_path);
}

}  // namespace perfbench
