#include "src/fleet/instance.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "src/core/device.h"
#include "src/sweep/sweep.h"

namespace artemis::fleet {
namespace {

// Mirror of MonitorSet::FramBytes over compiled machines: set bookkeeping
// plus, per monitor, the state word + variable slots + property_t slot.
std::size_t MirroredFramBytes(const SharedSpecArtifact& artifact) {
  std::size_t bytes = sizeof(std::uint64_t) + kVerdictCacheFramBytes + 16;
  for (const CompiledMachine& machine : artifact.compiled) {
    bytes += sizeof(std::uint16_t) + machine.initial_slots.size() * sizeof(double);
    bytes += 24;
  }
  return bytes;
}

std::uint64_t EnergyNj(EnergyUj uj) {
  return uj <= 0.0 ? 0 : static_cast<std::uint64_t>(std::llround(uj * 1000.0));
}

}  // namespace

std::uint64_t DeviceSeed(std::uint64_t fleet_seed, std::uint64_t device_index) {
  // One SplitMix64 scramble of the combined coordinates; the +1 offsets
  // keep (0, 0) away from the all-zero fixed point.
  std::uint64_t z = (fleet_seed + 1) * 0x9E3779B97F4A7C15ull + (device_index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  z ^= z >> 31;
  return z == 0 ? 1 : z;
}

// ---- CaptureChecker ------------------------------------------------------

CaptureChecker::CaptureChecker(std::size_t machines, std::size_t fram_bytes,
                               std::vector<CapturedRecord> buffer)
    : machines_(machines), fram_bytes_(fram_bytes), records_(std::move(buffer)) {
  records_.clear();
}

CaptureChecker::CaptureChecker(std::vector<double> step_cycles, std::size_t fram_bytes,
                               std::vector<CapturedRecord> buffer)
    : CaptureChecker(step_cycles.size(), fram_bytes, std::move(buffer)) {}

void CaptureChecker::HardReset(Mcu& mcu) {
  if (!arena_registered_) {
    mcu.nvm().Allocate(MemOwner::kMonitor, fram_bytes_, "monitor-set");
    arena_registered_ = true;
  }
  continuation_.Finish();
  has_done_ = false;
  done_seq_ = 0;
}

void CaptureChecker::Finalize(Mcu& mcu) {
  if (continuation_.InProgress()) {
    mcu.ExecuteCharge(mcu.charges().timestamp_read, CostTag::kMonitor);
  }
}

CheckOutcome CaptureChecker::OnEvent(const MonitorEvent& event, Mcu& mcu) {
  CheckOutcome outcome;
  const ExecStatus call = mcu.ExecuteCharge(mcu.charges().monitor_call, CostTag::kMonitor);
  if (call != ExecStatus::kOk) {
    outcome.status = static_cast<int>(call);
    return outcome;
  }
  // Exactly-once capture: a boundary retry after the event was fully
  // consumed replays from the (empty) verdict cache.
  if (has_done_ && event.seq == done_seq_) {
    return outcome;
  }
  const std::size_t next = continuation_.Begin(event.seq);
  const RunStatus charged =
      mcu.ExecuteChargeRun(mcu.charges().compiled_step, CostTag::kMonitor, machines_ - next);
  continuation_.CompleteSteps(static_cast<std::uint32_t>(charged.done));
  if (charged.status != ExecStatus::kOk) {
    // Power failed before a machine durably consumed the event; the cursor
    // still points at it, so the re-delivered event resumes there.
    outcome.status = static_cast<int>(charged.status);
    return outcome;
  }
  CapturedRecord record;
  record.kind = CapturedRecord::Kind::kEvent;
  record.event = event;
  records_.push_back(std::move(record));
  ++events_captured_;
  continuation_.Finish();
  done_seq_ = event.seq;
  has_done_ = true;
  return outcome;
}

void CaptureChecker::OnPathRestart(PathId path, Mcu& mcu) {
  mcu.ExecuteCharge(mcu.charges().action_apply, CostTag::kMonitor);
  CapturedRecord record;
  record.kind = CapturedRecord::Kind::kPathRestart;
  record.restart_path = path;
  records_.push_back(record);
}

// ---- DeviceInstance ------------------------------------------------------

DeviceInstance::DeviceInstance(const FleetContext& ctx, const DeviceConfig& config)
    : ctx_(ctx), config_(config) {}

DeviceResult DeviceInstance::RunScalar() { return Run(nullptr); }

DeviceResult DeviceInstance::RunCapture(std::vector<CapturedRecord>* records) {
  // Capture mode charges as the compiled MonitorSet of the scalar mode does.
  const SharedSpecArtifact& artifact = *ctx_.artifact;
  CaptureChecker checker(artifact.compiled.size(), MirroredFramBytes(artifact),
                         std::move(*records));
  DeviceResult r = Run(&checker);
  *records = checker.TakeRecords();
  return r;
}

DeviceResult DeviceInstance::Run(CaptureChecker* capture) {
  StatusOr<std::shared_ptr<const AppGraph>> graph = sweep::AppTemplate(ctx_.app);
  if (!graph.ok()) {
    DeviceResult r;
    r.error = graph.status().ToString();
    return r;
  }
  // The obs bus and its aggregator exist only when the device reports obs
  // counts.
  std::optional<obs::EventBus> bus;
  std::optional<ObsStatsAggregator> aggregator;
  DeviceRecipe recipe;
  if (config_.collect_obs) {
    bus.emplace();
    bus->AddSink(&aggregator.emplace());
    recipe.observer = &*bus;
  }
  recipe.graph = std::move(graph).value();
  recipe.charge = config_.charge;
  recipe.budget = config_.budget;
  if (capture != nullptr) {
    recipe.system = MonitorSystem::kExternal;
    recipe.checker = capture;
  } else {
    recipe.artifact = ctx_.artifact;
    recipe.backend = config_.backend;
  }
  recipe.kernel.seed = config_.seed;
  recipe.kernel.max_wall_time = config_.horizon;
  recipe.kernel.app_iterations = config_.iterations == 0 ? UINT64_MAX : config_.iterations;
  recipe.kernel.max_steps = config_.max_steps;
  DeviceRun device(std::move(recipe));
  DeviceResult r;
  if (!device.status().ok()) {
    r.error = device.status().ToString();
    return r;
  }
  const KernelRunResult run = device.Run();
  r.ok = true;
  r.completed = run.completed;
  r.starved = run.starved;
  r.timed_out = run.timed_out;
  r.finished_at_us = run.finished_at;
  r.iterations = run.iterations_completed;
  r.reboots = run.stats.reboots;
  r.charging_us = run.stats.charging_time;
  r.energy_nj = EnergyNj(run.stats.TotalEnergy());
  r.monitor_energy_nj = EnergyNj(run.stats.energy[static_cast<int>(CostTag::kMonitor)]);
  // In capture mode monitor_events/violations stay 0: the batch pass owns them.
  if (device.artemis() != nullptr) {
    r.monitor_events = device.artemis()->monitors().events_processed();
    r.violations = device.artemis()->monitors().violations_reported();
  }
  for (const TaskProfile& profile : device.kernel().profiles()) {
    r.commits += profile.commits;
    r.aborts += profile.aborts;
    r.skips += profile.skips;
    if (profile.commits > 0) {
      const std::uint64_t attempts =
          (profile.commits + profile.aborts + profile.commits - 1) / profile.commits;
      r.max_attempts_per_commit = std::max(r.max_attempts_per_commit, attempts);
    }
  }
  if (config_.collect_obs) {
    r.has_obs = true;
    for (int k = 0; k < obs::kNumKinds; ++k) {
      r.obs_counts[static_cast<std::size_t>(k)] =
          aggregator->CountFor(static_cast<obs::Kind>(k));
    }
    r.obs_total = aggregator->total_events();
    r.obs_completed_paths = aggregator->completed_paths();
    r.obs_committed_bytes = aggregator->committed_bytes();
  }
  return r;
}

}  // namespace artemis::fleet
