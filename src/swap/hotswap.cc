#include "src/swap/hotswap.h"

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/system_passes.h"
#include "src/flight/record.h"
#include "src/monitor/compiled.h"

namespace artemis {
namespace {

// Default port: every swap byte is charged on the simulated MCU under
// CostTag::kRuntime (the swap is runtime work, not monitor stepping; adding
// a dedicated tag would ripple through every stats consumer for one rare
// operation).
class McuSwapPort final : public SwapPort {
 public:
  explicit McuSwapPort(Mcu& mcu) : mcu_(mcu) {}
  bool ChargeStageByte() override {
    return mcu_.ExecuteCycles(mcu_.costs().swap_nvm_write_cycles_per_byte,
                              CostTag::kRuntime) == ExecStatus::kOk;
  }
  bool ChargeControl() override {
    return mcu_.ExecuteCycles(mcu_.costs().swap_control_cycles, CostTag::kRuntime) ==
           ExecStatus::kOk;
  }

 private:
  Mcu& mcu_;
};

std::string Uj(EnergyUj uj) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f uJ", uj);
  return buf;
}

}  // namespace

Status HotSwapController::RequestSwap(MonitorImage next, SimTime not_before) {
  if (next.artifact == nullptr || next.artifact->stage != SpecArtifactStage::kCompiled ||
      installed_.artifact == nullptr ||
      installed_.artifact->stage != SpecArtifactStage::kCompiled) {
    return Status::FailedPrecondition(
        "hot swap requires compiled-stage images on both sides (backend `compiled`)");
  }
  if (next.header.epoch <= installed_.header.epoch) {
    return Status::FailedPrecondition(
        "replacement epoch " + std::to_string(next.header.epoch) +
        " is not newer than installed epoch " + std::to_string(installed_.header.epoch));
  }
  DiagnosticEngine engine;
  MigrationPlan plan = PlanMigration(installed_, next, *graph_, &engine);
  if (engine.HasErrors()) {
    return Status::FailedPrecondition("migration plan has " +
                                      std::to_string(engine.ErrorCount()) +
                                      " ART015 error(s):\n" + engine.RenderText("swap"));
  }
  next_ = std::move(next);
  plan_ = std::move(plan);
  not_before_ = not_before;
  pending_ = true;
  return Status::Ok();
}

ExecStatus HotSwapController::AtQuiescence(Mcu& mcu) {
  if (!pending_ || mcu.Now() < not_before_) {
    return ExecStatus::kOk;
  }
  McuSwapPort port(mcu);
  return TryApply(port, mcu.flight_recorder());
}

ExecStatus HotSwapController::TryApply(SwapPort& port, flight::FlightRecorder* flight) {
  if (!pending_ || !set_->quiescent()) {
    return ExecStatus::kOk;
  }
  ++stats_.attempts_started;

  // ---- 1. snapshot: migrated state of every new machine, host-side ------
  const std::vector<CompiledMachine>& newc = next_.artifact->compiled;
  std::vector<std::uint16_t> mig_state(newc.size());
  std::vector<std::vector<double>> mig_slots(newc.size());
  for (std::size_t j = 0; j < newc.size(); ++j) {
    const MachineMigration& m = plan_.machines[j];
    mig_state[j] = newc[j].initial;
    mig_slots[j] = newc[j].initial_slots;
    if (m.old_index < 0 || static_cast<std::size_t>(m.old_index) >= set_->size()) {
      continue;
    }
    const auto& old_mon = static_cast<const CompiledMonitor&>(set_->monitor(m.old_index));
    const std::uint16_t old_state = old_mon.current_id();
    if (old_state < m.state_map.size()) {
      mig_state[j] = m.state_map[old_state];
    }
    const std::vector<double>& old_slots = old_mon.slots();
    for (std::size_t t = 0; t < mig_slots[j].size(); ++t) {
      const int source = t < m.slot_sources.size() ? m.slot_sources[t] : -1;
      if (source >= 0 && static_cast<std::size_t>(source) < old_slots.size()) {
        mig_slots[j][t] = old_slots[source];
      }
    }
  }

  // ---- 2. stage: control bookkeeping, then the migrated bytes -----------
  if (!port.ChargeControl()) {
    ++stats_.attempts_failed;
    return ExecStatus::kPowerFailure;
  }
  const std::size_t staged = plan_.StagedBytes();
  for (std::size_t b = 0; b < staged; ++b) {
    if (!port.ChargeStageByte()) {
      ++stats_.attempts_failed;
      return ExecStatus::kPowerFailure;
    }
    ++stats_.bytes_staged;
  }

  // ---- 3. commit: one durable byte decides old vs new --------------------
  if (flight != nullptr && flight->level() != flight::FlightLevel::kOff) {
    const std::uint64_t sealed_before = flight->stats().records_sealed;
    if (!flight->AppendSwapEpoch(installed_.header.spec_hash, next_.header.spec_hash,
                                 next_.header.epoch)) {
      // Power failed somewhere inside the append. The seal byte was never
      // written, so the record is invisible and the old image stays active.
      ++stats_.attempts_failed;
      return ExecStatus::kPowerFailure;
    }
    if (flight->stats().records_sealed == sealed_before) {
      // The ring dropped the record (capacity); fall back to the control
      // byte so the swap still has a durable commit point.
      if (!port.ChargeControl()) {
        ++stats_.attempts_failed;
        return ExecStatus::kPowerFailure;
      }
      ++stats_.fallback_commits;
    }
  } else {
    if (!port.ChargeControl()) {
      ++stats_.attempts_failed;
      return ExecStatus::kPowerFailure;
    }
    ++stats_.fallback_commits;
  }

  // ---- committed: install the new image (host-side bookkeeping) ----------
  std::vector<std::unique_ptr<Monitor>> fresh;
  fresh.reserve(newc.size());
  for (std::size_t j = 0; j < newc.size(); ++j) {
    auto machine = std::shared_ptr<const CompiledMachine>(next_.artifact, &newc[j]);
    auto monitor = std::make_unique<CompiledMonitor>(std::move(machine));
    monitor->InstallMigratedState(mig_state[j], std::move(mig_slots[j]));
    fresh.push_back(std::move(monitor));
  }
  set_->ReplaceMonitors(std::move(fresh));
  installed_ = std::move(next_);
  next_ = MonitorImage{};
  plan_ = MigrationPlan{};
  pending_ = false;
  ++stats_.swaps_applied;
  return ExecStatus::kOk;
}

DiagnosticEngine AnalyzeSwap(const MonitorImage& old_image, const MonitorImage& new_image,
                             const AppGraph& graph, const AnalysisOptions& options) {
  DiagnosticEngine engine(options.werror);
  if (new_image.header.epoch <= old_image.header.epoch) {
    Diagnostic d;
    d.code = diag::kMigrationMismatch;
    d.severity = DiagSeverity::kError;
    d.message = "replacement image epoch " + std::to_string(new_image.header.epoch) +
                " is not newer than the installed epoch " +
                std::to_string(old_image.header.epoch);
    d.note = "epochs are the freshness order; hashes alone cannot order a rollback";
    engine.Report(d);
  }
  const MigrationPlan plan = PlanMigration(old_image, new_image, graph, &engine);

  // ART016: the whole swap window — bookkeeping, staged bytes, and the
  // commit write (swap-epoch record when flight is on, control byte when
  // off) — must fit one on-period together with the boot restore that
  // starts it.
  const CostModel& costs = DefaultCostModel();
  const std::size_t staged = plan.StagedBytes();
  double cycles = costs.swap_control_cycles +
                  static_cast<double>(staged) * costs.swap_nvm_write_cycles_per_byte;
  if (options.flight_enabled) {
    cycles += costs.flight_record_build_cycles +
              static_cast<double>(flight::kWorstCasePayloadBytes + 2) *
                  costs.flight_nvm_write_cycles_per_byte;
  } else {
    cycles += costs.swap_control_cycles;  // fallback commit write
  }
  const EnergyUj window =
      AnalysisRebootEnergy(costs) + EnergyFor(costs.mcu_active_power, costs.CyclesToTime(cycles));
  std::size_t infeasible = 0;
  for (const EnergyUj budget : options.budgets) {
    if (window > budget) {
      ++infeasible;
    }
  }
  if (infeasible > 0 && !options.budgets.empty()) {
    const bool all = infeasible == options.budgets.size();
    Diagnostic d;
    d.code = diag::kSwapWindowInfeasible;
    d.severity = all ? DiagSeverity::kError : DiagSeverity::kWarning;
    d.message = "swap window needs " + Uj(window) + ", infeasible under " +
                std::to_string(infeasible) + " of " + std::to_string(options.budgets.size()) +
                " supplied budgets";
    d.note = "boot restore + " + std::to_string(staged) + " staged bytes + commit write (" +
             std::to_string(static_cast<long long>(cycles)) + " cycles); " +
             (all ? "the swap can never commit on this deployment"
                  : "the swap only commits on the larger budgets");
    engine.Report(d);
  }
  return engine;
}

}  // namespace artemis
