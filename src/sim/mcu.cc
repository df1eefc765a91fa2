#include "src/sim/mcu.h"

#include <memory>
#include <numeric>

namespace artemis {

const char* CostTagName(CostTag tag) {
  switch (tag) {
    case CostTag::kApp:
      return "app";
    case CostTag::kRuntime:
      return "runtime";
    case CostTag::kMonitor:
      return "monitor";
    case CostTag::kReboot:
      return "reboot";
    case CostTag::kFlight:
      return "flight";
  }
  return "?";
}

SimDuration McuStats::TotalBusy() const {
  return std::accumulate(busy_time.begin(), busy_time.end(), SimDuration{0});
}

EnergyUj McuStats::TotalEnergy() const {
  return std::accumulate(energy.begin(), energy.end(), EnergyUj{0.0});
}

Mcu::Mcu(std::unique_ptr<PowerModel> power, const CostModel& costs)
    : power_(std::move(power)),
      own_charges_(&costs == &DefaultCostModel() ? nullptr
                                                 : std::make_unique<const CycleCharges>(costs)),
      charges_(own_charges_ != nullptr ? own_charges_.get() : &CycleCharges::Default()) {
  power_->NotifyReboot(0);
}

Status Mcu::AttachFlightRecorder(flight::FlightRecorder* recorder) {
  if (recorder == nullptr) {
    flight_ = nullptr;
    return Status::Ok();
  }
  // Ring bytes plus the persistent control words (head, epoch, head time
  // base) the crash-recovery protocol needs.
  constexpr std::size_t kControlBytes = 16;
  Status status = nvm_.Allocate(MemOwner::kFlight, recorder->capacity() + kControlBytes,
                                "flight-recorder");
  if (!status.ok()) {
    return status;
  }
  recorder->set_port(this);
  flight_ = recorder;
  return Status::Ok();
}

bool Mcu::ChargeRecordBuild() {
  return ExecuteCharge(charges_->flight_record_build, CostTag::kFlight) == ExecStatus::kOk;
}

std::size_t Mcu::ChargeWriteBytes(std::size_t count) {
  return ExecuteChargeRun(charges_->flight_byte, CostTag::kFlight, count).done;
}

bool Mcu::ChargeControlWrite() {
  return ExecuteCharge(charges_->flight_control, CostTag::kFlight) == ExecStatus::kOk;
}

ExecStatus Mcu::ExecuteInternal(SimDuration duration, Milliwatts power, CostTag tag,
                                int depth) {
  if (starved_) {
    return ExecStatus::kStarved;
  }
  const SimTime start = clock_.TrueNow();
  const ConsumeResult res = power_->Consume(start, duration, power);

  const int idx = static_cast<int>(tag);
  stats_.busy_time[idx] += res.ran_for;
  stats_.energy[idx] += res.consumed;
  clock_.Advance(res.ran_for);

  if (res.completed) {
    return ExecStatus::kOk;
  }

  // Power failure: outage begins now, device resumes at res.restart_at.
  ++stats_.reboots;
  if (flight_ != nullptr) {
    // The epoch bump is folded into the reboot restore cost below, so epochs
    // count every reboot even when the boot record itself cannot be written.
    flight_->NoteReboot();
  }
  const SimTime device_death_time = clock_.Read();
  clock_.NotifyPowerFailure();
  const SimTime died_at = clock_.TrueNow();
  const SimDuration outage = res.restart_at > died_at ? res.restart_at - died_at : 0;
  if (obs_ != nullptr) {
    obs_->Publish(obs::Event{.kind = obs::Kind::kSimPowerFail,
                             .time = device_death_time,
                             .true_time = died_at,
                             .duration = outage,
                             .energy_uj = stats_.TotalEnergy(),
                             .energy_fraction = power_->StoredEnergyFraction()});
  }
  if (outage > 0) {
    stats_.charging_time += outage;
    clock_.AdvanceTo(res.restart_at);
  }
  clock_.NotifyOutage(outage);
  power_->NotifyReboot(clock_.TrueNow());
  if (obs_ != nullptr) {
    obs_->Publish(obs::Event{.kind = obs::Kind::kSimBoot,
                             .time = clock_.Read(),
                             .true_time = clock_.TrueNow(),
                             .duration = outage,
                             .energy_uj = stats_.TotalEnergy(),
                             .energy_fraction = power_->StoredEnergyFraction()});
  }

  // Boot-time restore (kernel reload + monitorFinalize). It can itself be
  // interrupted; bound recursion so an undersized energy buffer is reported
  // as starvation instead of an infinite loop.
  if (depth > 64) {
    starved_ = true;
    return ExecStatus::kStarved;
  }
  const ExecStatus boot = ExecuteInternal(charges_->reboot_restore.duration,
                                          charges_->model.mcu_active_power, CostTag::kReboot,
                                          depth + 1);
  if (boot == ExecStatus::kStarved) {
    return ExecStatus::kStarved;
  }
  // Black-box the new power life. The append's own charges can fail again;
  // the recorder aborts cleanly and the lost boot shows up as an epoch gap.
  if (flight_ != nullptr && !in_flight_boot_) {
    in_flight_boot_ = true;
    const bool had_boot = flight_->boot_recorded();
    if (flight_->AppendBoot() && !had_boot && flight_->boot_recorded()) {
      (void)flight_->AppendChargeSnapshot(power_->StoredEnergyFraction());
    }
    in_flight_boot_ = false;
  }
  return ExecStatus::kPowerFailure;
}

}  // namespace artemis
