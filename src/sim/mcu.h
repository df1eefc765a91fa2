// The simulated MCU: glues the power model, persistent clock, and memory
// arenas together and accounts busy time / energy per component.
//
// Every piece of simulated work — application task bodies, kernel
// bookkeeping, monitor property checks, reboot restoration — flows through
// Mcu::Execute*, which advances time, drains the power model, and on a power
// failure performs the full outage: clock drift, charging delay, and
// boot-time restore cost.
//
// Charges complete inline, in this header, whenever the power model's
// inline budget covers them (PowerModel, src/sim/power_model.h): that is a
// compare, a subtract and the accounting, with no virtual call. Any other
// charge, and every charge on a model that does not opt in, goes through
// PowerModel::Consume and, when it fails, the outage path. Both routes give
// bit-identical results. A cycle charge arrives resolved: its caller names
// it in the Mcu's CycleCharges (src/sim/cost_model.h), so no charge converts
// cycles; every Mcu on the default cost model shares one set.
#ifndef SRC_SIM_MCU_H_
#define SRC_SIM_MCU_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "src/base/status.h"
#include "src/base/time.h"
#include "src/flight/recorder.h"
#include "src/obs/bus.h"
#include "src/sim/clock.h"
#include "src/sim/cost_model.h"
#include "src/sim/memory.h"
#include "src/sim/power_model.h"

namespace artemis {

enum class ExecStatus { kOk, kPowerFailure, kStarved };

// Outcome of a run of identical charges: how many completed, and the status
// of the first one that did not (kOk when the whole run completed).
struct RunStatus {
  std::size_t done = 0;
  ExecStatus status = ExecStatus::kOk;
};

// Accounting buckets; kApp vs kRuntime vs kMonitor produces Figures 14/15
// directly, kReboot separates outage restoration costs, kFlight isolates
// what the on-device flight recorder adds on top.
enum class CostTag { kApp = 0, kRuntime = 1, kMonitor = 2, kReboot = 3, kFlight = 4 };
inline constexpr int kNumCostTags = 5;

const char* CostTagName(CostTag tag);

struct McuStats {
  std::array<SimDuration, kNumCostTags> busy_time{};
  std::array<EnergyUj, kNumCostTags> energy{};
  std::uint64_t reboots = 0;
  SimDuration charging_time = 0;  // total time spent dead, waiting for energy

  SimDuration TotalBusy() const;
  EnergyUj TotalEnergy() const;
};

class Mcu : public flight::FlightPort {
 public:
  explicit Mcu(std::unique_ptr<PowerModel> power,
               const CostModel& costs = DefaultCostModel());

  // Runs `duration` of work drawing `power` mW, attributed to `tag`.
  // On power failure the outage is fully simulated before returning:
  // the clock jumps to the restart time and the boot restore cost has been
  // paid. Returns kStarved when the device can never finish even the boot
  // sequence (e.g. undersized capacitor), after a bounded number of retries.
  ExecStatus Execute(SimDuration duration, Milliwatts power, CostTag tag);

  // Runs one `charge` (a named entry of charges(), or its Of()) at the MCU
  // active power.
  ExecStatus ExecuteCharge(const CycleCharge& charge, CostTag tag);

  // Bit-identical to `count` ExecuteCharge(charge, tag) calls that stop at
  // the first one not returning kOk. The prefix the power model's budget
  // covers completes inline, each operation with its own subtraction and
  // its own energy +=, so the doubles round exactly as per-operation
  // charging does. The first operation not covered goes through the
  // ordinary charge path, so a failure takes the unchanged outage, reboot
  // and boot-record path.
  RunStatus ExecuteChargeRun(const CycleCharge& charge, CostTag tag, std::size_t count);

  // Device clock read without cost (for assertions / logging).
  SimTime Now() const { return clock_.Read(); }
  // True simulation time (wall clock of the experiment).
  SimTime TrueNow() const { return clock_.TrueNow(); }

  // Lets idle time pass without drawing compute power (e.g. duty-cycled
  // waiting). The power model is not drained.
  void Idle(SimDuration d) { clock_.Advance(d); }

  PersistentClock& clock() { return clock_; }
  NvmArena& nvm() { return nvm_; }
  RamArena& ram() { return ram_; }
  PowerModel& power_model() { return *power_; }
  const CostModel& costs() const { return charges_->model; }
  const CycleCharges& charges() const { return *charges_; }
  const McuStats& stats() const { return stats_; }
  bool starved() const { return starved_; }

  // Resets accounting (not memory registration) between experiment runs.
  void ResetStats() { stats_ = McuStats{}; }

  // Attaches the cross-layer observability bus (src/obs), the one place a
  // device's bus is set. The MCU publishes sim.power-fail / sim.boot events
  // with outage lengths, stored-charge fraction, and cumulative energy; the
  // kernel and monitor set running on it publish into observer() too.
  // nullptr (the default) disables publishing; no simulated cycles are ever
  // charged either way.
  void set_observer(obs::EventBus* bus) { obs_ = bus; }
  obs::EventBus* observer() const { return obs_; }

  // Attaches an on-device flight recorder (src/flight). Unlike the obs bus,
  // the recorder lives *inside* the device: its ring is registered with the
  // NVM arena and every append is charged simulated cycles under
  // CostTag::kFlight. Returns the arena's structured error when the ring
  // budget does not fit. nullptr detaches (no cycles charged anywhere).
  Status AttachFlightRecorder(flight::FlightRecorder* recorder);
  flight::FlightRecorder* flight_recorder() const { return flight_; }

  // flight::FlightPort — the charges' flight_* entries, under CostTag::kFlight.
  bool ChargeRecordBuild() override;
  // One ExecuteChargeRun of flight_byte.
  std::size_t ChargeWriteBytes(std::size_t count) override;
  bool ChargeControlWrite() override;
  SimTime DeviceNow() override { return clock_.Read(); }

 private:
  // Completes inline the longest prefix of `count` operations of `duration`
  // drawing `need` µJ each that the power model's budget covers, with one
  // subtraction and one energy += per operation; returns its length.
  std::size_t CompleteInline(SimDuration duration, EnergyUj need, CostTag tag,
                             std::size_t count);
  ExecStatus ExecuteInternal(SimDuration duration, Milliwatts power, CostTag tag, int depth);

  std::unique_ptr<PowerModel> power_;
  // Set only when `costs` is not DefaultCostModel(); `charges_` points at
  // it or at CycleCharges::Default().
  std::unique_ptr<const CycleCharges> own_charges_;
  const CycleCharges* charges_;
  PersistentClock clock_;
  NvmArena nvm_;
  RamArena ram_;
  McuStats stats_;
  bool starved_ = false;
  obs::EventBus* obs_ = nullptr;
  flight::FlightRecorder* flight_ = nullptr;
  // Guards against mutual recursion when the boot-record append itself dies
  // mid-charge and triggers another reboot (the nested reboot still bumps
  // the epoch; its boot record is simply lost and surfaces as an epoch gap).
  bool in_flight_boot_ = false;
};

inline std::size_t Mcu::CompleteInline(SimDuration duration, EnergyUj need, CostTag tag,
                                       std::size_t count) {
  if (starved_) {
    return 0;
  }
  const int idx = static_cast<int>(tag);
  EnergyUj budget = power_->budget_;
  EnergyUj energy = stats_.energy[idx];
  std::size_t done = 0;
  // A NaN budget (a model that does not opt in) compares false: no charge
  // is covered.
  for (; done < count && need <= budget; ++done) {
    budget -= need;
    energy += need;
  }
  power_->budget_ = budget;
  stats_.energy[idx] = energy;
  stats_.busy_time[idx] += done * duration;
  clock_.Advance(done * duration);
  return done;
}

inline ExecStatus Mcu::Execute(SimDuration duration, Milliwatts power, CostTag tag) {
  if (CompleteInline(duration, EnergyFor(power, duration), tag, 1) == 1) {
    return ExecStatus::kOk;
  }
  return ExecuteInternal(duration, power, tag, 0);
}

inline ExecStatus Mcu::ExecuteCharge(const CycleCharge& charge, CostTag tag) {
  return ExecuteChargeRun(charge, tag, 1).status;
}

inline RunStatus Mcu::ExecuteChargeRun(const CycleCharge& charge, CostTag tag,
                                       std::size_t count) {
  RunStatus run;
  while (true) {
    run.done += CompleteInline(charge.duration, charge.energy, tag, count - run.done);
    if (run.done == count) {
      return run;
    }
    run.status = ExecuteInternal(charge.duration, charges_->model.mcu_active_power, tag, 0);
    if (run.status != ExecStatus::kOk) {
      return run;
    }
    ++run.done;
  }
}

}  // namespace artemis

#endif  // SRC_SIM_MCU_H_
