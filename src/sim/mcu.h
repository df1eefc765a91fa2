// The simulated MCU: glues the power model, persistent clock, and memory
// arenas together and accounts busy time / energy per component.
//
// Every piece of simulated work — application task bodies, kernel
// bookkeeping, monitor property checks, reboot restoration — flows through
// Mcu::Execute, which advances time, drains the power model, and on a power
// failure performs the full outage: clock drift, SRAM loss, charging delay,
// and boot-time restore cost.
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
  Mcu(std::unique_ptr<PowerModel> power, const CostModel& costs);

  // Runs `duration` of work drawing `power` mW, attributed to `tag`.
  // On power failure the outage is fully simulated before returning:
  // the clock jumps to the restart time and the boot restore cost has been
  // paid. Returns kStarved when the device can never finish even the boot
  // sequence (e.g. undersized capacitor), after a bounded number of retries.
  ExecStatus Execute(SimDuration duration, Milliwatts power, CostTag tag);

  // Convenience: runs `cycles` CPU cycles at the MCU active power.
  ExecStatus ExecuteCycles(double cycles, CostTag tag);

  // Bit-identical to `count` ExecuteCycles(cycles, tag) calls that stop at
  // the first one not returning kOk. The power model's ConsumeRun takes the
  // prefix that provably completes, in one call; each of those operations
  // adds its energy with its own +=, so the double sums round exactly as
  // per-operation charging does. The rest go through the ordinary charge
  // path one at a time, so the first failure takes the unchanged outage,
  // reboot and boot-record path.
  RunStatus ExecuteCyclesRun(double cycles, CostTag tag, std::size_t count);

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
  const CostModel& costs() const { return costs_; }
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

  // flight::FlightPort — charges map to the CostModel's flight_* constants.
  bool ChargeRecordBuild() override;
  // One ExecuteCyclesRun of flight_nvm_write_cycles_per_byte under
  // CostTag::kFlight.
  std::size_t ChargeWriteBytes(std::size_t count) override;
  bool ChargeControlWrite() override;
  SimTime DeviceNow() override { return clock_.Read(); }

 private:
  ExecStatus ExecuteInternal(SimDuration duration, Milliwatts power, CostTag tag, int depth);

  std::unique_ptr<PowerModel> power_;
  CostModel costs_;
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

}  // namespace artemis

#endif  // SRC_SIM_MCU_H_
