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
// bit-identical results. The duration and energy of each per-operation
// cycle constant come from a CycleChargeTable, so such a charge does no
// division; every Mcu on the default cost model shares one table.
#ifndef SRC_SIM_MCU_H_
#define SRC_SIM_MCU_H_

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
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

// One charge of a cycle count at the active power.
struct CycleCharge {
  SimDuration duration = 0;
  EnergyUj energy = 0.0;
};

// The charge of every per-operation cycle constant of one CostModel (the
// kernel's, the monitors', Mayfly's, the flight recorder's and hot swap's)
// and of the commits of small tasks, converted once at the model's clock
// rate and active power. The table is read-only once built. Every Mcu on
// DefaultCostModel(), on any thread, charges from the one Default() table,
// as every device shares the cost constants of its firmware; an Mcu on any
// other model builds a table of its own. Any other cycle count (a large
// commit, a caller's own count) is converted at its charge; both routes
// give the same bits.
class CycleChargeTable {
 public:
  explicit CycleChargeTable(const CostModel& costs);

  // The table of DefaultCostModel(), built at its first use.
  static const CycleChargeTable& Default();

  CycleCharge ChargeFor(double cycles) const {
    const auto key = std::bit_cast<std::uint64_t>(cycles);
    const Slot& home = slots_[Home(key)];
    if (home.key == key) [[likely]] {
      return home.charge;
    }
    return ChargeForSlow(cycles);
  }

  // Converts `cycles` without the table.
  CycleCharge Compute(double cycles) const;

 private:
  // Open-addressed by the cycle count's bits. NaN cycles never reach it
  // (CyclesToTime cannot convert them), so a NaN pattern marks a free slot.
  static constexpr int kSlotBits = 6;
  static constexpr std::size_t kSlots = std::size_t{1} << kSlotBits;
  static constexpr std::uint64_t kFreeSlot =
      std::bit_cast<std::uint64_t>(std::numeric_limits<double>::quiet_NaN());
  struct Slot {
    std::uint64_t key = kFreeSlot;
    CycleCharge charge;
  };
  // Fibonacci hashing: the product's top bits depend on every key bit.
  static std::size_t Home(std::uint64_t key) {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> (64 - kSlotBits));
  }
  // Probes past the home slot; computes the charge when no slot holds it.
  CycleCharge ChargeForSlow(double cycles) const;

  CostModel costs_;
  std::array<Slot, kSlots> slots_{};
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

  // Convenience: runs `cycles` CPU cycles at the MCU active power.
  ExecStatus ExecuteCycles(double cycles, CostTag tag);

  // Bit-identical to `count` ExecuteCycles(cycles, tag) calls that stop at
  // the first one not returning kOk. The prefix the power model's budget
  // covers completes inline, each operation with its own subtraction and
  // its own energy +=, so the doubles round exactly as per-operation
  // charging does. The first operation not covered goes through the
  // ordinary charge path, so a failure takes the unchanged outage, reboot
  // and boot-record path.
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
  // Completes inline the longest prefix of `count` operations of `duration`
  // drawing `need` µJ each that the power model's budget covers, with one
  // subtraction and one energy += per operation; returns its length.
  std::size_t CompleteInline(SimDuration duration, EnergyUj need, CostTag tag,
                             std::size_t count);
  ExecStatus ExecuteInternal(SimDuration duration, Milliwatts power, CostTag tag, int depth);

  std::unique_ptr<PowerModel> power_;
  CostModel costs_;
  // Set only when `costs` is not DefaultCostModel(); `charges_` points at
  // it or at CycleChargeTable::Default().
  std::unique_ptr<const CycleChargeTable> own_charges_;
  const CycleChargeTable* charges_;
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

inline ExecStatus Mcu::ExecuteCycles(double cycles, CostTag tag) {
  return ExecuteCyclesRun(cycles, tag, 1).status;
}

inline RunStatus Mcu::ExecuteCyclesRun(double cycles, CostTag tag, std::size_t count) {
  const CycleCharge charge = charges_->ChargeFor(cycles);
  RunStatus run;
  while (true) {
    run.done += CompleteInline(charge.duration, charge.energy, tag, count - run.done);
    if (run.done == count) {
      return run;
    }
    run.status = ExecuteInternal(charge.duration, costs_.mcu_active_power, tag, 0);
    if (run.status != ExecStatus::kOk) {
      return run;
    }
    ++run.done;
  }
}

}  // namespace artemis

#endif  // SRC_SIM_MCU_H_
