// Cycle and byte cost model for runtime / monitor operations.
//
// The MCU runs at 1 MHz, so cycles == microseconds. The cycle constants are
// calibrated so the Figure 14/15 overhead experiments land in the paper's
// regime (millisecond-scale overheads against a seconds-scale application).
// The byte constants implement the documented .text-size proxy used by the
// Table 2 experiment: we cannot compile for MSP430 here, so code size is
// estimated per generated construct.
#ifndef SRC_SIM_COST_MODEL_H_
#define SRC_SIM_COST_MODEL_H_

#include <array>
#include <cstddef>
#include <cstdint>

#include "src/base/time.h"

namespace artemis {

// A task commit writes its staged samples plus this fixed record (status
// flip, commit pointers) to NVM.
inline constexpr std::size_t kCommitRecordBytes = 32;

struct CostModel {
  // --- Cycle costs (1 cycle == 1 us at 1 MHz) ---------------------------
  // Kernel bookkeeping per task boundary (status switch, commit pointers).
  std::uint32_t kernel_boundary_cycles = 160;
  // Building a MonitorEvent (Figure 9 checkTask): timestamp read + struct
  // fill.
  std::uint32_t event_build_cycles = 55;
  // Reading the persistent clock.
  std::uint32_t timestamp_read_cycles = 28;
  // Fixed cost of crossing the runtime->monitor interface (callMonitor).
  std::uint32_t monitor_call_cycles = 85;
  // Per-property step when monitors are *interpreted* FSMs.
  std::uint32_t interp_step_cycles = 46;
  // Per-property step for builtin ("generated C") monitors; cheaper, the
  // code is straight-line.
  std::uint32_t builtin_step_cycles = 14;
  // Per-property step for compiled (bytecode) monitors: flat slot-indexed
  // dispatch, cheaper than tree interpretation but still a dispatch loop.
  std::uint32_t compiled_step_cycles = 18;
  // Mayfly's fused inline check per boundary (expiration + collect only).
  std::uint32_t mayfly_check_cycles = 72;
  // Applying a corrective action (getNextTask with a violation).
  std::uint32_t action_apply_cycles = 95;
  // Boot-time restore work after a power failure (monitorFinalize + kernel
  // state reload).
  std::uint32_t reboot_restore_cycles = 1400;
  // Committing one task's outputs to NVM, per byte.
  double nvm_commit_cycles_per_byte = 0.5;
  // Flight recorder (src/flight): encoding one record into its varint
  // payload.
  std::uint32_t flight_record_build_cycles = 34;
  // Flight recorder: one FRAM byte write including the ring-pointer
  // arithmetic around it. FRAM writes are slower than the bulk commit path,
  // which batches word writes.
  double flight_nvm_write_cycles_per_byte = 4.0;
  // Flight recorder: a control-word update (head advance per evicted
  // record).
  std::uint32_t flight_control_write_cycles = 6;
  // Hot-swap (src/swap): fixed bookkeeping per swap attempt — plan lookup,
  // quiescence check, and the single image-header epoch flip that commits
  // the replacement (docs/hotswap.md).
  std::uint32_t swap_control_cycles = 120;
  // Hot-swap: staging one byte of migrated monitor state into the
  // replacement image's FRAM region (same write path as the flight ring).
  double swap_nvm_write_cycles_per_byte = 4.0;

  // --- .text size proxy (bytes) -----------------------------------------
  std::size_t text_kernel_base = 980;          // task executor shared by both systems
  std::size_t text_artemis_runtime_extra = 532;  // event plumbing + action dispatch
  std::size_t text_mayfly_runtime_extra = 172;   // fused checks live in the loop
  std::size_t text_monitor_base = 1240;          // monitor engine + ImmortalThreads shims
  std::size_t text_per_state = 96;
  std::size_t text_per_transition = 148;
  std::size_t text_per_variable = 18;

  // MCU electrical profile.
  Milliwatts mcu_active_power = 0.66;  // ~220 uA @ 3 V at 1 MHz.
  std::uint64_t clock_hz = 1'000'000;

  constexpr SimDuration CyclesToTime(double cycles) const {
    return static_cast<SimDuration>(cycles * 1e6 / static_cast<double>(clock_hz));
  }

  // A task commit of `bytes` (staged samples plus kCommitRecordBytes): the
  // NVM write and the boundary's bookkeeping.
  constexpr double CommitCycles(std::size_t bytes) const {
    return nvm_commit_cycles_per_byte * static_cast<double>(bytes) + kernel_boundary_cycles;
  }
};

// Calibrated default used by benches/tests.
const CostModel& DefaultCostModel();

// One charge of a cycle count at the active power.
struct CycleCharge {
  SimDuration duration = 0;
  EnergyUj energy = 0.0;
};

// A CostModel converted at its clock rate and active power: one charge per
// cycle constant, and the commits of tasks that stage fewer than
// kCommitCharges samples. Each holds the bits Of() gives for its count.
// Read-only once built: every Mcu on DefaultCostModel(), on any thread,
// charges from the one Default() set, as every device shares the cost
// constants of its firmware; an Mcu on another model converts its own.
struct CycleCharges {
  static constexpr std::size_t kCommitCharges = 16;

  explicit CycleCharges(const CostModel& costs);

  // The set of DefaultCostModel(), built at its first use.
  static const CycleCharges& Default();

  // Any other cycle count.
  CycleCharge Of(double cycles) const {
    const SimDuration duration = model.CyclesToTime(cycles);
    return CycleCharge{.duration = duration,
                       .energy = EnergyFor(model.mcu_active_power, duration)};
  }

  // The commit of a task that staged `samples` samples.
  CycleCharge Commit(std::size_t samples) const {
    return samples < kCommitCharges
               ? commits[samples]
               : Of(model.CommitCycles(kCommitRecordBytes + samples * sizeof(double)));
  }

  CostModel model;
  CycleCharge kernel_boundary, event_build, timestamp_read, monitor_call;
  CycleCharge interp_step, builtin_step, compiled_step;
  CycleCharge mayfly_check, action_apply, reboot_restore;
  CycleCharge flight_record_build, flight_byte, flight_control;
  CycleCharge swap_control, swap_byte;
  std::array<CycleCharge, kCommitCharges> commits;
};

}  // namespace artemis

#endif  // SRC_SIM_COST_MODEL_H_
