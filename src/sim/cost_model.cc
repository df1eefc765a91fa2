#include "src/sim/cost_model.h"

namespace artemis {

const CostModel& DefaultCostModel() {
  static const CostModel kDefault{};
  return kDefault;
}

CycleCharges::CycleCharges(const CostModel& costs)
    : model(costs),
      kernel_boundary(Of(costs.kernel_boundary_cycles)),
      event_build(Of(costs.event_build_cycles)),
      timestamp_read(Of(costs.timestamp_read_cycles)),
      monitor_call(Of(costs.monitor_call_cycles)),
      interp_step(Of(costs.interp_step_cycles)),
      builtin_step(Of(costs.builtin_step_cycles)),
      compiled_step(Of(costs.compiled_step_cycles)),
      mayfly_check(Of(costs.mayfly_check_cycles)),
      action_apply(Of(costs.action_apply_cycles)),
      reboot_restore(Of(costs.reboot_restore_cycles)),
      flight_record_build(Of(costs.flight_record_build_cycles)),
      flight_byte(Of(costs.flight_nvm_write_cycles_per_byte)),
      flight_control(Of(costs.flight_control_write_cycles)),
      swap_control(Of(costs.swap_control_cycles)),
      swap_byte(Of(costs.swap_nvm_write_cycles_per_byte)) {
  for (std::size_t samples = 0; samples < kCommitCharges; ++samples) {
    commits[samples] = Of(costs.CommitCycles(kCommitRecordBytes + samples * sizeof(double)));
  }
}

const CycleCharges& CycleCharges::Default() {
  static const CycleCharges kDefault(DefaultCostModel());
  return kDefault;
}

}  // namespace artemis
