#include "src/monitor/compiled.h"

#include <algorithm>

namespace artemis {

CompiledMonitor::CompiledMonitor(std::shared_ptr<const CompiledMachine> machine)
    : machine_(std::move(machine)),
      current_(machine_->initial),
      slots_(machine_->initial_slots),
      stack_(std::max<std::uint32_t>(machine_->max_stack, 1), 0.0) {}

void CompiledMonitor::HardReset() {
  current_ = machine_->initial;
  slots_ = machine_->initial_slots;
}

void CompiledMonitor::OnPathRestart(PathId path) {
  if (!machine_->reset_on_path_restart) {
    return;
  }
  if (machine_->path_scope != kNoPath && machine_->path_scope != path) {
    return;
  }
  current_ = machine_->initial;
  // As in the interpreter: counters keep their values, only the control
  // state re-initializes.
}

std::size_t CompiledMonitor::FramBytes() const { return CompiledStateFramBytes(*machine_); }

double CompiledMonitor::VarValue(const std::string& name) const {
  for (std::size_t i = 0; i < machine_->var_names.size(); ++i) {
    if (machine_->var_names[i] == name) {
      return slots_[i];
    }
  }
  return 0.0;
}

}  // namespace artemis
