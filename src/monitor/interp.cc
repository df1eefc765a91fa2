#include "src/monitor/interp.h"

#include <algorithm>

namespace artemis {

InterpretedMonitor::InterpretedMonitor(std::shared_ptr<const StateMachine> machine)
    : machine_(std::move(machine)), env_(machine_->variables) {
  // An undeclared state (a machine that skipped Validate) maps to state 0.
  const auto index = [this](const std::string& state) {
    return static_cast<std::size_t>(std::max(machine_->StateIndex(state), 0));
  };
  initial_index_ = index(machine_->initial);
  current_ = initial_index_;
  by_state_.resize(machine_->states.size());
  to_index_.reserve(machine_->transitions.size());
  for (std::uint32_t i = 0; i < machine_->transitions.size(); ++i) {
    const Transition& t = machine_->transitions[i];
    by_state_[index(t.from)].push_back(i);
    to_index_.push_back(index(t.to));
  }
}

void InterpretedMonitor::HardReset() {
  current_ = initial_index_;
  env_ = machine_->variables;
}

void InterpretedMonitor::OnPathRestart(PathId path) {
  if (!machine_->reset_on_path_restart) {
    return;
  }
  if (machine_->path_scope != kNoPath && machine_->path_scope != path) {
    return;
  }
  current_ = initial_index_;
  // Counters keep their values; only the control state re-initializes, so a
  // maxDuration machine abandons its in-flight measurement.
}

bool InterpretedMonitor::TriggerMatches(const Transition& t, EventKind kind, TaskId task) {
  switch (t.trigger) {
    case TriggerKind::kStartTask:
      return kind == EventKind::kStartTask && task == t.task;
    case TriggerKind::kEndTask:
      return kind == EventKind::kEndTask && task == t.task;
    case TriggerKind::kAnyEvent:
      return true;
  }
  return false;
}

bool InterpretedMonitor::Reacts(EventKind kind, TaskId task) const {
  for (const Transition& t : machine_->transitions) {
    if (TriggerMatches(t, kind, task)) {
      return true;
    }
  }
  return false;
}

bool InterpretedMonitor::Step(const MonitorEvent& event, MonitorVerdict* verdict) {
  if (machine_->path_scope != kNoPath && event.path != machine_->path_scope) {
    return false;  // Out-of-scope events are invisible to this machine.
  }
  // Only transitions leaving the current state are candidates; unrelated
  // states are never scanned.
  for (const std::uint32_t i : by_state_[current_]) {
    const Transition& t = machine_->transitions[i];
    if (!TriggerMatches(t, event.kind, event.task)) {
      continue;
    }
    if (t.guard != nullptr && EvalExpr(*t.guard, env_, event) == 0.0) {
      continue;
    }
    const bool failed = ExecStmts(t.body, &env_, event, verdict);
    current_ = to_index_[i];
    return failed;
  }
  return false;  // Implicit self-transition.
}

double InterpretedMonitor::StepCycles(const CostModel& costs) const {
  return costs.interp_step_cycles;
}

std::size_t InterpretedMonitor::FramBytes() const {
  // Current-state word plus one double per machine variable.
  return sizeof(std::uint16_t) + machine_->variables.size() * sizeof(double);
}

double InterpretedMonitor::VarValue(const std::string& name) const {
  const auto it = env_.find(name);
  return it != env_.end() ? it->second : 0.0;
}

}  // namespace artemis
