// State-machine interpreter backend: executes an intermediate-language
// machine directly. Semantics (Section 3.3): transitions are tried in
// declaration order from the current state; the first whose trigger and
// guard match fires; events matching no transition are accepted with no
// state change (implicit self-transition).
//
// The constructor interns state names and groups transition indices by
// from-state, so Step only scans transitions that actually leave the
// current state (the compiled backend in compiled.h goes further and
// flattens guards/bodies too).
#ifndef SRC_MONITOR_INTERP_H_
#define SRC_MONITOR_INTERP_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/ir/state_machine.h"
#include "src/monitor/monitor.h"

namespace artemis {

class InterpretedMonitor final : public Monitor {
 public:
  explicit InterpretedMonitor(StateMachine machine)
      : InterpretedMonitor(std::make_shared<const StateMachine>(std::move(machine))) {}
  // Shares an immutable machine (e.g. one slot of a CompiledSpecCache
  // artifact) across monitor instances: only the execution state (current
  // state + variable environment) is per-instance.
  explicit InterpretedMonitor(std::shared_ptr<const StateMachine> machine);

  bool Step(const MonitorEvent& event, MonitorVerdict* verdict) override;
  // Some transition is triggered by (kind, task), or by anyEvent.
  bool Reacts(EventKind kind, TaskId task) const override;
  void HardReset() override;
  void OnPathRestart(PathId path) override;
  const std::string& label() const override { return machine_->property_label; }
  double StepCycles(const CostModel& costs) const override;
  std::size_t FramBytes() const override;

  // Test hooks.
  const std::string& current_state() const { return machine_->states[current_]; }
  double VarValue(const std::string& name) const;
  const StateMachine& machine() const { return *machine_; }

 private:
  static bool TriggerMatches(const Transition& t, EventKind kind, TaskId task);

  std::shared_ptr<const StateMachine> machine_;
  // Transition indices leaving each state (index == position of the state
  // in machine_.states), declaration order preserved.
  std::vector<std::vector<std::uint32_t>> by_state_;
  // Per-transition destination state index (avoids re-resolving t.to).
  std::vector<std::size_t> to_index_;
  std::size_t initial_index_ = 0;
  // FRAM-resident execution state.
  std::size_t current_ = 0;
  VarEnv env_;
};

}  // namespace artemis

#endif  // SRC_MONITOR_INTERP_H_
