// Compiled monitor backend: executes the slot-indexed bytecode form
// produced by src/ir/compile.h. Per event it does an indexed dispatch from
// (current state, event kind, task id) straight to one fused handler
// program — guards, bodies and the state commit of every candidate
// transition inlined back to back — and runs it in a single flat postfix
// pass over a dense double array. No string comparison, map lookup,
// expression-tree walk, or per-transition call anywhere on the hot path.
// Semantics are identical to InterpretedMonitor (enforced by the
// differential fuzz test in tests/compiled_monitor_test.cc).
#ifndef SRC_MONITOR_COMPILED_H_
#define SRC_MONITOR_COMPILED_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/ir/compile.h"
#include "src/monitor/monitor.h"
#include "src/monitor/vm_core.h"

namespace artemis {

class CompiledMonitor final : public Monitor {
 public:
  explicit CompiledMonitor(CompiledMachine machine)
      : CompiledMonitor(std::make_shared<const CompiledMachine>(std::move(machine))) {}
  // Shares an immutable compiled program (a CompiledSpecCache artifact slot)
  // across monitor instances: the bytecode, pools, and dispatch table are
  // read-only after compilation, so N sweep workers can execute the same
  // machine concurrently while each keeps its own state/slot/stack arrays.
  explicit CompiledMonitor(std::shared_ptr<const CompiledMachine> machine);

  // Step is defined inline (below, on top of the shared VM core in
  // vm_core.h) so host-side sweep loops that hold a CompiledMonitor by
  // concrete type get the whole VM inlined into their event loop — the
  // class is final, so such calls devirtualize, and keeping the body
  // visible lets them also inline.
  bool Step(const MonitorEvent& event, MonitorVerdict* verdict) override;
  bool Reacts(EventKind kind, TaskId task) const override {
    return machine_->Reacts(kind, task);
  }
  void HardReset() override;
  void OnPathRestart(PathId path) override;
  const std::string& label() const override { return machine_->property_label; }
  std::size_t FramBytes() const override;

  // Test hooks, mirroring InterpretedMonitor's.
  const std::string& current_state() const { return machine_->state_names[current_]; }
  double VarValue(const std::string& name) const;
  const CompiledMachine& machine() const { return *machine_; }

  // Hot-swap entry points (src/swap/hotswap.cc). The controller captures
  // the FRAM-resident execution state of the retiring image and installs
  // the migrated values into the freshly-built replacement monitor.
  std::uint16_t current_id() const { return current_; }
  const std::vector<double>& slots() const { return slots_; }
  void InstallMigratedState(std::uint16_t state, std::vector<double> slots) {
    current_ = state;
    slots_ = std::move(slots);
    slots_.resize(machine_->initial_slots.size(), 0.0);
  }

 private:
  std::shared_ptr<const CompiledMachine> machine_;
  // FRAM-resident execution state: dense state id + variable slots.
  std::uint16_t current_ = 0;
  std::vector<double> slots_;
  // Scratch operand stack, sized once from machine_.max_stack.
  std::vector<double> stack_;
};

inline bool CompiledMonitor::Step(const MonitorEvent& event, MonitorVerdict* verdict) {
  if (machine_->path_scope != kNoPath && event.path != machine_->path_scope) {
    return false;  // Out-of-scope events are invisible to this machine.
  }
  VmFailure failure;
  const bool failed =
      RunCompiledHandler(*machine_, machine_->HandlerFor(current_, event.kind, event.task),
                         event, &current_, slots_.data(), stack_.data(), &failure);
  if (failed) {
    const FailRecord& fail = machine_->fail_pool[failure.fail_index];
    verdict->action = fail.action;
    verdict->target_path = fail.target_path;
    verdict->property = fail.property;
  }
  return failed;
}

}  // namespace artemis

#endif  // SRC_MONITOR_COMPILED_H_
