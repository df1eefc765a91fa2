#include "src/monitor/compiled_batch.h"

#include <algorithm>
#include <utility>

#include "src/monitor/vm_core.h"

namespace artemis {

BatchCompiledMonitor::BatchCompiledMonitor(std::shared_ptr<const CompiledMachine> machine,
                                           std::uint32_t lanes)
    : machine_(std::move(machine)),
      stride_(std::max<std::uint32_t>(
          static_cast<std::uint32_t>(machine_->initial_slots.size()), 1)),
      current_(lanes, machine_->initial),
      slots_(static_cast<std::size_t>(lanes) * stride_, 0.0),
      stack_(std::max<std::uint32_t>(machine_->max_stack, 1), 0.0) {
  for (std::uint32_t lane = 0; lane < lanes; ++lane) {
    HardResetLane(lane);
  }
  class_of_.reserve(machine_->dispatch.size());
  for (const std::uint32_t pc : machine_->dispatch) {
    class_of_.push_back(static_cast<std::uint8_t>(Classify(pc)));
  }
}

BatchCompiledMonitor::HandlerClass BatchCompiledMonitor::Classify(std::uint32_t pc) const {
  const Instr* const code = machine_->code.data();
  switch (code[pc].op) {
    case OpCode::kNoMatch:
      return HandlerClass::kSelfLoop;
    case OpCode::kCommit:
      // A leading kCommit means guard-free and body-free by construction
      // (body statements would precede it in the program).
      return HandlerClass::kCommit;
    case OpCode::kStoreFieldCommit:
      return HandlerClass::kStoreFieldCommit;
    case OpCode::kGuardCommitElapsedLt:
    case OpCode::kGuardCommitElapsedLe:
    case OpCode::kGuardCommitElapsedGt:
    case OpCode::kGuardCommitElapsedGe:
    case OpCode::kGuardCommitElapsedEq:
    case OpCode::kGuardCommitElapsedNe:
      // A single candidate only when guard failure lands on a bare
      // kNoMatch; otherwise the program is a multi-candidate chain.
      return code[code[pc + 2].operand].op == OpCode::kNoMatch
                 ? HandlerClass::kGuardElapsedCommit
                 : HandlerClass::kGeneral;
    default:
      return HandlerClass::kGeneral;
  }
}

void BatchCompiledMonitor::StepBatchLanes(const MonitorEvent* const* events,
                                          const std::uint32_t* lane_list, std::uint32_t count,
                                          std::vector<BatchFailure>* failures) {
  if (traffic_.empty()) {
    StepLanes<false>(events, lane_list, count, failures);
  } else {
    StepLanes<true>(events, lane_list, count, failures);
  }
}

template <bool kTraffic>
void BatchCompiledMonitor::StepLanes(const MonitorEvent* const* events,
                                     const std::uint32_t* lane_list, std::uint32_t count,
                                     std::vector<BatchFailure>* failures) {
  const CompiledMachine& m = *machine_;
  const std::uint8_t* const class_of = class_of_.data();
  const std::uint32_t* const dispatch = m.dispatch.data();
  std::uint16_t* const current = current_.data();
  double* const slots = slots_.data();
  double* const stack = stack_.data();
  const std::uint32_t stride = stride_;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t lane = lane_list[i];
    const MonitorEvent& e = *events[lane];
    const std::uint32_t entry = m.Entry(current[lane], e.kind, e.task);
    if constexpr (kTraffic) {
      ++traffic_[entry];
    }
    if (class_of[entry] == static_cast<std::uint8_t>(HandlerClass::kSelfLoop)) {
      continue;  // No-op event: lane state untouched.
    }
    VmFailure failure;
    if (RunCompiledHandler(m, dispatch[entry], e, current + lane, slots + lane * stride, stack,
                           &failure)) {
      const FailRecord& fail = m.fail_pool[failure.fail_index];
      failures->push_back(
          BatchFailure{lane, fail.action, fail.target_path, failure.fail_index});
    }
  }
}

void BatchCompiledMonitor::HardResetLane(std::uint32_t lane) {
  current_[lane] = machine_->initial;
  std::copy(machine_->initial_slots.begin(), machine_->initial_slots.end(), lane_slots(lane));
}

void BatchCompiledMonitor::OnPathRestartLane(std::uint32_t lane, PathId path) {
  if (!machine_->reset_on_path_restart) {
    return;
  }
  if (machine_->path_scope != kNoPath && machine_->path_scope != path) {
    return;
  }
  current_[lane] = machine_->initial;
  // As in the scalar backends: counters keep their values, only the
  // control state re-initializes.
}

void BatchCompiledMonitor::EnableTraffic() {
  traffic_.assign(entry_count(), 0u);
}

std::vector<std::uint64_t> BatchCompiledMonitor::ClassTraffic() const {
  std::vector<std::uint64_t> counts(kNumClasses, 0);
  for (std::size_t i = 0; i < traffic_.size(); ++i) {
    counts[class_of_[i]] += traffic_[i];
  }
  return counts;
}

BatchCompiledMonitor::EntryInfo BatchCompiledMonitor::DecodeEntry(std::uint32_t entry) const {
  const std::uint32_t span = machine_->max_task + 2u;
  const std::uint32_t row = entry / span;
  const std::uint32_t col = entry % span;
  EntryInfo info;
  info.task = col == span - 1u ? -1 : static_cast<int>(col);  // -1: any-task column
  info.kind = static_cast<int>(row & 1u);
  info.state = static_cast<std::uint16_t>(row >> 1u);
  return info;
}

double BatchCompiledMonitor::LaneVarValue(std::uint32_t lane, const std::string& name) const {
  for (std::size_t i = 0; i < machine_->var_names.size(); ++i) {
    if (machine_->var_names[i] == name) {
      return lane_slots(lane)[i];
    }
  }
  return 0.0;
}

std::vector<std::uint64_t> BatchCompiledMonitor::ClassHistogram() const {
  const std::uint32_t span = machine_->max_task + 2u;
  std::vector<std::uint64_t> counts(kNumClasses, 0);
  for (std::size_t entry = 0; entry < class_of_.size(); ++entry) {
    if (entry % span != span - 1u) {
      ++counts[class_of_[entry]];
    }
  }
  return counts;
}

}  // namespace artemis
