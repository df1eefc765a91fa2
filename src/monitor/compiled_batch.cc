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

  // Padded per-entry tables: [state][kind][max_task + 2], the last column
  // of every (state, kind) row repeating the state's any-task handler.
  const std::uint32_t span = machine_->max_task + 2u;
  const auto rows = static_cast<std::uint32_t>(machine_->any_handler.size()) * 2u;
  class_of_.resize(static_cast<std::size_t>(rows) * span);
  pc_of_.resize(class_of_.size());
  for (std::uint32_t row = 0; row < rows; ++row) {
    for (std::uint32_t t = 0; t < span; ++t) {
      const std::uint32_t pc = t + 1u < span ? machine_->dispatch[row * (span - 1u) + t]
                                             : machine_->any_handler[row / 2u];
      class_of_[row * span + t] = static_cast<std::uint8_t>(Classify(pc));
      pc_of_[row * span + t] = pc;
    }
  }

  // Dead-column table: (kind, task) is dead when the machine cannot react
  // to it (CompiledMachine::Reacts), i.e. no event on that column can ever
  // change any lane. One extra task slot, past max_task, holds the any-task
  // row's verdict, so ColumnDead stays a single load.
  dead_cols_.resize(2u * span);
  for (std::uint32_t kind = 0; kind < 2; ++kind) {
    for (std::uint32_t t = 0; t < span; ++t) {
      dead_cols_[kind * span + t] =
          machine_->Reacts(static_cast<EventKind>(kind), static_cast<TaskId>(t)) ? 0u : 1u;
      dead_column_count_ += dead_cols_[kind * span + t];
    }
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
  const std::uint32_t span = m.max_task + 2u;
  const std::uint8_t* const class_of = class_of_.data();
  const std::uint32_t* const pc_of = pc_of_.data();
  std::uint16_t* const current = current_.data();
  double* const slots = slots_.data();
  double* const stack = stack_.data();
  const std::uint32_t stride = stride_;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t lane = lane_list[i];
    const MonitorEvent& e = *events[lane];
    const std::uint32_t entry = PaddedEntry(span, current[lane], e.kind, e.task);
    if constexpr (kTraffic) {
      ++traffic_[entry];
    }
    if (class_of[entry] == static_cast<std::uint8_t>(HandlerClass::kSelfLoop)) {
      continue;  // No-op event: lane state untouched.
    }
    VmFailure failure;
    if (RunCompiledHandler(m, pc_of[entry], e, current + lane, slots + lane * stride, stack,
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
  std::vector<std::uint64_t> counts(kNumClasses, 0);
  for (const std::uint32_t pc : machine_->dispatch) {
    ++counts[static_cast<std::size_t>(Classify(pc))];
  }
  return counts;
}

}  // namespace artemis
