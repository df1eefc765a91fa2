#include "src/ir/state_machine.h"

#include <algorithm>
#include <sstream>

namespace artemis {

const char* TriggerKindName(TriggerKind kind) {
  switch (kind) {
    case TriggerKind::kStartTask:
      return "startTask";
    case TriggerKind::kEndTask:
      return "endTask";
    case TriggerKind::kAnyEvent:
      return "anyEvent";
  }
  return "?";
}

const char* SlotTypeName(SlotType type) {
  switch (type) {
    case SlotType::kFlag:
      return "flag";
    case SlotType::kCounter:
      return "counter";
    case SlotType::kTime:
      return "time";
  }
  return "?";
}

std::size_t SlotTypeWidth(SlotType type) {
  switch (type) {
    case SlotType::kFlag:
      return 1;
    case SlotType::kCounter:
      return 4;
    case SlotType::kTime:
      return 8;
  }
  return 8;
}

int StateMachine::StateIndex(const std::string& state) const {
  const auto it = std::find(states.begin(), states.end(), state);
  return it == states.end() ? -1 : static_cast<int>(it - states.begin());
}

Status StateMachine::Validate() const {
  if (states.empty()) {
    return Status::FailedPrecondition("machine '" + name + "' has no states");
  }
  if (!HasState(initial)) {
    return Status::FailedPrecondition("machine '" + name + "': initial state '" + initial +
                                      "' not declared");
  }
  for (const Transition& t : transitions) {
    if (!HasState(t.from) || !HasState(t.to)) {
      return Status::FailedPrecondition("machine '" + name + "': transition " + t.from + "->" +
                                        t.to + " references undeclared state");
    }
    if (t.trigger != TriggerKind::kAnyEvent && t.task == kInvalidTask) {
      return Status::FailedPrecondition("machine '" + name + "': " +
                                        TriggerKindName(t.trigger) +
                                        " trigger must name a task");
    }
    std::map<std::string, int> used;
    if (t.guard != nullptr) {
      CollectVars(*t.guard, &used);
    }
    CollectVars(t.body, &used);
    for (const auto& [var, _] : used) {
      if (variables.find(var) == variables.end()) {
        return Status::FailedPrecondition("machine '" + name + "': undeclared variable '" +
                                          var + "'");
      }
    }
  }
  return Status::Ok();
}

std::string StateMachine::ToString() const {
  std::ostringstream out;
  out << "machine " << name << " (" << property_label << ")\n";
  out << "  initial: " << initial << '\n';
  if (path_scope != kNoPath) {
    out << "  pathScope: " << path_scope << '\n';
  }
  for (const auto& [var, value] : variables) {
    out << "  var " << var << " = " << value << '\n';
  }
  for (const Transition& t : transitions) {
    out << "  " << t.from << " -> " << t.to << " : " << TriggerKindName(t.trigger);
    if (t.trigger != TriggerKind::kAnyEvent) {
      out << "(task#" << t.task << ")";
    }
    if (t.guard != nullptr) {
      out << " [" << ExprToC(*t.guard) << "]";
    }
    if (!t.body.empty()) {
      out << " / " << t.body.size() << " stmt(s)";
    }
    out << '\n';
  }
  return out.str();
}

}  // namespace artemis
