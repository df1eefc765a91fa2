// The ARTEMIS intermediate language: properties as finite-state machines
// (Section 3.3, Figure 7). Machines are data: they can be interpreted by the
// monitor engine (src/monitor/interp) or translated to C text
// (src/ir/codegen_c), mirroring the paper's model-to-text pipeline.
#ifndef SRC_IR_STATE_MACHINE_H_
#define SRC_IR_STATE_MACHINE_H_

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "src/base/source_span.h"
#include "src/base/status.h"
#include "src/ir/expr.h"
#include "src/kernel/task.h"

namespace artemis {

enum class TriggerKind : std::uint8_t { kStartTask, kEndTask, kAnyEvent };

const char* TriggerKindName(TriggerKind kind);

// Declared width/shape of a persistent monitor slot, used by the hot-swap
// migration planner (src/swap) to reject carrying a value across a type
// change (ART015). Widths follow what codegen_c emits for each role.
enum class SlotType : std::uint8_t {
  kFlag,     // 0/1 marker (e.g. period's "started"), 1 byte on device
  kCounter,  // small monotonic count (maxTries "i", MITD "att"), 4 bytes
  kTime,     // absolute timestamp in sim ticks ("start", "endB"), 8 bytes
};

const char* SlotTypeName(SlotType type);
std::size_t SlotTypeWidth(SlotType type);

struct Transition {
  std::string from;
  std::string to;
  TriggerKind trigger = TriggerKind::kAnyEvent;
  // Task filter for start/end triggers; ignored for kAnyEvent.
  TaskId task = kInvalidTask;
  // Optional guard; null means always enabled.
  ExprPtr guard;
  // Body statements executed when the transition fires.
  std::vector<StmtPtr> body;
};

struct StateMachine {
  std::string name;            // e.g. "mitd_send_accel"
  std::string property_label;  // e.g. "MITD(send<-accel)" for diagnostics
  std::vector<std::string> states;
  std::string initial;
  VarEnv variables;  // name -> initial value
  // name -> declared slot type; variables absent from the map default to
  // kCounter (the conservative legacy width for hand-built machines).
  std::map<std::string, SlotType> slot_types;
  std::vector<Transition> transitions;

  // Position of the originating property in the spec source (0/0 for
  // hand-built machines), so IR-level diagnostics point at the spec text.
  SourceSpan source;

  // The task the property is attached to (the block's task in Figure 5).
  TaskId anchor_task = kInvalidTask;
  // When nonzero, only events from this path are delivered to the machine
  // (path merging, "Path: 2").
  PathId path_scope = kNoPath;
  // Whether a path restart returns the machine to its initial state
  // (in-flight machines like maxDuration) or keeps its counters (collect,
  // maxTries).
  bool reset_on_path_restart = false;

  // Events that do not match any transition are accepted with no state
  // change (implicit self-transition, Section 3.3) — always true in this IR;
  // kept as documentation.

  // Index of `state` in `states`, or -1 when it is not declared.
  int StateIndex(const std::string& state) const;
  bool HasState(const std::string& state) const { return StateIndex(state) >= 0; }

  // Structural checks: initial/from/to states exist, transition guards and
  // bodies only reference declared variables, at most one kFail per body
  // path, start/end triggers carry a task.
  Status Validate() const;

  // Multi-line textual dump for debugging and golden tests.
  std::string ToString() const;
};

}  // namespace artemis

#endif  // SRC_IR_STATE_MACHINE_H_
