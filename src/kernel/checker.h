// The runtime <-> property-checker interface.
//
// The kernel emits StartTask/EndTask events (Section 3.4) and receives a
// verdict that may demand a corrective action (Table 1). ARTEMIS implements
// this interface with generated monitors (src/monitor); Mayfly implements it
// with fused inline checks (src/mayfly); a null checker turns monitoring
// off. This is the paper's central modularity claim: the kernel below this
// interface never changes when property checking changes.
#ifndef SRC_KERNEL_CHECKER_H_
#define SRC_KERNEL_CHECKER_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/base/time.h"
#include "src/kernel/task.h"

namespace artemis {

class Mcu;

enum class EventKind : std::uint8_t { kStartTask = 0, kEndTask = 1 };

const char* EventKindName(EventKind kind);

// The persistent MonitorEvent structure (Figure 8, `MonitorEvent_t`).
struct MonitorEvent {
  EventKind kind = EventKind::kStartTask;
  SimTime timestamp = 0;
  TaskId task = kInvalidTask;
  // Path (1-based) within which the task is executing. Needed because of
  // path merging: a property qualified with "Path: 2" only applies when its
  // task runs as part of path 2 (Figure 5, line 6).
  PathId path = kNoPath;
  // Monotonic id assigned by the kernel per delivered event; resumed
  // deliveries of the same event reuse the id so monitors can complete
  // interrupted processing exactly once (Section 4.2.3).
  std::uint64_t seq = 0;
  // Monitored dependent variable committed by the task (dpData), if any.
  bool has_dep_data = false;
  double dep_data = 0.0;
  // Stored-energy fraction at event time, for the Section 4.2.2
  // energy-awareness extension property.
  double energy_fraction = 1.0;
};

// Corrective actions (Table 1).
enum class ActionType : std::uint8_t {
  kNone = 0,
  kRestartTask,
  kSkipTask,
  kRestartPath,
  kSkipPath,
  kCompletePath,
};

const char* ActionTypeName(ActionType action);

// Severity used by the default arbitration policy: larger wins.
int ActionSeverity(ActionType action);

struct MonitorVerdict {
  ActionType action = ActionType::kNone;
  // Explicit target for path actions ("Path: 2" in Figure 5); kNoPath means
  // the current path.
  PathId target_path = kNoPath;
  // Diagnostics for traces: which property on which task fired. A view of
  // a label owned by the checker that produced the verdict (a spec
  // artifact's machine, a builtin monitor, a Mayfly rule); the checker
  // keeps that storage alive for as long as it may hand the verdict out.
  std::string_view property;

  bool violated() const { return action != ActionType::kNone; }
};

// Outcome of a checker invocation. When status != kOk the kernel reboots
// its loop; the checker must have persisted enough progress to resume the
// same event on the next call.
struct CheckOutcome {
  // ExecStatus from src/sim/mcu.h, widened here to avoid a header cycle.
  int status = 0;  // 0 == ExecStatus::kOk
  MonitorVerdict verdict;
};

class PropertyChecker {
 public:
  virtual ~PropertyChecker() = default;

  // One-time hard reset at the application's very first boot (Figure 8,
  // resetMonitor).
  virtual void HardReset(Mcu& mcu) = 0;

  // Called at every reboot before the main loop resumes (Figure 8,
  // monitorFinalize). Implementations complete any interrupted event
  // processing here or lazily on the next OnEvent with the same seq.
  virtual void Finalize(Mcu& mcu) = 0;

  // Figure 10 callMonitor. May be re-invoked with the same event (same seq)
  // after a power failure; must resume, not restart.
  virtual CheckOutcome OnEvent(const MonitorEvent& event, Mcu& mcu) = 0;

  // The runtime restarted `path`; monitors linked to its already-started
  // tasks must re-initialize (Section 3.3).
  virtual void OnPathRestart(PathId path, Mcu& mcu) = 0;

  virtual std::string Name() const = 0;
};

// A checker that never reports violations; zero overhead beyond the call.
class NullChecker : public PropertyChecker {
 public:
  void HardReset(Mcu&) override {}
  void Finalize(Mcu&) override {}
  CheckOutcome OnEvent(const MonitorEvent&, Mcu&) override { return CheckOutcome{}; }
  void OnPathRestart(PathId, Mcu&) override {}
  std::string Name() const override { return "null"; }
};

}  // namespace artemis

#endif  // SRC_KERNEL_CHECKER_H_
