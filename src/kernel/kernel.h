// The intermittent kernel: executes an AppGraph's paths task by task on the
// simulated MCU, survives power failures, and drives a pluggable
// PropertyChecker with StartTask/EndTask events (Figures 8 and 9).
//
// Boundary protocol (Section 4.1):
//  * Each task is atomic: its body runs, then its staged data effects commit
//    together with the FINISHED status flip. A power failure before the
//    commit point discards everything and the task re-executes.
//  * Before running a READY task the kernel builds a StartTask event and
//    calls the checker; after a task commits it builds an EndTask event with
//    the *preserved* commit timestamp (Section 4.1.3) and calls the checker.
//  * Events carry a persistent sequence number. If a power failure
//    interrupts the checker, the same event (same seq) is re-delivered and
//    the checker resumes; once the verdict has been applied the event is
//    retired. A power failure during the task *body* instead produces a
//    fresh StartTask event, which is how monitors observe re-execution
//    attempts.
#ifndef SRC_KERNEL_KERNEL_H_
#define SRC_KERNEL_KERNEL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/rng.h"
#include "src/base/time.h"
#include "src/kernel/app_graph.h"
#include "src/kernel/channel.h"
#include "src/kernel/checker.h"
#include "src/flight/recorder.h"
#include "src/obs/bus.h"
#include "src/sim/mcu.h"

namespace artemis {

// Hook invoked at task-boundary quiescence points: the kernel is about to
// start a READY task and no monitor event is pending, so the checker's FRAM
// state sits at a transition boundary. The hot-swap controller
// (src/swap/hotswap.h) implements this to apply over-the-air monitor
// replacements; returning kPowerFailure/kStarved aborts the step exactly
// like any other charged work (the hook is re-invoked at the next
// quiescence point after the reboot).
class SwapHook {
 public:
  virtual ~SwapHook() = default;
  virtual ExecStatus AtQuiescence(Mcu& mcu) = 0;
};

struct KernelOptions {
  std::uint64_t seed = 1;
  // Give up (report non-termination) when the simulated wall clock passes
  // this limit. 0 = unlimited.
  SimDuration max_wall_time = 0;
  // Safety valve on boundary crossings, against bugs in checkers.
  std::uint64_t max_steps = 2'000'000;
  // Keep the kernel's own events in memory for trace() (costs host memory
  // only). Off by default: only callers that read the trace pay for it.
  bool record_trace = false;
  // How many times to run the whole path sequence (continuous sensing
  // applications loop forever; benches pick a finite horizon). 0 == 1.
  std::uint64_t app_iterations = 1;
  // Idle (harvest-only) time inserted between iterations, modelling the
  // duty-cycled sleep between sampling rounds.
  SimDuration inter_iteration_gap = 0;
  // On-device flight recorder (src/flight): when set, the kernel seals
  // task-boundary and commit records into the FRAM black box. Unlike the
  // obs bus this costs simulated cycles and can itself be interrupted by a
  // power failure; the recorder must already be attached to the MCU
  // (Mcu::AttachFlightRecorder). nullptr = recording off.
  flight::FlightRecorder* flight = nullptr;
};

// Per-task execution profile (the Section 5.1 measurement that identifies
// `accel` as the highest-consuming task).
struct TaskProfile {
  std::uint64_t commits = 0;  // committed completions
  std::uint64_t aborts = 0;   // power failures inside the task body
  std::uint64_t skips = 0;    // skipTask actions applied at start
  SimDuration busy_time = 0;  // body time including aborted partial runs
  EnergyUj energy = 0.0;      // body energy including aborted partial runs
};

struct KernelRunResult {
  bool completed = false;   // the application executed all paths
  bool starved = false;     // the device could never finish even booting
  bool timed_out = false;   // wall-clock limit hit: non-termination
  SimTime finished_at = 0;  // simulated completion (or give-up) time
  std::uint64_t iterations_completed = 0;  // full passes over the path set
  McuStats stats;           // busy time / energy per component, reboots
};

class IntermittentKernel {
 public:
  // `graph` and `checker` must outlive the kernel. The kernel registers its
  // persistent state with the MCU's NVM arena under MemOwner::kRuntime.
  IntermittentKernel(const AppGraph* graph, PropertyChecker* checker, Mcu* mcu,
                     KernelOptions options = {});

  // Runs the application from its very first boot to completion (or
  // starvation / non-termination).
  KernelRunResult Run();

  // Installs the hot-swap hook (SwapHook above, docs/hotswap.md; nullptr =
  // none). It is set after construction because the controller needs the
  // runtime's MonitorSet.
  void set_swap_hook(SwapHook* hook) { swap_hook_ = hook; }

  // The kernel's task/path lifecycle and commit events in publish order,
  // kept when KernelOptions::record_trace is set: the same events it
  // publishes on the MCU's bus (Mcu::observer).
  const std::vector<obs::Event>& trace() const { return trace_.events(); }
  const std::vector<TaskProfile>& profiles() const { return profiles_; }
  const ChannelStore& channels() const { return channels_; }
  ChannelStore& channels() { return channels_; }
  const AppGraph& graph() const { return *graph_; }
  Mcu& mcu() { return *mcu_; }
  // The task at the current position in the path sequence.
  TaskId current_task() const;

 private:
  // One iteration of the Figure 8 main loop. Returns kPowerFailure when the
  // device rebooted mid-step.
  ExecStatus Step();

  ExecStatus HandleReady(TaskId task);
  ExecStatus HandleFinished(TaskId task);
  ExecStatus RunTaskBody(TaskId task);
  // Applies staging_ atomically at the task's commit point.
  ExecStatus CommitTask(TaskId task);
  ExecStatus RunUnmonitored();

  // Applies a corrective action; state mutation is atomic (commit-point
  // semantics), and the action's cycle cost is charged afterwards.
  ExecStatus ApplyAction(const MonitorVerdict& verdict, EventKind at);

  void AdvanceTask();
  void EnterPath(std::size_t path_idx);
  void MarkAppComplete();

  // Builds (or keeps, when resuming) the pending event for this boundary.
  ExecStatus EnsureStartEvent(TaskId task);
  ExecStatus EnsureEndEvent(TaskId task);

  // Builds one kernel event and hands it to the MCU's bus and, with
  // record_trace, to trace(). When neither listens it returns inline,
  // before building anything. `value` is the kind-specific scalar (commit
  // bytes).
  void Publish(obs::Kind kind, TaskId task, ActionType action = ActionType::kNone,
               std::string_view detail = {}, double value = 0.0) {
    if (mcu_->observer() != nullptr || options_.record_trace) {
      PublishEvent(kind, task, action, detail, value);
    }
  }
  void PublishEvent(obs::Kind kind, TaskId task, ActionType action, std::string_view detail,
                    double value);

  const AppGraph* graph_;
  PropertyChecker* checker_;
  Mcu* mcu_;
  KernelOptions options_;
  SwapHook* swap_hook_ = nullptr;
  Rng rng_;

  // ---- persistent (FRAM) state ----
  std::size_t path_idx_ = 0;   // 0-based index into the path list
  std::size_t task_idx_ = 0;   // position within the current path
  TaskStatus cur_status_ = TaskStatus::kReady;
  SimTime cur_finish_ts_ = 0;  // commit timestamp of the current task
  std::uint32_t cur_attempts_ = 0;
  MonitorEvent event_;         // Figure 8's persistent `event`
  bool event_pending_ = false;
  std::uint64_t event_seq_ = 0;
  bool unmonitored_ = false;   // completePath tail in progress
  bool app_complete_ = false;
  std::uint64_t iterations_done_ = 0;

  ChannelStore channels_;
  // The staging area every task body writes into (TaskStaging).
  TaskStaging staging_;
  obs::CollectingSink trace_;
  std::vector<TaskProfile> profiles_;
};

}  // namespace artemis

#endif  // SRC_KERNEL_KERNEL_H_
