// Task model for task-based intermittent programs (Chain / InK / Alpaca
// style): atomic units with all-or-nothing semantics, arranged into paths.
#ifndef SRC_KERNEL_TASK_H_
#define SRC_KERNEL_TASK_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>

#include "src/base/time.h"

namespace artemis {

using TaskId = std::uint32_t;
// Paths are numbered from 1, matching the paper's "Path: 2" syntax.
using PathId = std::uint32_t;

inline constexpr TaskId kInvalidTask = std::numeric_limits<TaskId>::max();
inline constexpr PathId kNoPath = 0;

// Figure 8/9 task statuses. A task is READY until its execution commits.
enum class TaskStatus : std::uint8_t { kReady = 0, kFinished = 1 };

class TaskContext;  // Defined in channel.h.

// The data-manipulation body of a task; runs exactly once per committed
// execution, at commit time, so re-execution after a power failure is
// idempotent by construction.
//
// Contract: an effect is a pure function of its TaskContext. It may capture
// only constant parameters, and it reaches per-device state (the kernel's
// Rng and committed channels) only through the context. A producer's TaskId
// resolved when the graph is built is such a constant: it names the same
// task in every device running the graph, so an effect reads and consumes
// its producer by id, without a name lookup per call. One AppGraph is the
// read-only template of many devices at once, like firmware .text shared by
// every device (sweep::AppTemplate); an effect that kept state of its own
// would leak it between devices and race between the threads running them.
using TaskEffect = std::function<void(TaskContext&)>;

struct TaskWork {
  // Compute/peripheral time per execution.
  SimDuration duration = 10 * kMillisecond;
  // Average power draw during that time (MCU + peripheral).
  Milliwatts power = 0.66;
};

struct TaskDef {
  std::string name;
  TaskWork work;
  TaskEffect effect;  // May be empty; pure (see TaskEffect).
  // Name of the task's monitored dependent variable (the `monitor avgTemp`
  // declaration in Figure 4). When set, EndTask events carry its committed
  // value as dep_data.
  std::optional<std::string> monitored_var;
};

}  // namespace artemis

#endif  // SRC_KERNEL_TASK_H_
