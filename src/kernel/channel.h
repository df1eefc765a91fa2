// Chain-style channels: committed inter-task data with transactional
// task-scope staging.
//
// Task effects never mutate committed state directly. They stage operations
// (push a sample, consume a task's samples, set the monitored variable)
// against a TaskContext; the kernel applies the staged operations atomically
// at the task's commit point. A power failure before commit discards the
// staging, which is what makes task re-execution idempotent.
#ifndef SRC_KERNEL_CHANNEL_H_
#define SRC_KERNEL_CHANNEL_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/base/rng.h"
#include "src/base/time.h"
#include "src/kernel/task.h"

namespace artemis {

// Committed per-task output data, kept in non-volatile memory.
class ChannelStore {
 public:
  explicit ChannelStore(std::size_t task_count) : slots_(task_count) {}

  const std::vector<double>& Samples(TaskId task) const { return slots_[task].samples; }
  std::uint64_t CompletionCount(TaskId task) const { return slots_[task].completions; }
  std::optional<SimTime> LastCompletion(TaskId task) const {
    return slots_[task].completions > 0 ? std::optional<SimTime>(slots_[task].last_completion)
                                        : std::nullopt;
  }
  std::optional<double> MonitoredValue(TaskId task) const { return slots_[task].monitored; }

  // Commit-time mutations (invoked by the kernel, never by task bodies).
  void AppendSamples(TaskId task, const std::vector<double>& values);
  void ClearSamples(TaskId task) { slots_[task].samples.clear(); }
  void RecordCompletion(TaskId task, SimTime when);
  void SetMonitored(TaskId task, double value) { slots_[task].monitored = value; }

  // Bytes of committed data (for memory accounting).
  std::size_t FootprintBytes() const;

 private:
  struct Slot {
    std::vector<double> samples;
    std::uint64_t completions = 0;
    SimTime last_completion = 0;
    std::optional<double> monitored;
  };
  std::vector<Slot> slots_;
};

// One task execution's staged writes. The kernel owns one and reuses it for
// every task body, as an ARTEMIS device stages a task's outputs in one fixed
// FRAM region (Alpaca's privatization buffer) instead of allocating a buffer
// per task.
struct TaskStaging {
  std::vector<double> samples;
  std::vector<TaskId> consumes;
  std::optional<double> monitored;
};

// The view a task body gets while executing: committed reads, staged writes.
// An effect names other tasks by the TaskId resolved when the graph was
// built (TaskEffect's contract, src/kernel/task.h).
class TaskContext {
 public:
  // Clears `staging`, which then receives this execution's staged writes.
  TaskContext(const ChannelStore* store, TaskId self, SimTime now, Rng* rng,
              TaskStaging* staging);

  TaskId self() const { return self_; }
  SimTime now() const { return now_; }
  Rng& rng() { return *rng_; }

  // --- committed reads --------------------------------------------------
  // Samples previously committed by a task.
  const std::vector<double>& SamplesOf(TaskId task) const { return store_->Samples(task); }

  // --- staged writes (applied atomically at commit) ----------------------
  // Appends one output sample of this task.
  void Push(double value) { staging_->samples.push_back(value); }
  // Consumes (clears) all committed samples of a task at commit.
  void ConsumeAll(TaskId task) { staging_->consumes.push_back(task); }
  // Sets this task's monitored dependent variable (dpData source).
  void SetMonitored(double value) { staging_->monitored = value; }

  // This execution's staged samples so far.
  const std::vector<double>& staged_samples() const { return staging_->samples; }

 private:
  const ChannelStore* store_;
  TaskId self_;
  SimTime now_;
  Rng* rng_;
  TaskStaging* staging_;
};

}  // namespace artemis

#endif  // SRC_KERNEL_CHANNEL_H_
