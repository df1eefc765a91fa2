#include "src/monitor/builtin.h"

namespace artemis {

bool MaxTriesMonitor::Step(const MonitorEvent& event, MonitorVerdict* verdict) {
  if (!InScope(event) || event.task != task_) {
    return false;
  }
  if (event.kind == EventKind::kEndTask) {
    tries_ = 0;
    return false;
  }
  // StartTask: mirrors the Figure 7 machine — the (max+1)-th consecutive
  // start signals the failure and resets the counter.
  if (tries_ >= max_) {
    tries_ = 0;
    FillVerdict(verdict, action_);
    return true;
  }
  ++tries_;
  return false;
}

bool MaxDurationMonitor::Step(const MonitorEvent& event, MonitorVerdict* verdict) {
  if (!started_) {
    if (InScope(event) && event.kind == EventKind::kStartTask && event.task == task_) {
      started_ = true;
      start_ = event.timestamp;
    }
    return false;
  }
  // Started: anyEvent past the limit is a violation (Figure 7, property 2);
  // note anyEvent intentionally ignores the path scope the way the
  // interpreted machine does not get out-of-scope events at all, so scope
  // filter applies to every event here as well.
  if (!InScope(event)) {
    return false;
  }
  const SimDuration elapsed = event.timestamp >= start_ ? event.timestamp - start_ : 0;
  if (elapsed > limit_) {
    started_ = false;
    FillVerdict(verdict, action_);
    return true;
  }
  if (event.kind == EventKind::kEndTask && event.task == task_) {
    started_ = false;  // Completed in time.
  }
  return false;
}

void MaxDurationMonitor::OnPathRestart(PathId path) {
  if (scope_path_ == kNoPath || scope_path_ == path) {
    started_ = false;
  }
}

bool CollectMonitor::Step(const MonitorEvent& event, MonitorVerdict* verdict) {
  if (!InScope(event)) {
    return false;
  }
  if (event.kind == EventKind::kEndTask && event.task == dep_) {
    ++have_;
    return false;
  }
  if (event.kind == EventKind::kEndTask && event.task == task_) {
    have_ = 0;  // The collecting task committed: samples are consumed.
    return false;
  }
  if (event.kind == EventKind::kStartTask && event.task == task_) {
    if (have_ >= count_) {
      // Enough samples; a power-failure re-execution of the task passes
      // again because consumption happens at commit, not at start.
      return false;
    }
    FillVerdict(verdict, action_);
    return true;
  }
  return false;
}

bool MitdMonitor::Step(const MonitorEvent& event, MonitorVerdict* verdict) {
  if (!InScope(event)) {
    return false;
  }
  if (event.kind == EventKind::kEndTask && event.task == dep_) {
    end_dep_ = event.timestamp;  // Enter (or refresh) WaitStartA.
    waiting_ = true;
    return false;
  }
  if (event.kind == EventKind::kEndTask && event.task == task_) {
    attempts_ = 0;  // The dependent task committed: the attempt succeeded.
    return false;
  }
  // The monitor stays armed after a start: every start of A — including a
  // power-failure re-execution — is checked against the latest completion
  // of B, matching the Figure 10 generated code (which compares against the
  // dependent task's finish time on each event).
  if (waiting_ && event.kind == EventKind::kStartTask && event.task == task_) {
    const SimDuration delay = event.timestamp >= end_dep_ ? event.timestamp - end_dep_ : 0;
    if (delay <= limit_) {
      return false;  // In time; the counter clears when the task commits.
    }
    if (max_attempt_ > 0 && attempts_ + 1 >= max_attempt_) {
      attempts_ = 0;
      FillVerdict(verdict, max_action_, max_label_);
      return true;
    }
    ++attempts_;
    FillVerdict(verdict, action_);
    return true;
  }
  return false;
}

bool PeriodMonitor::Step(const MonitorEvent& event, MonitorVerdict* verdict) {
  if (!InScope(event) || event.kind != EventKind::kStartTask || event.task != task_) {
    return false;
  }
  if (!started_) {
    started_ = true;
    last_ = event.timestamp;
    return false;
  }
  const SimDuration gap = event.timestamp >= last_ ? event.timestamp - last_ : 0;
  last_ = event.timestamp;
  if (gap > bound_) {
    FillVerdict(verdict, action_);
    return true;
  }
  return false;
}

bool DpDataMonitor::Step(const MonitorEvent& event, MonitorVerdict* verdict) {
  if (!InScope(event) || event.kind != EventKind::kEndTask || event.task != task_ ||
      !event.has_dep_data) {
    return false;
  }
  if (event.dep_data < lo_ || event.dep_data > hi_) {
    FillVerdict(verdict, action_);
    return true;
  }
  return false;
}

bool MinEnergyMonitor::Step(const MonitorEvent& event, MonitorVerdict* verdict) {
  if (!InScope(event) || event.kind != EventKind::kStartTask || event.task != task_) {
    return false;
  }
  if (event.energy_fraction < fraction_) {
    FillVerdict(verdict, action_);
    return true;
  }
  return false;
}

StatusOr<std::unique_ptr<Monitor>> MakeBuiltinMonitor(const PropertyAst& property,
                                                      const std::string& task_name,
                                                      const AppGraph& graph) {
  const std::optional<TaskId> anchor = graph.FindTask(task_name);
  if (!anchor.has_value()) {
    return Status::Internal("MakeBuiltinMonitor: unknown task '" + task_name + "'");
  }
  TaskId dep = kInvalidTask;
  if (!property.dp_task.empty()) {
    const std::optional<TaskId> found = graph.FindTask(property.dp_task);
    if (!found.has_value()) {
      return Status::Internal("MakeBuiltinMonitor: unknown dpTask '" + property.dp_task + "'");
    }
    dep = *found;
  }
  const std::string label = property.Label(task_name);
  const PathId scope = graph.ScopeFor(property.path, *anchor);
  std::unique_ptr<Monitor> monitor;
  switch (property.kind) {
    case PropertyKind::kMaxTries:
      monitor = std::make_unique<MaxTriesMonitor>(label, *anchor, property.count,
                                                  property.on_fail, property.path, scope);
      break;
    case PropertyKind::kMaxDuration:
      monitor = std::make_unique<MaxDurationMonitor>(label, *anchor, property.duration,
                                                     property.on_fail, property.path, scope);
      break;
    case PropertyKind::kCollect:
      monitor = std::make_unique<CollectMonitor>(label, *anchor, dep, property.count,
                                                 property.on_fail, property.path, scope);
      break;
    case PropertyKind::kMitd:
      monitor = std::make_unique<MitdMonitor>(label, *anchor, dep, property.duration,
                                              property.on_fail, property.max_attempt,
                                              property.max_attempt_action, property.path,
                                              scope);
      break;
    case PropertyKind::kPeriod:
      monitor = std::make_unique<PeriodMonitor>(label, *anchor, property.duration,
                                                property.jitter, property.on_fail,
                                                property.path, scope);
      break;
    case PropertyKind::kDpData:
      monitor = std::make_unique<DpDataMonitor>(label, *anchor, property.range_lo,
                                                property.range_hi, property.on_fail,
                                                property.path, scope);
      break;
    case PropertyKind::kMinEnergy:
      monitor = std::make_unique<MinEnergyMonitor>(label, *anchor, property.min_energy,
                                                   property.on_fail, property.path, scope);
      break;
  }
  return monitor;
}

}  // namespace artemis
