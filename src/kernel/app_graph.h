// Application graph: the set of tasks and the ordered paths through them.
//
// A path is a sequence of tasks executed in order; the application executes
// its paths in declaration order and completes when the last path completes
// (Section 4.1.2 "Path and Task Order"). Tasks may appear in several paths
// ("path merging", e.g. the `send` task in Figure 6).
#ifndef SRC_KERNEL_APP_GRAPH_H_
#define SRC_KERNEL_APP_GRAPH_H_

#include <optional>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/kernel/task.h"

namespace artemis {

class AppGraph {
 public:
  TaskId AddTask(TaskDef def);

  // Adds a path as an ordered list of task ids; returns its 1-based number.
  PathId AddPath(std::vector<TaskId> tasks);
  // Convenience: path from task names; all names must already exist.
  StatusOr<PathId> AddPathByNames(const std::vector<std::string>& names);

  std::size_t task_count() const { return tasks_.size(); }
  std::size_t path_count() const { return paths_.size(); }

  const TaskDef& task(TaskId id) const { return tasks_[id]; }
  TaskDef& task(TaskId id) { return tasks_[id]; }
  const std::vector<TaskId>& path(PathId id) const { return paths_[id - 1]; }

  std::optional<TaskId> FindTask(const std::string& name) const;
  const std::string& TaskName(TaskId id) const { return tasks_[id].name; }

  // Paths (1-based numbers) that contain the given task.
  std::vector<PathId> PathsContaining(TaskId task) const;

  // Validation: every path non-empty, every referenced task exists, at least
  // one path.
  Status Validate() const;

 private:
  std::vector<TaskDef> tasks_;
  std::vector<std::vector<TaskId>> paths_;
};

}  // namespace artemis

#endif  // SRC_KERNEL_APP_GRAPH_H_
