#include "src/kernel/app_graph.h"

#include <algorithm>
#include <utility>

namespace artemis {

TaskId AppGraph::AddTask(TaskDef def) {
  tasks_.push_back(std::move(def));
  return static_cast<TaskId>(tasks_.size() - 1);
}

PathId AppGraph::AddPath(std::vector<TaskId> tasks) {
  paths_.push_back(std::move(tasks));
  return static_cast<PathId>(paths_.size());
}

StatusOr<PathId> AppGraph::AddPathByNames(const std::vector<std::string>& names) {
  std::vector<TaskId> ids;
  ids.reserve(names.size());
  for (const std::string& name : names) {
    const std::optional<TaskId> id = FindTask(name);
    if (!id.has_value()) {
      return Status::NotFound("no task named '" + name + "'");
    }
    ids.push_back(*id);
  }
  return AddPath(std::move(ids));
}

std::optional<TaskId> AppGraph::FindTask(const std::string& name) const {
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    if (tasks_[i].name == name) {
      return static_cast<TaskId>(i);
    }
  }
  return std::nullopt;
}

std::vector<PathId> AppGraph::PathsContaining(TaskId task) const {
  std::vector<PathId> out;
  for (std::size_t p = 0; p < paths_.size(); ++p) {
    for (TaskId t : paths_[p]) {
      if (t == task) {
        out.push_back(static_cast<PathId>(p + 1));
        break;
      }
    }
  }
  return out;
}

PathId AppGraph::ScopeFor(PathId qualifier, TaskId anchor) const {
  if (qualifier == kNoPath || qualifier > paths_.size()) {
    return kNoPath;
  }
  const std::vector<TaskId>& tasks = paths_[qualifier - 1];
  return std::find(tasks.begin(), tasks.end(), anchor) != tasks.end() ? qualifier : kNoPath;
}

Status AppGraph::Validate() const {
  if (paths_.empty()) {
    return Status::FailedPrecondition("application has no paths");
  }
  for (std::size_t p = 0; p < paths_.size(); ++p) {
    if (paths_[p].empty()) {
      return Status::FailedPrecondition("path #" + std::to_string(p + 1) + " is empty");
    }
    for (TaskId t : paths_[p]) {
      if (t >= tasks_.size()) {
        return Status::OutOfRange("path #" + std::to_string(p + 1) +
                                  " references unknown task id " + std::to_string(t));
      }
    }
  }
  return Status::Ok();
}

}  // namespace artemis
