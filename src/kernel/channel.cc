#include "src/kernel/channel.h"

#include "src/kernel/app_graph.h"

namespace artemis {

const std::vector<double> TaskContext::kEmpty{};

void ChannelStore::AppendSamples(TaskId task, const std::vector<double>& values) {
  auto& samples = slots_[task].samples;
  samples.insert(samples.end(), values.begin(), values.end());
}

void ChannelStore::RecordCompletion(TaskId task, SimTime when) {
  ++slots_[task].completions;
  slots_[task].last_completion = when;
}

std::size_t ChannelStore::FootprintBytes() const {
  std::size_t bytes = 0;
  for (const Slot& slot : slots_) {
    bytes += sizeof(Slot) + slot.samples.capacity() * sizeof(double);
  }
  return bytes;
}

TaskContext::TaskContext(const AppGraph* graph, const ChannelStore* store, TaskId self,
                         SimTime now, Rng* rng)
    : graph_(graph), store_(store), self_(self), now_(now), rng_(rng) {}

const std::vector<double>& TaskContext::SamplesOf(const std::string& task_name) const {
  const std::optional<TaskId> id = graph_->FindTask(task_name);
  if (!id.has_value()) {
    return kEmpty;
  }
  return store_->Samples(*id);
}

void TaskContext::ConsumeAll(const std::string& task_name) {
  const std::optional<TaskId> id = graph_->FindTask(task_name);
  if (id.has_value()) {
    consumes_.push_back(*id);
  }
}

}  // namespace artemis
