#include "src/kernel/channel.h"

namespace artemis {

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

TaskContext::TaskContext(const ChannelStore* store, TaskId self, SimTime now, Rng* rng,
                         TaskStaging* staging)
    : store_(store), self_(self), now_(now), rng_(rng), staging_(staging) {
  staging_->samples.clear();
  staging_->consumes.clear();
  staging_->monitored.reset();
}

}  // namespace artemis
