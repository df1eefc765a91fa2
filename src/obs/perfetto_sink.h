// Chrome trace-event exporter: emits a JSON document loadable in Perfetto
// (ui.perfetto.dev) or chrome://tracing. One process, one track (thread)
// per component (sim / kernel / monitor), plus counter tracks for the
// stored-charge fraction and cumulative energy. Task executions render as
// complete ("X") slices on the kernel track; monitor verdicts as slices
// whose width is the per-event monitor cycle cost; everything else as
// instant events. Timestamps use the omniscient simulation clock so
// charging outages appear as gaps. Walkthrough: docs/tracing.md.
#ifndef SRC_OBS_PERFETTO_SINK_H_
#define SRC_OBS_PERFETTO_SINK_H_

#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "src/base/json.h"
#include "src/obs/bus.h"

namespace artemis::obs {

class PerfettoSink : public Sink {
 public:
  // `out` must outlive the sink. Events are buffered; Flush() writes the
  // complete JSON document exactly once.
  PerfettoSink(std::ostream& out, std::vector<std::string> task_names = {});

  void OnEvent(const Event& event) override;
  void Flush() override;

 private:
  std::string SliceName(const Event& event) const;
  void WriteEvent(const Event& event, JsonWriter* writer);

  std::ostream& out_;
  std::vector<std::string> task_names_;
  std::vector<Event> buffered_;
  // Open task execution: task id -> true-time of its kernel.task-start.
  std::map<std::uint32_t, SimTime> open_tasks_;
  bool flushed_ = false;
};

}  // namespace artemis::obs

#endif  // SRC_OBS_PERFETTO_SINK_H_
