// Deterministic JSONL exporter: one compact JSON object per line, a
// versioned header line first, then one line per event in publish order.
// Identical runs produce byte-identical output (fixed key order, the
// JsonWriter's fixed float precision, no host timestamps), which is what
// `artemisc trace diff` and the golden-trace regression test rely on.
// Schema reference: docs/tracing.md.
#ifndef SRC_OBS_JSONL_SINK_H_
#define SRC_OBS_JSONL_SINK_H_

#include <ostream>
#include <string>
#include <vector>

#include "src/base/json.h"
#include "src/obs/bus.h"

namespace artemis::obs {

// Current schema identifier, emitted in the header line. Bump on any
// breaking change to field names or formatting.
inline constexpr const char* kJsonlSchema = "artemis-trace/1";

struct JsonlOptions {
  // Metadata for the header line; empty fields are omitted.
  std::string app;       // demo app name
  std::string power;     // power-model name ("fixed-charge", "always-on", ...)
  std::string schedule;  // human-readable schedule knob ("6min", "continuous")
  std::string backend;   // monitor backend name
  // Task names indexed by TaskId; when set, event lines carry "name".
  std::vector<std::string> task_names;
};

// Writes the header's optional run fields (app, power, schedule, backend),
// each only when set. The artemis-flight/1 dump header shares them.
void WriteRunFields(const JsonlOptions& options, JsonWriter* writer);
// Writes the "tasks" array when task names are set.
void WriteTaskNames(const JsonlOptions& options, JsonWriter* writer);

class JsonlSink : public Sink {
 public:
  // `out` must outlive the sink. The header line is written immediately.
  JsonlSink(std::ostream& out, JsonlOptions options = {});

  void OnEvent(const Event& event) override;
  void Flush() override;

  // Renders one event as its JSONL line (no trailing newline). Exposed so
  // tests can assert on single-event serialization.
  static std::string EventLine(const Event& event,
                               const std::vector<std::string>& task_names);

 private:
  std::ostream& out_;
  JsonlOptions options_;
};

}  // namespace artemis::obs

#endif  // SRC_OBS_JSONL_SINK_H_
