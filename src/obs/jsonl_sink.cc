#include "src/obs/jsonl_sink.h"

namespace artemis::obs {

std::string JsonlSink::EventLine(const Event& e, const std::vector<std::string>& task_names) {
  std::string line;
  JsonWriter w(&line);
  w.BeginObject(JsonLayout::kCompact).Key("kind").String(KindName(e.kind));
  // `t` is the device clock (what the monitors see); `tt` the omniscient
  // simulation clock. They diverge across outages (docs/tracing.md).
  w.Key("t").Int(e.time).Key("tt").Int(e.true_time);
  if (e.task != kObsNoTask) {
    w.Key("task").Int(e.task);
    if (e.task < task_names.size()) {
      w.Key("name").String(task_names[e.task]);
    }
  }
  if (e.path != kObsNoPath) {
    w.Key("path").Int(e.path);
  }
  if (e.attempt != 0) {
    w.Key("attempt").Int(e.attempt);
  }
  if (e.seq != 0) {
    w.Key("seq").Int(e.seq);
  }
  if (e.duration != 0) {
    w.Key("dur").Int(e.duration);
  }
  if (e.value != 0.0) {
    w.Key("value").Fixed(e.value, 4);
  }
  if (e.energy_uj >= 0.0) {
    w.Key("energy_uj").Fixed(e.energy_uj, 4);
  }
  if (e.energy_fraction >= 0.0) {
    w.Key("frac").Fixed(e.energy_fraction, 6);
  }
  if (!e.action.empty()) {
    w.Key("action").String(e.action);
  }
  if (!e.detail.empty()) {
    w.Key("detail").String(e.detail);
  }
  w.End();
  return line;
}

void WriteRunFields(const JsonlOptions& options, JsonWriter* writer) {
  for (const auto& [key, value] : {std::pair{"app", &options.app},
                                   std::pair{"power", &options.power},
                                   std::pair{"schedule", &options.schedule},
                                   std::pair{"backend", &options.backend}}) {
    if (!value->empty()) {
      writer->Key(key).String(*value);
    }
  }
}

void WriteTaskNames(const JsonlOptions& options, JsonWriter* writer) {
  if (options.task_names.empty()) {
    return;
  }
  writer->Key("tasks").BeginArray(JsonLayout::kCompact);
  for (const std::string& name : options.task_names) {
    writer->String(name);
  }
  writer->End();
}

JsonlSink::JsonlSink(std::ostream& out, JsonlOptions options)
    : out_(out), options_(std::move(options)) {
  std::string header;
  JsonWriter w(&header);
  w.BeginObject(JsonLayout::kCompact);
  w.Key("schema").String(kJsonlSchema);
  WriteRunFields(options_, &w);
  WriteTaskNames(options_, &w);
  w.End();
  out_ << header << '\n';
}

void JsonlSink::OnEvent(const Event& event) {
  out_ << EventLine(event, options_.task_names) << '\n';
}

void JsonlSink::Flush() { out_.flush(); }

}  // namespace artemis::obs
