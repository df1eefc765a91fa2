#include "src/obs/perfetto_sink.h"

#include <optional>
#include <string_view>

namespace artemis::obs {
namespace {

// Track (thread) ids within the single trace process.
int Tid(Component component) { return static_cast<int>(component) + 1; }

// Opens a record; the caller writes its other fields and closes it.
JsonWriter& Record(JsonWriter* w, std::string_view name, const char* phase) {
  return w->BeginObject(JsonLayout::kCompact).Key("name").String(name).Key("ph").String(phase);
}

}  // namespace

PerfettoSink::PerfettoSink(std::ostream& out, std::vector<std::string> task_names)
    : out_(out), task_names_(std::move(task_names)) {}

void PerfettoSink::OnEvent(const Event& event) { buffered_.push_back(event); }

std::string PerfettoSink::SliceName(const Event& e) const {
  if (e.task != kObsNoTask && e.task < task_names_.size()) {
    return task_names_[e.task];
  }
  if (e.task != kObsNoTask) {
    return "task#" + std::to_string(e.task);
  }
  return KindName(e.kind);
}

void PerfettoSink::WriteEvent(const Event& e, JsonWriter* w) {
  std::string_view name = KindName(e.kind);
  std::string slice;
  SimTime ts = e.true_time;
  std::optional<SimDuration> dur;  // set for complete ("X") slices
  switch (e.kind) {
    case Kind::kTaskStart:
      // Opens a slice; the matching end/abort emits the "X" record.
      open_tasks_[e.task] = e.true_time;
      return;
    case Kind::kTaskEnd:
    case Kind::kTaskAborted:
      if (const auto it = open_tasks_.find(e.task); it != open_tasks_.end()) {
        ts = it->second;
        open_tasks_.erase(it);
      }
      slice = SliceName(e) + (e.kind == Kind::kTaskAborted ? " (aborted)" : "");
      name = slice;
      dur = e.true_time - ts;
      break;
    case Kind::kSimPowerFail:
      // The outage itself as a slice on the sim track: the charge segment.
      name = "charging";
      dur = e.duration;
      break;
    case Kind::kMonitorVerdict:
      // Width = the per-event monitor cycle cost paid just before the
      // verdict was produced.
      name = e.detail.empty() ? std::string_view("verdict") : std::string_view(e.detail);
      ts = e.true_time >= e.duration ? e.true_time - e.duration : 0;
      dur = e.duration;
      break;
    default:
      break;
  }
  Record(w, name, dur.has_value() ? "X" : "i").Key("ts").Int(ts);
  if (dur.has_value()) {
    w->Key("dur").Int(*dur);
  }
  w->Key("pid").Int(1).Key("tid").Int(Tid(ComponentOf(e.kind)));
  if (!dur.has_value()) {
    w->Key("s").String("t");
  }
  w->Key("args").BeginObject(JsonLayout::kCompact);
  w->Key("kind").String(KindName(e.kind)).Key("device_t").Int(e.time);
  if (e.path != kObsNoPath) {
    w->Key("path").Int(e.path);
  }
  if (e.attempt != 0) {
    w->Key("attempt").Int(e.attempt);
  }
  if (e.seq != 0) {
    w->Key("seq").Int(e.seq);
  }
  if (e.value != 0.0) {
    w->Key("value").Fixed(e.value, 4);
  }
  if (!e.action.empty()) {
    w->Key("action").String(e.action);
  }
  if (!e.detail.empty()) {
    w->Key("detail").String(e.detail);
  }
  w->End().End();

  // Counter tracks: stored-charge fraction and cumulative energy.
  if (e.energy_fraction >= 0.0) {
    Record(w, "charge-fraction", "C").Key("ts").Int(e.true_time).Key("pid").Int(1);
    w->Key("args").BeginObject(JsonLayout::kCompact).Key("fraction").Fixed(e.energy_fraction, 6);
    w->End().End();
  }
  if (e.energy_uj >= 0.0) {
    Record(w, "energy-uj", "C").Key("ts").Int(e.true_time).Key("pid").Int(1);
    w->Key("args").BeginObject(JsonLayout::kCompact).Key("uJ").Fixed(e.energy_uj, 4);
    w->End().End();
  }
}

void PerfettoSink::Flush() {
  if (flushed_) {
    return;
  }
  flushed_ = true;
  // traceEvents holds one record per line, unindented; each event's records
  // are drained to the stream before the next event is written.
  std::string buf;
  JsonWriter w(&buf, /*indent=*/0);
  w.BeginObject(JsonLayout::kCompact);
  w.Key("displayTimeUnit").String("ms");
  w.Key("traceEvents").BeginArray(JsonLayout::kBlock);
  Record(&w, "process_name", "M").Key("pid").Int(1).Key("tid").Int(1);
  w.Key("args").BeginObject(JsonLayout::kCompact).Key("name").String("artemis").End().End();
  for (const Component c : {Component::kSim, Component::kKernel, Component::kMonitor}) {
    Record(&w, "thread_name", "M").Key("pid").Int(1).Key("tid").Int(Tid(c));
    w.Key("args").BeginObject(JsonLayout::kCompact).Key("name").String(ComponentName(c));
    w.End().End();
  }
  for (const Event& event : buffered_) {
    WriteEvent(event, &w);
    out_ << buf;
    buf.clear();
  }
  w.End().End();
  buf += '\n';
  out_ << buf;
  out_.flush();
}

}  // namespace artemis::obs
