#include "src/flight/forensics.h"

#include <cmath>
#include <cstdio>
#include <map>
#include <sstream>
#include <utility>

#include "src/base/json.h"

namespace artemis::flight {

namespace {

std::string TaskName(const FlightMeta& meta, std::uint32_t task) {
  if (task < meta.run.task_names.size()) {
    return meta.run.task_names[task];
  }
  return "task" + std::to_string(task);
}

// Spec hashes render as fixed-width hex so timelines and dumps line up.
std::string Hex16(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

}  // namespace

const char* ActionCodeName(std::uint8_t code) {
  switch (code) {
    case 0:
      return "none";
    case 1:
      return "restartTask";
    case 2:
      return "skipTask";
    case 3:
      return "restartPath";
    case 4:
      return "skipPath";
    case 5:
      return "completePath";
  }
  return "unknown";
}

FlightMeta MetaFromRecorder(const FlightRecorder& recorder) {
  FlightMeta meta;
  meta.level = FlightLevelName(recorder.level());
  meta.capacity = recorder.capacity();
  meta.reboots = recorder.current_epoch();
  meta.stats = recorder.stats();
  return meta;
}

std::string RenderDumpJsonl(const std::vector<FlightRecord>& records,
                            const FlightMeta& meta) {
  std::string out;
  JsonWriter w(&out);
  w.BeginObject(JsonLayout::kCompact);
  w.Key("schema").String(kFlightSchema);
  obs::WriteRunFields(meta.run, &w);
  w.Key("level").String(meta.level).Key("capacity").Int(meta.capacity);
  w.Key("reboots").Int(meta.reboots).Key("sealed").Int(meta.stats.records_sealed);
  w.Key("aborted").Int(meta.stats.appends_aborted).Key("evicted").Int(meta.stats.records_evicted);
  w.Key("dropped").Int(meta.stats.records_dropped).Key("bytes_sealed").Int(meta.stats.bytes_sealed);
  w.Key("decoded").Int(records.size());
  obs::WriteTaskNames(meta.run, &w);
  w.End();
  out += '\n';

  for (const FlightRecord& r : records) {
    w.BeginObject(JsonLayout::kCompact).Key("kind").String(RecordKindName(r.kind));
    w.Key("t").Int(r.time);
    const auto task = [&]() -> JsonWriter& {  // the fields every task record starts with
      w.Key("seq").Int(r.seq).Key("task").Int(r.task);
      return w.Key("name").String(TaskName(meta, r.task));
    };
    switch (r.kind) {
      case RecordKind::kBoot:
        w.Key("epoch").Int(r.epoch);
        break;
      case RecordKind::kTaskStart:
        task().Key("path").Int(r.path).Key("attempt").Int(r.attempt);
        break;
      case RecordKind::kTaskEnd:
        task().Key("path").Int(r.path);
        break;
      case RecordKind::kCommit:
        task().Key("bytes").Int(r.bytes);
        break;
      case RecordKind::kVerdict:
        task().Key("action").String(ActionCodeName(r.action)).Key("target_path").Int(r.target_path);
        break;
      case RecordKind::kChargeSnapshot:
        w.Key("epoch").Int(r.epoch).Key("frac").Fixed(r.fraction_milli / 1000.0, 3);
        break;
      case RecordKind::kSwapEpoch:
        w.Key("old_hash").String(Hex16(r.old_hash)).Key("new_hash").String(Hex16(r.new_hash));
        w.Key("image_epoch").Int(r.image_epoch);
        break;
    }
    w.End();
    out += '\n';
  }
  return out;
}

std::string RenderTimeline(const std::vector<FlightRecord>& records,
                           const FlightMeta& meta) {
  std::ostringstream out;
  out << "== flight timeline: " << records.size() << " record(s), "
      << meta.reboots << " reboot(s)";
  if (!meta.run.app.empty()) {
    out << ", app=" << meta.run.app;
  }
  out << ", level=" << meta.level << " ==\n";
  bool in_epoch = false;
  std::uint32_t last_epoch = 0;
  if (!records.empty() && records.front().kind != RecordKind::kBoot) {
    out << "epoch ?  (boot record evicted; oldest surviving records follow)\n";
    in_epoch = true;
  }
  for (const FlightRecord& r : records) {
    if (r.kind == RecordKind::kBoot) {
      if (in_epoch) {
        out << "  -- reboot --\n";
      }
      out << "epoch " << r.epoch << "  boot @ " << FormatTimestamp(r.time);
      if (in_epoch && r.epoch > last_epoch + 1) {
        out << "   [" << (r.epoch - last_epoch - 1)
            << " epoch(s) lost: boot records evicted or never written]";
      } else if (!in_epoch && r.epoch > 0) {
        out << "   [" << r.epoch << " earlier epoch(s) evicted]";
      }
      out << "\n";
      in_epoch = true;
      last_epoch = r.epoch;
      continue;
    }
    out << "  " << FormatTimestamp(r.time) << " " << RecordKindName(r.kind);
    switch (r.kind) {
      case RecordKind::kTaskStart:
        out << " seq=" << r.seq << " " << TaskName(meta, r.task) << " path=" << r.path
            << " attempt=" << r.attempt;
        break;
      case RecordKind::kTaskEnd:
        out << " seq=" << r.seq << " " << TaskName(meta, r.task) << " path=" << r.path;
        break;
      case RecordKind::kCommit:
        out << " seq=" << r.seq << " " << TaskName(meta, r.task) << " bytes=" << r.bytes;
        break;
      case RecordKind::kVerdict:
        out << " seq=" << r.seq << " " << TaskName(meta, r.task) << " action="
            << ActionCodeName(r.action);
        if (r.target_path != 0) {
          out << " target_path=" << r.target_path;
        }
        break;
      case RecordKind::kChargeSnapshot:
        out << " frac=" << FormatFixed(r.fraction_milli / 1000.0, 3);
        break;
      case RecordKind::kSwapEpoch:
        out << " spec " << Hex16(r.old_hash) << " -> " << Hex16(r.new_hash)
            << " image-epoch=" << r.image_epoch
            << "   [monitor image replaced; verdicts after this line are the new spec's]";
        break;
      case RecordKind::kBoot:
        break;
    }
    out << "\n";
  }
  out << "lost tail: " << meta.stats.appends_aborted
      << " append(s) aborted by power failure, " << meta.stats.records_evicted
      << " record(s) evicted by the ring, " << meta.stats.records_dropped
      << " dropped oversize\n";
  return out.str();
}

AuditReport Audit(const std::vector<FlightRecord>& records,
                  const std::vector<obs::Event>& bus_events) {
  AuditReport report;
  // Boot matching is positional: flight epoch e > 0 corresponds to the e-th
  // sim.boot; epoch 0 to the initial kernel.boot. Collect the stored-energy
  // fraction each boot published for the charge-snapshot cross-check.
  std::vector<double> boot_fracs;
  bool saw_kernel_boot = false;
  for (const obs::Event& e : bus_events) {
    if (e.kind == obs::Kind::kKernelBoot && !saw_kernel_boot) {
      saw_kernel_boot = true;
      boot_fracs.push_back(e.energy_fraction);
    } else if (e.kind == obs::Kind::kSimBoot) {
      boot_fracs.push_back(e.energy_fraction);
    }
  }
  std::vector<bool> consumed(bus_events.size(), false);
  auto find_match = [&](auto&& pred) {
    for (std::size_t i = 0; i < bus_events.size(); ++i) {
      if (!consumed[i] && pred(bus_events[i])) {
        consumed[i] = true;
        return true;
      }
    }
    return false;
  };
  for (const FlightRecord& r : records) {
    ++report.checked;
    bool ok = false;
    std::string expect;
    switch (r.kind) {
      case RecordKind::kBoot:
        ok = r.epoch < boot_fracs.size();
        expect = "boot event for epoch " + std::to_string(r.epoch);
        break;
      case RecordKind::kTaskStart:
        ok = find_match([&](const obs::Event& e) {
          return e.kind == obs::Kind::kTaskStart && e.seq == r.seq && e.task == r.task &&
                 e.path == r.path && e.attempt == r.attempt;
        });
        expect = "kernel.task-start seq=" + std::to_string(r.seq);
        break;
      case RecordKind::kTaskEnd:
        ok = find_match([&](const obs::Event& e) {
          return e.kind == obs::Kind::kTaskEnd && e.seq == r.seq && e.task == r.task &&
                 e.path == r.path;
        });
        expect = "kernel.task-end seq=" + std::to_string(r.seq);
        break;
      case RecordKind::kCommit:
        ok = find_match([&](const obs::Event& e) {
          return e.kind == obs::Kind::kCommit && e.seq == r.seq && e.task == r.task &&
                 e.value == static_cast<double>(r.bytes);
        });
        expect = "kernel.commit seq=" + std::to_string(r.seq) + " bytes=" +
                 std::to_string(r.bytes);
        break;
      case RecordKind::kVerdict:
        ok = find_match([&](const obs::Event& e) {
          return e.kind == obs::Kind::kMonitorVerdict && e.seq == r.seq &&
                 e.action == ActionCodeName(r.action);
        });
        expect = std::string("monitor.verdict seq=") + std::to_string(r.seq) +
                 " action=" + ActionCodeName(r.action);
        break;
      case RecordKind::kChargeSnapshot: {
        // Taken right after the boot record, so it must sit within a small
        // drain (the reboot restore cost) of what the boot event published.
        const double frac = static_cast<double>(r.fraction_milli) / 1000.0;
        ok = r.epoch < boot_fracs.size() &&
             std::fabs(frac - boot_fracs[r.epoch]) <= 0.05;
        expect = "boot energy fraction near " + FormatFixed(r.fraction_milli / 1000.0, 3) +
                 " for epoch " + std::to_string(r.epoch);
        break;
      }
      case RecordKind::kSwapEpoch:
        // The swap commit is device-internal truth — the obs bus has no
        // counterpart event (the record's seal *is* the commit), so the
        // audit accepts it and relies on the image-epoch monotonicity the
        // decoder already enforces structurally.
        ok = true;
        break;
    }
    if (ok) {
      ++report.matched;
    } else {
      report.mismatches.push_back(std::string(RecordKindName(r.kind)) + " @ " +
                                  FormatTimestamp(r.time) + ": no bus event matching " +
                                  expect);
    }
  }
  return report;
}

std::string RenderAudit(const AuditReport& report, const FlightMeta& meta) {
  std::ostringstream out;
  out << "== flight audit: " << report.matched << "/" << report.checked
      << " record(s) matched against the obs-bus trace (level=" << meta.level
      << ") ==\n";
  for (const std::string& m : report.mismatches) {
    out << "MISMATCH: " << m << "\n";
  }
  out << (report.ok() ? "audit: OK\n" : "audit: FAILED\n");
  return out.str();
}

std::vector<Finding> Detect(const std::vector<FlightRecord>& records,
                            const DetectOptions& options) {
  std::vector<Finding> findings;
  // Non-termination: a task-start observed at attempt >= threshold means the
  // task kept restarting without completing. Report the worst attempt per
  // (task, path) site.
  std::map<std::pair<std::uint32_t, std::uint32_t>, FlightRecord> worst;
  for (const FlightRecord& r : records) {
    if (r.kind != RecordKind::kTaskStart || r.attempt < options.min_attempts) {
      continue;
    }
    auto key = std::make_pair(r.task, r.path);
    auto it = worst.find(key);
    if (it == worst.end() || r.attempt > it->second.attempt) {
      worst[key] = r;
    }
  }
  for (const auto& [key, r] : worst) {
    findings.push_back({"non-termination", r.time,
                        "task " + std::to_string(r.task) + " path " +
                            std::to_string(r.path) + " reached attempt " +
                            std::to_string(r.attempt) + " without completing"});
  }
  // Restart-without-progress: consecutive boot epochs with no commit or
  // task-end sealed between them.
  std::uint32_t barren = 0;
  SimTime barren_start = 0;
  bool progressed = true;
  for (const FlightRecord& r : records) {
    if (r.kind == RecordKind::kBoot) {
      if (progressed) {
        barren = 1;
        barren_start = r.time;
      } else {
        ++barren;
        if (barren == options.barren_epochs) {
          findings.push_back({"no-progress", barren_start,
                              std::to_string(barren) +
                                  " consecutive epoch(s) without a commit or task "
                                  "completion starting at " +
                                  FormatTimestamp(barren_start)});
        }
      }
      progressed = false;
    } else if (r.kind == RecordKind::kCommit || r.kind == RecordKind::kTaskEnd) {
      progressed = true;
    }
  }
  // MITD gap: silence between consecutive records longer than the budget.
  for (std::size_t i = 1; i < records.size(); ++i) {
    const SimTime prev = records[i - 1].time;
    const SimTime cur = records[i].time;
    if (cur > prev && cur - prev > options.max_gap) {
      findings.push_back({"mitd-gap", prev,
                          "no record for " + FormatDuration(cur - prev) + " after " +
                              FormatTimestamp(prev)});
    }
  }
  return findings;
}

std::string RenderDetect(const std::vector<Finding>& findings, const FlightMeta& meta) {
  std::ostringstream out;
  out << "== flight detect: " << findings.size() << " finding(s) (level=" << meta.level
      << ") ==\n";
  for (const Finding& f : findings) {
    out << f.signature << " @ " << FormatTimestamp(f.time) << ": " << f.message << "\n";
  }
  if (findings.empty()) {
    out << "detect: no signatures fired\n";
  }
  return out.str();
}

}  // namespace artemis::flight
