// Batch monitor VM microbenchmark (median-of-K): isolates the batched SoA
// VM from the fleet engine so stepping changes can be measured without
// device-sim noise. Two sections, the timed one K-rep with the median
// reported:
//
//  (1) the health-app machine mix over real captured device streams, in
//      device-events/sec (one device event steps every machine of the
//      spec), plus the measured handler-class mix of that traffic;
//  (2) dead-column elision measured through the fleet feed path (RunFleet
//      with traffic counters): runtime elision rate, the fleet-wide strict
//      dead-column count, and the per-machine static counts that bound it.
//
// Writes BENCH_batch.json.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/apps/health_app.h"
#include "src/base/json.h"
#include "src/base/units.h"
#include "src/fleet/fleet.h"
#include "src/fleet/instance.h"
#include "src/ir/compile.h"
#include "src/monitor/compiled_batch.h"
#include "src/monitor/shared_spec.h"

using namespace artemis;

namespace {

constexpr std::uint32_t kLanes = 4096;
constexpr int kReps = 5;

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

struct Sample {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
};

Sample Summarize(std::vector<double> eps) {
  std::sort(eps.begin(), eps.end());
  Sample s;
  s.min = eps.front();
  s.max = eps.back();
  s.median = eps[eps.size() / 2];
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_batch.json";
  const unsigned host_cpus = std::thread::hardware_concurrency();
  std::printf("=== batch monitor VM microbench (lanes=%u, reps=%d) ===\n\n", kLanes, kReps);

  // ---- (1) health-app machine mix --------------------------------------
  HealthApp app = BuildHealthApp();
  StatusOr<SharedSpecArtifactPtr> artifact =
      BuildSpecArtifact(HealthAppSpec(), app.graph, SpecArtifactStage::kCompiled);
  if (!artifact.ok()) {
    std::fprintf(stderr, "batch_step: %s\n", artifact.status().ToString().c_str());
    return 1;
  }
  const SharedSpecArtifactPtr& art = artifact.value();

  constexpr std::uint64_t kStreamDevices = 8;
  fleet::FleetContext ctx;
  ctx.app = "health";
  ctx.artifact = art;
  std::vector<std::vector<MonitorEvent>> streams(kStreamDevices);
  for (std::uint64_t d = 0; d < kStreamDevices; ++d) {
    fleet::DeviceConfig config;
    config.index = d;
    config.seed = fleet::DeviceSeed(1, d);
    config.charge = 0;
    config.iterations = 10;
    std::vector<fleet::CapturedRecord> records;
    fleet::DeviceInstance instance(ctx, config);
    const fleet::DeviceResult result = instance.RunCapture(&records);
    if (!result.ok || records.empty()) {
      std::fprintf(stderr, "batch_step: capture failed\n");
      return 1;
    }
    for (const fleet::CapturedRecord& record : records) {
      if (record.kind == fleet::CapturedRecord::Kind::kEvent) {
        streams[d].push_back(record.event);
      }
    }
  }
  std::size_t max_stream = 0;
  std::uint64_t events_per_tile = 0;
  for (std::uint32_t lane = 0; lane < kLanes; ++lane) {
    const auto& s = streams[lane % kStreamDevices];
    max_stream = std::max(max_stream, s.size());
    events_per_tile += s.size();
  }

  std::vector<BatchCompiledMonitor> machines;
  machines.reserve(art->compiled.size());
  for (const CompiledMachine& machine : art->compiled) {
    machines.emplace_back(std::shared_ptr<const CompiledMachine>(art, &machine), kLanes);
  }

  constexpr std::uint32_t kTilesPerRep = 12;
  std::size_t max_scope = 0;
  for (const BatchCompiledMonitor& m : machines) {
    if (m.machine().path_scope != kNoPath) {
      max_scope = std::max(max_scope, static_cast<std::size_t>(m.machine().path_scope));
    }
  }
  if (max_scope >= 8) {  // fixed-size path_n[] below; apps use paths 1-3
    std::fprintf(stderr, "batch_step: unexpected path scope %zu\n", max_scope);
    return 1;
  }
  std::vector<std::uint8_t> path_watched(max_scope + 1, 0u);
  for (const BatchCompiledMonitor& m : machines) {
    if (m.machine().path_scope != kNoPath) {
      path_watched[static_cast<std::size_t>(m.machine().path_scope)] = 1u;
    }
  }
  // Machine-pass elision masks, as the fleet's TileStepper builds its
  // column sets (one 64-bit word holds the health mix's columns): one
  // live-column bitmask per machine, checked against the columns present
  // in each pass.
  std::uint32_t mix_max_task = 0;
  for (const BatchCompiledMonitor& m : machines) {
    mix_max_task = std::max(mix_max_task, m.machine().max_task);
  }
  const std::uint32_t mix_cols = mix_max_task + 2u;
  std::vector<std::uint64_t> live_col_mask(machines.size(), 0u);
  for (std::size_t mi = 0; mi < machines.size(); ++mi) {
    for (std::uint32_t kind = 0; kind < 2; ++kind) {
      for (std::uint32_t t = 0; t < mix_cols; ++t) {
        if (!machines[mi].ColumnDead(static_cast<EventKind>(kind),
                                     static_cast<TaskId>(t))) {
          live_col_mask[mi] |= std::uint64_t{1} << (kind * mix_cols + t);
        }
      }
    }
  }
  std::vector<const MonitorEvent*> cursors(kLanes);
  // Fixed-capacity lane lists with explicit counts (no per-pass resizing).
  std::vector<std::uint32_t> live_lanes(kLanes);
  std::vector<std::vector<std::uint32_t>> path_lanes(
      std::max<std::size_t>(max_scope + 1, 8), std::vector<std::uint32_t>(kLanes));
  std::vector<BatchFailure> failures;
  std::vector<std::uint64_t> path_masks(path_lanes.size(), 0u);
  // One tile, fed exactly like the fleet engine: the per-position loop
  // decodes liveness and event path ONCE into lane lists, unscoped machines
  // step the live list, path-scoped machines step only their path's lanes.
  // `elide` is the fleet's machine-pass elision, which it turns off under
  // --stats so the traffic profile counts self-loops. Returns the failures.
  const auto run_tile = [&](bool elide) {
    for (BatchCompiledMonitor& m : machines) {
      for (std::uint32_t lane = 0; lane < kLanes; ++lane) {
        m.HardResetLane(lane);
      }
    }
    std::uint64_t violations = 0;
    for (std::size_t pos = 0; pos < max_stream; ++pos) {
      // Feed: the tile replicates kStreamDevices captured streams across
      // its lanes, so each distinct stream's event decodes ONCE per
      // position; the per-lane loop then just fans the result out into
      // the cursor array and lane lists (the stores every feed layer
      // pays). A real fleet tile decodes per device instead — that cost
      // shows in perfbench's fleet-fresh workload.
      struct StreamAt {
        const MonitorEvent* e = nullptr;
        std::uint8_t watched = 0;
        std::uint8_t path = 0;
      };
      StreamAt at[kStreamDevices];
      std::uint64_t pass_mask = 0;
      std::fill(path_masks.begin(), path_masks.end(), std::uint64_t{0});
      for (std::uint64_t d = 0; d < kStreamDevices; ++d) {
        const auto& stream = streams[d];
        if (pos >= stream.size()) {
          continue;
        }
        const MonitorEvent& event = stream[pos];
        at[d].e = &event;
        const std::uint64_t col_bit =
            std::uint64_t{1}
            << (static_cast<std::uint32_t>(event.kind) * mix_cols +
                std::min(static_cast<std::uint32_t>(event.task), mix_cols - 1u));
        pass_mask |= col_bit;
        const auto p = static_cast<std::size_t>(event.path);
        if (p < path_watched.size() && path_watched[p] != 0u) {
          at[d].watched = 1;
          at[d].path = static_cast<std::uint8_t>(p);
          path_masks[p] |= col_bit;
        }
      }
      std::uint32_t live_n = 0;
      std::uint32_t path_n[8] = {0};
      for (std::uint32_t lane = 0; lane < kLanes; ++lane) {
        const StreamAt& a = at[lane % kStreamDevices];
        cursors[lane] = a.e;
        if (a.e == nullptr) {
          continue;
        }
        live_lanes[live_n++] = lane;
        if (a.watched != 0u) {
          path_lanes[a.path][path_n[a.path]++] = lane;
        }
      }
      for (std::size_t mi = 0; mi < machines.size(); ++mi) {
        BatchCompiledMonitor& m = machines[mi];
        const PathId scope = m.machine().path_scope;
        const auto sp = static_cast<std::size_t>(scope);
        const std::uint32_t* list =
            scope == kNoPath ? live_lanes.data() : path_lanes[sp].data();
        const std::uint32_t count = scope == kNoPath ? live_n : path_n[sp];
        if (count == 0u) {
          continue;
        }
        const std::uint64_t mask = scope == kNoPath ? pass_mask : path_masks[sp];
        if (elide && (mask & live_col_mask[mi]) == 0u) {
          continue;  // Machine-pass elision: all listed lanes self-loop.
        }
        failures.clear();
        m.StepBatchLanes(cursors.data(), list, count, &failures);
        violations += failures.size();
      }
    }
    return violations;
  };

  // One rep = kTilesPerRep full tiles. Throughput is device-events/sec
  // (one device event steps every machine).
  std::vector<double> mix_eps(kReps);
  std::uint64_t mix_violations = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    mix_violations = 0;
    const auto start = Clock::now();
    for (std::uint32_t tile = 0; tile < kTilesPerRep; ++tile) {
      mix_violations += run_tile(/*elide=*/true);
    }
    const double secs = Seconds(start, Clock::now());
    mix_eps[rep] =
        static_cast<double>(events_per_tile) * kTilesPerRep / secs;
  }
  const Sample mix = Summarize(mix_eps);
  std::printf("\nhealth mix (8 machines, device-events/sec, median of %d):\n", kReps);
  std::printf("  %12.0f  (min %.0f, max %.0f)  violations/rep=%llu\n", mix.median, mix.min,
              mix.max, static_cast<unsigned long long>(mix_violations));

  // Untimed traffic pass: the measured handler-class mix of this workload.
  for (BatchCompiledMonitor& m : machines) {
    m.EnableTraffic();
  }
  run_tile(/*elide=*/false);
  std::array<std::uint64_t, BatchCompiledMonitor::kNumClasses> class_traffic{};
  for (BatchCompiledMonitor& m : machines) {
    const std::vector<std::uint64_t> t = m.ClassTraffic();
    for (std::size_t c = 0; c < t.size(); ++c) {
      class_traffic[c] += t[c];
    }
  }
  std::uint64_t traffic_total = 0;
  for (const std::uint64_t c : class_traffic) {
    traffic_total += c;
  }
  static const char* kClassNames[BatchCompiledMonitor::kNumClasses] = {
      "self_loop", "commit", "store_field_commit", "guard_elapsed_commit", "general"};
  std::printf("  measured class mix:");
  for (std::size_t c = 0; c < class_traffic.size(); ++c) {
    std::printf(" %s=%.1f%%", kClassNames[c],
                100.0 * static_cast<double>(class_traffic[c]) /
                    static_cast<double>(traffic_total ? traffic_total : 1));
  }
  std::printf("\n");

  // ---- (2) elision through the fleet feed path -------------------------
  fleet::FleetSpec spec;
  spec.app = "health";
  spec.monitor = "batch";
  spec.devices = 2000;
  spec.seed = 1;
  spec.charges = {0, 6 * kMinute - kSecond};
  spec.iterations = 1;
  StatusOr<fleet::FleetOutcome> fleet_outcome = fleet::RunFleet(spec);
  if (!fleet_outcome.ok() || !fleet_outcome.value().AllOk()) {
    std::fprintf(stderr, "batch_step: elision fleet failed\n");
    return 1;
  }
  const fleet::FleetOutcome& fo = fleet_outcome.value();
  const double elision_rate =
      fo.agg.monitor_events == 0
          ? 0.0
          : static_cast<double>(fo.agg.monitor_events_elided) /
                static_cast<double>(fo.agg.monitor_events);
  std::printf("\nfleet feed-path elision (%llu devices):\n",
              static_cast<unsigned long long>(spec.devices));
  std::printf("  events=%llu elided=%llu rate=%.4f  fleet dead columns=%u/%u\n",
              static_cast<unsigned long long>(fo.agg.monitor_events),
              static_cast<unsigned long long>(fo.agg.monitor_events_elided), elision_rate,
              fo.dead_columns, fo.total_columns);
  std::printf("  per-machine static dead columns:");
  for (const BatchCompiledMonitor& m : machines) {
    std::printf(" %u/%u", m.dead_column_count(), m.column_count());
  }
  std::printf("\n");

  // ---- JSON -------------------------------------------------------------
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "batch_step: cannot write %s\n", out_path.c_str());
    return 1;
  }
  const auto sample = [](const Sample& s, JsonWriter* w) {
    w->BeginObject(JsonLayout::kInline).Key("median").Fixed(s.median, 0);
    w->Key("min").Fixed(s.min, 0).Key("max").Fixed(s.max, 0).End();
  };
  std::string json;
  JsonWriter w(&json);
  w.BeginObject(JsonLayout::kBlock).Key("bench").String("batch_step");
  w.Key("host_cpus").Int(host_cpus).Key("lanes").Int(kLanes).Key("reps").Int(kReps);
  w.Key("health_mix").BeginObject(JsonLayout::kBlock);
  w.Key("machines").Int(machines.size()).Key("tiles_per_rep").Int(kTilesPerRep);
  w.Key("device_events_per_rep").Int(events_per_tile * kTilesPerRep);
  sample(mix, &w.Key("device_events_per_sec"));
  w.Key("note").String("device-events/sec: one device event steps every machine").End();
  w.Key("measured_class_traffic").BeginObject(JsonLayout::kInline);
  for (std::size_t c = 0; c < class_traffic.size(); ++c) {
    w.Key(kClassNames[c]).Int(class_traffic[c]);
  }
  w.End().Key("elision").BeginObject(JsonLayout::kBlock).Key("fleet_devices").Int(spec.devices);
  w.Key("monitor_events").Int(fo.agg.monitor_events);
  w.Key("monitor_events_elided").Int(fo.agg.monitor_events_elided);
  w.Key("elision_rate").Fixed(elision_rate, 6).Key("fleet_dead_columns").Int(fo.dead_columns);
  w.Key("fleet_total_columns").Int(fo.total_columns);
  w.Key("per_machine_dead_columns").BeginArray(JsonLayout::kInline);
  for (const BatchCompiledMonitor& m : machines) {
    w.BeginArray(JsonLayout::kInline).Int(m.dead_column_count()).Int(m.column_count()).End();
  }
  w.End();
  w.Key("note").String(
      "health machines are path-scoped; the fleet elides via per-path dead tables, and the "
      "strict all-machine dead-column count is 0 because one path-0 machine has a catch-all "
      "state — the honest elision rate on this app is near zero, the win comes from in-VM "
      "self-loop dropping (see measured_class_traffic)");
  w.End().End();
  out << json << '\n';
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
