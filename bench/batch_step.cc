// StepBatch microbenchmark (median-of-K): isolates the batched SoA VM from
// the fleet engine so kernel changes can be measured without device-sim
// noise. Three sections, all K-rep with the median reported:
//
//  (1) per-handler-class events/sec on synthetic single-class machines —
//      each machine is hand-built so that ONE class handles all traffic
//      (verified via ClassOf before timing; the bench aborts if the
//      compiler stops classifying the shape as intended). The guard class
//      runs twice: dense (all lanes in lockstep -> contiguous cohort, no
//      index indirection) and indexed (alternating lane states -> two
//      strided cohorts), because those are the two kernel paths.
//  (2) the health-app machine mix over real captured device streams, in
//      device-events/sec (one device event steps every machine of the
//      spec).
//  (3) dead-column elision measured through the fleet feed path (RunFleet
//      with traffic counters): runtime elision rate, the fleet-wide strict
//      dead-column count, and the per-machine static counts that bound it.
//
// Writes BENCH_batch.json.
#include <algorithm>
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
#include "src/ir/lowering.h"
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

// ---- synthetic single-class machines ----------------------------------

// S0 <-> S1 on start(0), guard-free, empty body: every dispatched event is
// an unconditional state commit.
StateMachine CommitMachine() {
  StateMachine m;
  m.name = "bench_commit";
  m.property_label = "bench_commit";
  m.states = {"S0", "S1"};
  m.initial = "S0";
  Transition fwd;
  fwd.from = "S0";
  fwd.to = "S1";
  fwd.trigger = TriggerKind::kStartTask;
  fwd.task = 0;
  Transition back = fwd;
  back.from = "S1";
  back.to = "S0";
  m.transitions = {fwd, back};
  return m;
}

// Same shape plus `t0 = event.timestamp` in the body: the fused
// store-field-commit superinstruction.
StateMachine StoreFieldMachine() {
  StateMachine m = CommitMachine();
  m.name = "bench_store";
  m.property_label = "bench_store";
  m.variables = {{"t0", 0.0}};
  for (Transition& t : m.transitions) {
    t.body = {Assign("t0", Field(EventField::kTimestamp))};
  }
  return m;
}

// `(event.timestamp - t0) >= 100` guard, empty body, single candidate per
// bucket, no anyEvent fallback: guard failure lands on the bare kNoMatch
// program, which is exactly the kGuardElapsedCommit shape.
StateMachine GuardElapsedMachine() {
  StateMachine m = CommitMachine();
  m.name = "bench_guard";
  m.property_label = "bench_guard";
  m.variables = {{"t0", 0.0}};
  for (Transition& t : m.transitions) {
    t.guard = Bin(BinOp::kGe, Bin(BinOp::kSub, Field(EventField::kTimestamp), Var("t0")),
                  Const(100));
  }
  return m;
}

// Two candidates in one (start, 0) bucket with a counter guard and a fail
// action: stays on the shared bytecode core.
StateMachine GeneralMachine() {
  StateMachine m;
  m.name = "bench_general";
  m.property_label = "bench_general";
  m.states = {"S0", "S1"};
  m.initial = "S0";
  m.variables = {{"i", 0.0}};
  Transition bump;
  bump.from = "S0";
  bump.to = "S0";
  bump.trigger = TriggerKind::kStartTask;
  bump.task = 0;
  bump.guard = Bin(BinOp::kLt, Var("i"), Const(3));
  bump.body = {Assign("i", Bin(BinOp::kAdd, Var("i"), Const(1)))};
  Transition fire;
  fire.from = "S0";
  fire.to = "S1";
  fire.trigger = TriggerKind::kStartTask;
  fire.task = 0;
  fire.guard = Bin(BinOp::kGe, Var("i"), Const(3));
  fire.body = {Fail(ActionType::kSkipPath, kNoPath, "bench_general"), Assign("i", Const(0))};
  Transition back;
  back.from = "S1";
  back.to = "S0";
  back.trigger = TriggerKind::kAnyEvent;
  m.transitions = {bump, fire, back};
  return m;
}

MonitorEvent StartEvent(SimTime ts) {
  MonitorEvent e;
  e.kind = EventKind::kStartTask;
  e.task = 0;
  e.timestamp = ts;
  return e;
}

// One timed rep: `rounds` StepBatch passes over kLanes lanes, each lane's
// cursor chosen by `pick(lane, round)`. Returns events/sec (null cursors
// excluded). Lane resets are outside the timed region — this isolates the
// stepping pass itself.
template <typename Pick>
double TimeRep(BatchCompiledMonitor& vm, int rounds, Pick pick) {
  std::vector<const MonitorEvent*> cursors(kLanes);
  std::vector<BatchFailure> failures;
  vm.HardResetAll();
  std::uint64_t events = 0;
  const auto start = Clock::now();
  for (int r = 0; r < rounds; ++r) {
    for (std::uint32_t lane = 0; lane < kLanes; ++lane) {
      cursors[lane] = pick(lane, r);
      events += cursors[lane] != nullptr;
    }
    failures.clear();
    vm.StepBatch(cursors.data(), kLanes, &failures);
  }
  const double secs = Seconds(start, Clock::now());
  return static_cast<double>(events) / secs;
}

struct ClassBench {
  std::string key;
  Sample sample;
};

bool ExpectClass(const BatchCompiledMonitor& vm, BatchCompiledMonitor::HandlerClass want,
                 const char* label) {
  const auto got = vm.ClassOf(0, EventKind::kStartTask, 0);
  if (got != want) {
    std::fprintf(stderr, "batch_step: %s classified as %d, expected %d\n", label,
                 static_cast<int>(got), static_cast<int>(want));
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_batch.json";
  const unsigned host_cpus = std::thread::hardware_concurrency();
  std::printf("=== StepBatch microbench (lanes=%u, reps=%d) ===\n\n", kLanes, kReps);

  // ---- (1) per-class kernels -------------------------------------------
  struct Synth {
    const char* key;
    StateMachine machine;
    BatchCompiledMonitor::HandlerClass cls;
  };
  std::vector<Synth> synths;
  synths.push_back({"commit", CommitMachine(), BatchCompiledMonitor::HandlerClass::kCommit});
  synths.push_back({"store_field_commit", StoreFieldMachine(),
                    BatchCompiledMonitor::HandlerClass::kStoreFieldCommit});
  synths.push_back({"guard_elapsed_commit", GuardElapsedMachine(),
                    BatchCompiledMonitor::HandlerClass::kGuardElapsedCommit});
  synths.push_back(
      {"general", GeneralMachine(), BatchCompiledMonitor::HandlerClass::kGeneral});

  const MonitorEvent start_pass = StartEvent(1000);  // elapsed 1000 >= 100
  const MonitorEvent start_fail = StartEvent(1);     // elapsed 1 < 100
  const MonitorEvent end_event = [] {
    MonitorEvent e;
    e.kind = EventKind::kEndTask;
    e.task = 0;
    e.timestamp = 1;
    return e;
  }();

  constexpr int kRounds = 4000;
  std::vector<ClassBench> class_benches;
  for (Synth& synth : synths) {
    auto compiled = CompileStateMachine(synth.machine);
    if (!compiled.ok()) {
      std::fprintf(stderr, "batch_step: compile %s: %s\n", synth.key,
                   compiled.status().ToString().c_str());
      return 1;
    }
    auto shared = std::make_shared<const CompiledMachine>(std::move(compiled.value()));
    BatchCompiledMonitor vm(shared, kLanes);
    if (!ExpectClass(vm, synth.cls, synth.key)) {
      return 1;
    }

    // Dense: every lane sees the same event, so all lanes stay in lockstep
    // and every pass is one contiguous cohort.
    std::vector<double> eps(kReps);
    for (int rep = 0; rep < kReps; ++rep) {
      eps[rep] =
          TimeRep(vm, kRounds, [&](std::uint32_t, int) { return &start_pass; });
    }
    class_benches.push_back({synth.key, Summarize(eps)});

    if (synth.cls == BatchCompiledMonitor::HandlerClass::kGuardElapsedCommit) {
      // Indexed variant: round 0 fails the guard on even lanes only, which
      // splits the lanes into two interleaved state cohorts; every later
      // pass then runs two strided (index-gather) cohorts of kLanes/2.
      std::vector<double> ieps(kReps);
      for (int rep = 0; rep < kReps; ++rep) {
        ieps[rep] = TimeRep(vm, kRounds, [&](std::uint32_t lane, int round) {
          return (round == 0 && (lane & 1u) == 0u) ? &start_fail : &start_pass;
        });
      }
      class_benches.push_back({"guard_elapsed_commit_indexed", Summarize(ieps)});
    }
  }
  {
    // Self-loop: the commit machine never handles kEndTask, so every lane
    // drops in the partition pass — the elision-adjacent fast path.
    auto compiled = CompileStateMachine(CommitMachine());
    auto shared = std::make_shared<const CompiledMachine>(std::move(compiled.value()));
    BatchCompiledMonitor vm(shared, kLanes);
    if (vm.ClassOf(0, EventKind::kEndTask, 0) !=
        BatchCompiledMonitor::HandlerClass::kSelfLoop) {
      std::fprintf(stderr, "batch_step: end-event column not kSelfLoop\n");
      return 1;
    }
    std::vector<double> eps(kReps);
    for (int rep = 0; rep < kReps; ++rep) {
      eps[rep] = TimeRep(vm, kRounds, [&](std::uint32_t, int) { return &end_event; });
    }
    class_benches.push_back({"self_loop", Summarize(eps)});
  }

  std::printf("per-class stepping (4096 dense lanes, events/sec, median of %d):\n", kReps);
  for (const ClassBench& b : class_benches) {
    std::printf("  %-30s %12.0f  (min %.0f, max %.0f)\n", b.key.c_str(), b.sample.median,
                b.sample.min, b.sample.max);
  }

  // ---- (2) health-app machine mix --------------------------------------
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

  // One rep = kTilesPerRep full tiles, fed exactly like the fleet engine:
  // the per-position loop decodes liveness and event path ONCE into lane
  // lists, unscoped machines step the live list, path-scoped machines step
  // only their path's lanes. Throughput is device-events/sec (one device
  // event steps every machine).
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
  // Machine-pass elision masks, exactly as the fleet's TileStepper builds
  // them: one live-column bitmask per machine, checked against the columns
  // present in each pass.
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
  std::vector<double> mix_eps(kReps);
  std::uint64_t mix_violations = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    mix_violations = 0;
    const auto start = Clock::now();
    for (std::uint32_t tile = 0; tile < kTilesPerRep; ++tile) {
      for (BatchCompiledMonitor& m : machines) {
        m.HardResetAll();
      }
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
          if ((mask & live_col_mask[mi]) == 0u) {
            continue;  // Machine-pass elision: all listed lanes self-loop.
          }
          failures.clear();
          m.StepBatchLanes(cursors.data(), list, count, &failures);
          mix_violations += failures.size();
        }
      }
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
    m.HardResetAll();
  }
  for (std::size_t pos = 0; pos < max_stream; ++pos) {
    for (std::uint32_t lane = 0; lane < kLanes; ++lane) {
      const auto& stream = streams[lane % kStreamDevices];
      cursors[lane] = pos < stream.size() ? &stream[pos] : nullptr;
    }
    for (BatchCompiledMonitor& m : machines) {
      failures.clear();
      m.StepBatch(cursors.data(), kLanes, &failures);
    }
  }
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

  // ---- (3) elision through the fleet feed path -------------------------
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
  w.Key("per_class_events_per_sec").BeginObject(JsonLayout::kBlock);
  for (const ClassBench& b : class_benches) {
    sample(b.sample, &w.Key(b.key));
  }
  w.End().Key("health_mix").BeginObject(JsonLayout::kBlock);
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
