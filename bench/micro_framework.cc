// Host-side microbenchmarks (google-benchmark) of the framework's moving
// parts: spec parsing, lowering, monitor stepping (both backends), kernel
// boundary crossings, code generation, and the simulator primitives.
//
// These measure the host implementation, not the simulated MSP430 — the
// simulated costs are the CostModel's business. They exist to keep the
// framework itself fast enough for large parameter sweeps.
#include <benchmark/benchmark.h>

#include "src/apps/health_app.h"
#include "src/core/runtime.h"
#include "src/ir/codegen_c.h"
#include "src/ir/compile.h"
#include "src/ir/lowering.h"
#include "src/mayfly/mayfly.h"
#include "src/monitor/builtin.h"
#include "src/monitor/compiled.h"
#include "src/monitor/interp.h"
#include "src/monitor/monitor_set.h"
#include "src/spec/app_lang.h"
#include "src/spec/parser.h"
#include "src/spec/validator.h"

namespace artemis {
namespace {

void BM_ParseHealthSpec(benchmark::State& state) {
  const std::string source = HealthAppSpec();
  for (auto _ : state) {
    auto parsed = SpecParser::Parse(source);
    benchmark::DoNotOptimize(parsed);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * source.size()));
}
BENCHMARK(BM_ParseHealthSpec);

void BM_ValidateHealthSpec(benchmark::State& state) {
  HealthApp app = BuildHealthApp();
  auto parsed = SpecParser::Parse(HealthAppSpec());
  for (auto _ : state) {
    auto result = SpecValidator::Validate(parsed.value(), app.graph);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_ValidateHealthSpec);

void BM_LowerHealthSpec(benchmark::State& state) {
  HealthApp app = BuildHealthApp();
  auto parsed = SpecParser::Parse(HealthAppSpec());
  for (auto _ : state) {
    auto machines = LowerSpec(parsed.value(), app.graph, {});
    benchmark::DoNotOptimize(machines);
  }
}
BENCHMARK(BM_LowerHealthSpec);

void BM_CodegenHealthSpec(benchmark::State& state) {
  HealthApp app = BuildHealthApp();
  auto parsed = SpecParser::Parse(HealthAppSpec());
  auto machines = LowerSpec(parsed.value(), app.graph, {});
  const CCodeGenerator generator;
  for (auto _ : state) {
    std::string code = generator.Generate(machines.value(), app.graph);
    benchmark::DoNotOptimize(code);
  }
}
BENCHMARK(BM_CodegenHealthSpec);

MonitorEvent MakeEvent(TaskId task, EventKind kind, SimTime ts) {
  MonitorEvent e;
  e.kind = kind;
  e.task = task;
  e.timestamp = ts;
  e.path = 2;
  e.seq = ts + 1;
  return e;
}

void BM_InterpretedMonitorStep(benchmark::State& state) {
  HealthApp app = BuildHealthApp();
  auto parsed = SpecParser::Parse(HealthAppSpec());
  auto machines = LowerSpec(parsed.value(), app.graph, {});
  InterpretedMonitor monitor(machines.value()[1]);  // MITD(send<-accel)
  SimTime ts = 0;
  for (auto _ : state) {
    MonitorVerdict verdict;
    monitor.Step(MakeEvent(app.accel, EventKind::kEndTask, ts), &verdict);
    monitor.Step(MakeEvent(app.send, EventKind::kStartTask, ts + 1000), &verdict);
    benchmark::DoNotOptimize(verdict);
    ts += 2000;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2);
}
BENCHMARK(BM_InterpretedMonitorStep);

void BM_CompiledMonitorStep(benchmark::State& state) {
  HealthApp app = BuildHealthApp();
  auto parsed = SpecParser::Parse(HealthAppSpec());
  auto machines = LowerSpec(parsed.value(), app.graph, {});
  CompiledMonitor monitor(
      std::move(CompileStateMachine(machines.value()[1])).value());  // MITD(send<-accel)
  SimTime ts = 0;
  for (auto _ : state) {
    MonitorVerdict verdict;
    monitor.Step(MakeEvent(app.accel, EventKind::kEndTask, ts), &verdict);
    monitor.Step(MakeEvent(app.send, EventKind::kStartTask, ts + 1000), &verdict);
    benchmark::DoNotOptimize(verdict);
    ts += 2000;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2);
}
BENCHMARK(BM_CompiledMonitorStep);

// ---- head-to-head backend benchmarks (BM_MonitorStep*) -----------------
//
// Two shapes, both on the health-app spec, both with events pre-generated
// outside the timed region so only Monitor::Step is measured:
//  * BM_MonitorStepHot — the MITD(send<-accel) machine fed only events it
//    reacts to (every event dispatches, evaluates a guard, runs a body);
//  * BM_MonitorStepSweep — all 8 property monitors stepped through a
//    start/end cycle covering all three merged paths (the shape of a
//    simulation sweep, including out-of-scope early-outs).
// Reported items/sec == events/sec; the Sweep counter is raw steps/sec.
// These are the numbers recorded in docs/monitor-backends.md.

StateMachine HealthMitdMachine() {
  HealthApp app = BuildHealthApp();
  auto parsed = SpecParser::Parse(HealthAppSpec());
  auto machines = LowerSpec(parsed.value(), app.graph, {});
  return machines.value()[1];  // MITD(send<-accel)
}

// The monitor is held by concrete type (all three classes are final), as a
// host-side sweep tool would: the compiler devirtualizes and inlines Step
// for every backend equally, so the loop measures the backends themselves.
template <typename MonitorT>
void RunHotLoop(benchmark::State& state, MonitorT& monitor,
                const std::vector<MonitorEvent>& events) {
  MonitorVerdict verdict;
  bool any_failed = false;
  for (auto _ : state) {
    // Accumulate instead of fencing every call: Step mutates monitor state,
    // so calls cannot be elided, and one barrier per batch keeps the loop
    // itself out of the measurement for every backend equally.
    for (const MonitorEvent& e : events) {
      any_failed |= monitor.Step(e, &verdict);
    }
    benchmark::DoNotOptimize(any_failed);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * events.size()));
}

void BM_MonitorStepHot(benchmark::State& state, MonitorBackend backend) {
  HealthApp app = BuildHealthApp();
  // A repeating in-window end(accel)/start(send) pair: every event fires a
  // transition (dispatch + guard + body), no early-outs.
  std::vector<MonitorEvent> events;
  SimTime ts = 0;
  for (int i = 0; i < 64; ++i) {
    events.push_back(MakeEvent(app.accel, EventKind::kEndTask, ts));
    events.push_back(MakeEvent(app.send, EventKind::kStartTask, ts + 1000));
    ts += 2000;
  }
  switch (backend) {
    case MonitorBackend::kBuiltin: {
      MitdMonitor monitor("MITD(send<-accel)", app.send, app.accel, 5 * kMinute,
                          ActionType::kRestartPath, 3, ActionType::kSkipPath, 2);
      RunHotLoop(state, monitor, events);
      break;
    }
    case MonitorBackend::kCompiled: {
      CompiledMonitor monitor(std::move(CompileStateMachine(HealthMitdMachine())).value());
      RunHotLoop(state, monitor, events);
      break;
    }
    case MonitorBackend::kInterpreted: {
      InterpretedMonitor monitor(HealthMitdMachine());
      RunHotLoop(state, monitor, events);
      break;
    }
  }
}
BENCHMARK_CAPTURE(BM_MonitorStepHot, interpreted, MonitorBackend::kInterpreted);
BENCHMARK_CAPTURE(BM_MonitorStepHot, compiled, MonitorBackend::kCompiled);
BENCHMARK_CAPTURE(BM_MonitorStepHot, builtin, MonitorBackend::kBuiltin);

std::vector<MonitorEvent> HealthEventCycle(const HealthApp& app, SimTime base,
                                           std::uint64_t* seq) {
  struct PathRun {
    PathId path;
    std::vector<TaskId> tasks;
  };
  const std::vector<PathRun> runs = {
      {1, {app.body_temp, app.calc_avg, app.heart_rate, app.send}},
      {2, {app.accel, app.filter, app.send}},
      {3, {app.mic_sense, app.classify, app.send}},
  };
  std::vector<MonitorEvent> events;
  SimTime ts = base;
  for (const PathRun& run : runs) {
    for (const TaskId task : run.tasks) {
      for (const EventKind kind : {EventKind::kStartTask, EventKind::kEndTask}) {
        MonitorEvent e;
        e.kind = kind;
        e.task = task;
        e.timestamp = ts;
        e.path = run.path;
        e.seq = ++*seq;
        e.has_dep_data = kind == EventKind::kEndTask && task == app.calc_avg;
        e.dep_data = 36.8;
        e.energy_fraction = 0.8;
        events.push_back(e);
        ts += 50 * kMillisecond;
      }
    }
  }
  return events;
}

void BM_MonitorStepSweep(benchmark::State& state, MonitorBackend backend) {
  HealthApp app = BuildHealthApp();
  auto parsed = SpecParser::Parse(HealthAppSpec());
  auto set = std::move(BuildMonitorSet(parsed.value(), app.graph, backend)).value();
  // Sixteen path cycles with monotonic timestamps, replayed every iteration
  // (the backward time jump at the replay seam hits all backends equally).
  std::uint64_t seq = 0;
  std::vector<MonitorEvent> events;
  for (int cycle = 0; cycle < 16; ++cycle) {
    const SimTime base = static_cast<SimTime>(events.size()) * 50 * kMillisecond;
    for (const MonitorEvent& e : HealthEventCycle(app, base, &seq)) {
      events.push_back(e);
    }
  }
  MonitorVerdict verdict;
  for (auto _ : state) {
    for (const MonitorEvent& e : events) {
      for (std::size_t i = 0; i < set->size(); ++i) {
        benchmark::DoNotOptimize(set->monitor(i).Step(e, &verdict));
      }
    }
  }
  const auto processed = static_cast<int64_t>(state.iterations() * events.size());
  state.SetItemsProcessed(processed);  // items/sec == monitored events/sec
  state.counters["steps/s"] = benchmark::Counter(
      static_cast<double>(processed) * static_cast<double>(set->size()),
      benchmark::Counter::kIsRate);
}
BENCHMARK_CAPTURE(BM_MonitorStepSweep, interpreted, MonitorBackend::kInterpreted);
BENCHMARK_CAPTURE(BM_MonitorStepSweep, compiled, MonitorBackend::kCompiled);
BENCHMARK_CAPTURE(BM_MonitorStepSweep, builtin, MonitorBackend::kBuiltin);

void BM_BuiltinMonitorStep(benchmark::State& state) {
  HealthApp app = BuildHealthApp();
  MitdMonitor monitor("MITD(send<-accel)", app.send, app.accel, 5 * kMinute,
                      ActionType::kRestartPath, 3, ActionType::kSkipPath, 2);
  SimTime ts = 0;
  for (auto _ : state) {
    MonitorVerdict verdict;
    monitor.Step(MakeEvent(app.accel, EventKind::kEndTask, ts), &verdict);
    monitor.Step(MakeEvent(app.send, EventKind::kStartTask, ts + 1000), &verdict);
    benchmark::DoNotOptimize(verdict);
    ts += 2000;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2);
}
BENCHMARK(BM_BuiltinMonitorStep);

void BM_HealthAppContinuousRun(benchmark::State& state) {
  for (auto _ : state) {
    HealthApp app = BuildHealthApp();
    auto mcu = std::make_unique<Mcu>(std::make_unique<AlwaysOnPowerModel>());
    ArtemisConfig config;
    auto runtime = ArtemisRuntime::Create(&app.graph, HealthAppSpec(), mcu.get(), config);
    auto result = runtime.value()->Run();
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_HealthAppContinuousRun);

void BM_HealthAppIntermittentRun(benchmark::State& state) {
  for (auto _ : state) {
    HealthApp app = BuildHealthApp();
    auto mcu =
        std::make_unique<Mcu>(std::make_unique<FixedChargePowerModel>(19'500.0, 5 * kMinute));
    ArtemisConfig config;
    config.kernel.max_wall_time = 8 * kHour;
    auto runtime = ArtemisRuntime::Create(&app.graph, HealthAppSpec(), mcu.get(), config);
    auto result = runtime.value()->Run();
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_HealthAppIntermittentRun);

void BM_MonitorSetDispatch(benchmark::State& state) {
  HealthApp app = BuildHealthApp();
  auto parsed = SpecParser::Parse(HealthAppSpec());
  auto set =
      std::move(BuildMonitorSet(parsed.value(), app.graph, MonitorBackend::kBuiltin)).value();
  Mcu mcu(std::make_unique<AlwaysOnPowerModel>(), DefaultCostModel());
  set->HardReset(mcu);
  std::uint64_t seq = 0;
  for (auto _ : state) {
    MonitorEvent e = MakeEvent(app.send, EventKind::kStartTask, ++seq * 1000);
    e.seq = seq;
    auto outcome = set->OnEvent(e, mcu);
    benchmark::DoNotOptimize(outcome);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_MonitorSetDispatch);

void BM_MayflyCheck(benchmark::State& state) {
  HealthApp app = BuildHealthApp();
  auto parsed = SpecParser::Parse(HealthAppSpec());
  auto spec = MayflyFromSpec(parsed.value(), app.graph);
  MayflyChecker checker;
  for (MayflyRule& rule : spec.value().rules) {
    checker.AddRule(std::move(rule));
  }
  Mcu mcu(std::make_unique<AlwaysOnPowerModel>(), DefaultCostModel());
  checker.HardReset(mcu);
  std::uint64_t seq = 0;
  for (auto _ : state) {
    MonitorEvent e = MakeEvent(app.send, EventKind::kStartTask, ++seq * 1000);
    e.seq = seq;
    auto outcome = checker.OnEvent(e, mcu);
    benchmark::DoNotOptimize(outcome);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_MayflyCheck);

void BM_ParseAppDescription(benchmark::State& state) {
  const std::string source = R"(
app sensornet {
  task sense { duration: 30ms; power: 2mW; value: gaussian(21.0, 0.5); monitors: temp; }
  task pack  { duration: 10ms; power: 660uW; }
  task radio { duration: 120ms; power: 24mW; }
  path 1: sense -> pack -> radio;
}
)";
  for (auto _ : state) {
    auto app = ParseAppDescription(source);
    benchmark::DoNotOptimize(app);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * source.size()));
}
BENCHMARK(BM_ParseAppDescription);

void BM_CapacitorConsume(benchmark::State& state) {
  CapacitorPowerModel model(CapacitorConfig{}, std::make_unique<ConstantHarvester>(2.0));
  SimTime now = 0;
  for (auto _ : state) {
    ConsumeResult result = model.Consume(now, 10 * kMillisecond, 5.0);
    benchmark::DoNotOptimize(result);
    now += 10 * kMillisecond;
  }
}
BENCHMARK(BM_CapacitorConsume);

}  // namespace
}  // namespace artemis

BENCHMARK_MAIN();
