// Tests for the compiled (bytecode) monitor backend: compilation-pass
// structure (interning, dispatch index), semantics of the executor against
// hand-built machines, and — the load-bearing part — a
// differential fuzz harness that replays thousands of randomized event
// traces through interpreted and compiled monitors in lockstep for all
// three example apps' specs, asserting identical verdicts, states, and
// variable values at every step.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/apps/ar_app.h"
#include "src/apps/greenhouse_app.h"
#include "src/apps/health_app.h"
#include "src/base/rng.h"
#include "src/ir/compile.h"
#include "src/ir/lowering.h"
#include "src/monitor/compiled.h"
#include "src/monitor/compiled_batch.h"
#include "src/monitor/interp.h"
#include "src/monitor/monitor_set.h"
#include "src/spec/app_lang.h"
#include "src/spec/parser.h"
#include "src/spec/validator.h"

namespace artemis {
namespace {

// ------------------------------------------------ compilation structure --

StateMachine CounterMachine() {
  // S0 --start(0)[i < 3]/i=i+1--> S0
  // S0 --start(0)[i >= 3]/fail;i=0--> S1
  // S1 --anyEvent--> S0
  StateMachine m;
  m.name = "counter";
  m.property_label = "counter";
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
  fire.body = {Fail(ActionType::kSkipPath, kNoPath, "counter"), Assign("i", Const(0))};
  Transition back;
  back.from = "S1";
  back.to = "S0";
  back.trigger = TriggerKind::kAnyEvent;
  m.transitions = {bump, fire, back};
  return m;
}

TEST(CompileTest, InternsStatesAndSlots) {
  auto compiled = CompileStateMachine(CounterMachine());
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const CompiledMachine& m = compiled.value();
  EXPECT_EQ(m.state_names, (std::vector<std::string>{"S0", "S1"}));
  EXPECT_EQ(m.initial, 0);
  EXPECT_EQ(m.var_names, (std::vector<std::string>{"i"}));
  EXPECT_EQ(m.initial_slots, (std::vector<double>{0.0}));
  // Both S0 transitions share the (start, task 0) handler, fused into one
  // program in declaration order: the bump commits to S0, then the fire
  // fails and commits to S1, before the program's own kNoMatch.
  std::vector<std::uint32_t> commits;
  std::uint32_t pc = m.HandlerFor(0, EventKind::kStartTask, 0);
  for (; m.code[pc].op != OpCode::kNoMatch; ++pc) {
    if (m.code[pc].op == OpCode::kCommit) {
      commits.push_back(m.code[pc].operand);
    }
    if (m.code[pc].op == OpCode::kFail) {
      EXPECT_EQ(commits, (std::vector<std::uint32_t>{0})) << "fail after the bump";
    }
  }
  EXPECT_EQ(commits, (std::vector<std::uint32_t>{0, 1}));
  // S1 has no specific trigger; every event falls back to its anyEvent
  // handler, which commits straight back to S0.
  const std::uint32_t any1 = m.HandlerFor(1, EventKind::kStartTask, kInvalidTask);
  EXPECT_EQ(m.HandlerFor(1, EventKind::kStartTask, 0), any1);
  EXPECT_EQ(m.HandlerFor(1, EventKind::kEndTask, 5), any1);
  EXPECT_EQ(m.code[any1].op, OpCode::kCommit);
  // S0 has no anyEvent transition: its fallback, which uncovered (kind,
  // task) pairs reach, is the shared kNoMatch program.
  const std::uint32_t any0 = m.HandlerFor(0, EventKind::kEndTask, kInvalidTask);
  EXPECT_EQ(m.code[any0].op, OpCode::kNoMatch);
  EXPECT_EQ(m.HandlerFor(0, EventKind::kEndTask, 0), any0);
  EXPECT_EQ(m.HandlerFor(0, EventKind::kEndTask, 5), any0);
  EXPECT_GE(m.max_stack, 2u);
}

TEST(CompileTest, RejectsInvalidMachine) {
  StateMachine bad = CounterMachine();
  bad.transitions[0].guard = Bin(BinOp::kLt, Var("undeclared"), Const(3));
  EXPECT_FALSE(CompileStateMachine(bad).ok());
}

TEST(CompiledMonitorTest, ExecutesCounterSemantics) {
  auto compiled = CompileStateMachine(CounterMachine());
  ASSERT_TRUE(compiled.ok());
  CompiledMonitor monitor(std::move(compiled).value());
  MonitorEvent start;
  start.kind = EventKind::kStartTask;
  start.task = 0;
  MonitorVerdict verdict;
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(monitor.Step(start, &verdict)) << i;
  }
  EXPECT_EQ(monitor.VarValue("i"), 3.0);
  EXPECT_TRUE(monitor.Step(start, &verdict));
  EXPECT_EQ(verdict.action, ActionType::kSkipPath);
  EXPECT_EQ(verdict.property, "counter");
  EXPECT_EQ(monitor.current_state(), "S1");
  EXPECT_EQ(monitor.VarValue("i"), 0.0);
  // anyEvent returns to S0; unrelated events in S0 self-transition.
  MonitorEvent other;
  other.kind = EventKind::kEndTask;
  other.task = 7;
  EXPECT_FALSE(monitor.Step(other, &verdict));
  EXPECT_EQ(monitor.current_state(), "S0");
  EXPECT_FALSE(monitor.Step(other, &verdict));
  EXPECT_EQ(monitor.current_state(), "S0");
}

TEST(CompiledMonitorTest, HardResetRestoresInitialSlots) {
  auto compiled = CompileStateMachine(CounterMachine());
  ASSERT_TRUE(compiled.ok());
  CompiledMonitor monitor(std::move(compiled).value());
  MonitorEvent start;
  start.kind = EventKind::kStartTask;
  start.task = 0;
  MonitorVerdict verdict;
  monitor.Step(start, &verdict);
  EXPECT_EQ(monitor.VarValue("i"), 1.0);
  monitor.HardReset();
  EXPECT_EQ(monitor.VarValue("i"), 0.0);
  EXPECT_EQ(monitor.current_state(), "S0");
}

TEST(CompiledMonitorTest, FramBytesMatchesInterpreter) {
  auto parsed = SpecParser::Parse(HealthAppSpec());
  ASSERT_TRUE(parsed.ok());
  HealthApp app = BuildHealthApp();
  auto machines = LowerSpec(parsed.value(), app.graph, {});
  ASSERT_TRUE(machines.ok());
  for (const StateMachine& machine : machines.value()) {
    InterpretedMonitor interp{StateMachine(machine)};
    CompiledMonitor compiled{std::move(CompileStateMachine(machine)).value()};
    EXPECT_EQ(interp.FramBytes(), compiled.FramBytes()) << machine.name;
  }
}

// ------------------------------------------------- differential fuzzing --

struct FuzzApp {
  const char* name;
  AppGraph graph;
  std::string spec;
};

std::vector<FuzzApp> FuzzApps() {
  std::vector<FuzzApp> apps;
  {
    HealthApp app = BuildHealthApp();
    apps.push_back({"health", std::move(app.graph), HealthAppSpec()});
  }
  {
    GreenhouseApp app = BuildGreenhouseApp();
    apps.push_back({"greenhouse", std::move(app.graph), GreenhouseSpec()});
  }
  {
    ArApp app = BuildArApp();
    apps.push_back({"ar", std::move(app.graph), ArAppSpec()});
  }
  return apps;
}

class DifferentialFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DifferentialFuzzTest, CompiledEquivalentToInterpretedOnAllApps) {
  for (FuzzApp& app : FuzzApps()) {
    auto parsed = SpecParser::Parse(app.spec);
    ASSERT_TRUE(parsed.ok()) << app.name;
    auto machines = LowerSpec(parsed.value(), app.graph, {});
    ASSERT_TRUE(machines.ok()) << app.name;

    std::vector<std::unique_ptr<InterpretedMonitor>> interp;
    std::vector<std::unique_ptr<CompiledMonitor>> compiled;
    for (const StateMachine& machine : machines.value()) {
      auto c = CompileStateMachine(machine);
      ASSERT_TRUE(c.ok()) << app.name << "/" << machine.name << ": "
                          << c.status().ToString();
      compiled.push_back(std::make_unique<CompiledMonitor>(std::move(c).value()));
      interp.push_back(std::make_unique<InterpretedMonitor>(StateMachine(machine)));
    }

    Rng rng(GetParam());
    const auto task_count = static_cast<std::uint64_t>(app.graph.task_count());
    const auto path_count = static_cast<std::uint64_t>(app.graph.path_count());
    SimTime now = 0;
    for (int i = 0; i < 3000; ++i) {
      // Occasional path restarts exercise OnPathRestart symmetry.
      if (rng.NextDouble() < 0.02) {
        const PathId path = static_cast<PathId>(rng.UniformU64(1, path_count));
        for (std::size_t k = 0; k < interp.size(); ++k) {
          interp[k]->OnPathRestart(path);
          compiled[k]->OnPathRestart(path);
        }
      }
      now += rng.UniformU64(1, 3 * kMinute);
      MonitorEvent e;
      e.kind = rng.NextDouble() < 0.5 ? EventKind::kStartTask : EventKind::kEndTask;
      e.task = static_cast<TaskId>(rng.UniformU64(0, task_count - 1));
      e.timestamp = now;
      e.path = static_cast<PathId>(rng.UniformU64(1, path_count));
      e.seq = static_cast<std::uint64_t>(i) + 1;
      e.has_dep_data = e.kind == EventKind::kEndTask && rng.NextDouble() < 0.5;
      e.dep_data = rng.UniformDouble(-10.0, 50.0);
      e.energy_fraction = rng.NextDouble();

      for (std::size_t k = 0; k < interp.size(); ++k) {
        MonitorVerdict vi, vc;
        const bool fi = interp[k]->Step(e, &vi);
        const bool fc = compiled[k]->Step(e, &vc);
        ASSERT_EQ(fi, fc) << app.name << "/" << interp[k]->machine().name << " event #" << i
                          << " kind=" << static_cast<int>(e.kind) << " task=" << e.task
                          << " path=" << e.path;
        if (fi) {
          ASSERT_EQ(vi.action, vc.action) << app.name << " event #" << i;
          ASSERT_EQ(vi.target_path, vc.target_path) << app.name << " event #" << i;
          ASSERT_EQ(vi.property, vc.property) << app.name << " event #" << i;
        }
        // FRAM-visible state must match exactly at every step.
        ASSERT_EQ(interp[k]->current_state(), compiled[k]->current_state())
            << app.name << "/" << interp[k]->machine().name << " event #" << i;
        for (const auto& [var, unused] : interp[k]->machine().variables) {
          ASSERT_EQ(interp[k]->VarValue(var), compiled[k]->VarValue(var))
              << app.name << "/" << interp[k]->machine().name << " var " << var
              << " event #" << i;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialFuzzTest,
                         ::testing::Values(0x1u, 0x2u, 0xA5A5u, 0xDEADBEEFu, 0x123456789u));

// ---------------------------------------- batch VM differential fuzzing --
//
// The SoA batch engine (src/monitor/compiled_batch.h) must be lane-by-lane
// equivalent to the scalar CompiledMonitor: each lane consumes its own
// randomized event stream (lanes advance at different rates, sit out
// rounds, and restart paths independently) while a scalar monitor per lane
// replays the identical stream. Each round hands StepBatchLanes the lanes
// the fleet's TileStepper would list for the machine — live lanes whose
// event is within its path scope, ascending — while every scalar monitor
// sees its lane's live event and ignores out-of-scope ones itself.

// The TileStepper's lane list for `scope`: live lanes whose event is in
// scope, in ascending lane order.
std::vector<std::uint32_t> ListedLanes(const std::vector<const MonitorEvent*>& cursors,
                                       PathId scope) {
  std::vector<std::uint32_t> list;
  for (std::uint32_t lane = 0; lane < cursors.size(); ++lane) {
    if (cursors[lane] != nullptr && (scope == kNoPath || cursors[lane]->path == scope)) {
      list.push_back(lane);
    }
  }
  return list;
}

void StepListed(BatchCompiledMonitor& batch, const std::vector<const MonitorEvent*>& cursors,
                std::vector<BatchFailure>* failures) {
  const std::vector<std::uint32_t> list = ListedLanes(cursors, batch.machine().path_scope);
  failures->clear();
  batch.StepBatchLanes(cursors.data(), list.data(), static_cast<std::uint32_t>(list.size()),
                       failures);
}

class BatchDifferentialFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BatchDifferentialFuzzTest, BatchLanesEquivalentToScalarCompiled) {
  constexpr std::uint32_t kLanes = 8;
  for (FuzzApp& app : FuzzApps()) {
    auto parsed = SpecParser::Parse(app.spec);
    ASSERT_TRUE(parsed.ok()) << app.name;
    auto machines = LowerSpec(parsed.value(), app.graph, {});
    ASSERT_TRUE(machines.ok()) << app.name;

    const auto task_count = static_cast<std::uint64_t>(app.graph.task_count());
    const auto path_count = static_cast<std::uint64_t>(app.graph.path_count());

    for (const StateMachine& machine : machines.value()) {
      auto c = CompileStateMachine(machine);
      ASSERT_TRUE(c.ok()) << app.name << "/" << machine.name;
      auto shared = std::make_shared<const CompiledMachine>(std::move(c).value());
      BatchCompiledMonitor batch(shared, kLanes);

      std::vector<std::unique_ptr<CompiledMonitor>> scalar;
      for (std::uint32_t lane = 0; lane < kLanes; ++lane) {
        auto c2 = CompileStateMachine(machine);
        ASSERT_TRUE(c2.ok());
        scalar.push_back(std::make_unique<CompiledMonitor>(std::move(c2).value()));
      }

      // Every dispatch entry but the any-task column lands in exactly one
      // handler class.
      std::uint64_t classified = 0;
      for (const std::uint64_t n : batch.ClassHistogram()) {
        classified += n;
      }
      EXPECT_EQ(classified, shared->state_names.size() * 2u * (shared->max_task + 1u))
          << app.name << "/" << machine.name;

      std::vector<Rng> rng;
      for (std::uint32_t lane = 0; lane < kLanes; ++lane) {
        rng.emplace_back(GetParam() * 0x9E3779B9u + lane + 1);
      }
      std::vector<MonitorEvent> events(kLanes);
      std::vector<const MonitorEvent*> cursors(kLanes, nullptr);
      std::vector<BatchFailure> failures;
      std::vector<const BatchFailure*> fail_by_lane(kLanes, nullptr);
      std::vector<SimTime> now(kLanes, 0);
      std::vector<std::uint64_t> seq(kLanes, 0);

      for (int round = 0; round < 1200; ++round) {
        for (std::uint32_t lane = 0; lane < kLanes; ++lane) {
          if (rng[lane].NextDouble() < 0.02) {
            const PathId path = static_cast<PathId>(rng[lane].UniformU64(1, path_count));
            batch.OnPathRestartLane(lane, path);
            scalar[lane]->OnPathRestart(path);
          }
          if (rng[lane].NextDouble() < 0.1) {
            cursors[lane] = nullptr;  // exhausted cursor this round
            continue;
          }
          now[lane] += rng[lane].UniformU64(1, 3 * kMinute);
          MonitorEvent& e = events[lane];
          e = MonitorEvent{};
          e.kind = rng[lane].NextDouble() < 0.5 ? EventKind::kStartTask : EventKind::kEndTask;
          e.task = static_cast<TaskId>(rng[lane].UniformU64(0, task_count - 1));
          e.timestamp = now[lane];
          e.path = static_cast<PathId>(rng[lane].UniformU64(1, path_count));
          e.seq = ++seq[lane];
          e.has_dep_data = e.kind == EventKind::kEndTask && rng[lane].NextDouble() < 0.5;
          e.dep_data = rng[lane].UniformDouble(-10.0, 50.0);
          e.energy_fraction = rng[lane].NextDouble();
          cursors[lane] = &e;
        }

        StepListed(batch, cursors, &failures);
        std::fill(fail_by_lane.begin(), fail_by_lane.end(), nullptr);
        for (std::size_t i = 0; i < failures.size(); ++i) {
          // Failures append in lane order, once per failing lane.
          ASSERT_TRUE(i == 0 || failures[i - 1].lane < failures[i].lane)
              << app.name << "/" << machine.name << " round " << round;
          fail_by_lane[failures[i].lane] = &failures[i];
        }

        for (std::uint32_t lane = 0; lane < kLanes; ++lane) {
          if (cursors[lane] == nullptr) {
            EXPECT_EQ(fail_by_lane[lane], nullptr);
            continue;
          }
          MonitorVerdict vs;
          const bool fs = scalar[lane]->Step(events[lane], &vs);
          ASSERT_EQ(fail_by_lane[lane] != nullptr, fs)
              << app.name << "/" << machine.name << " lane " << lane << " round " << round;
          if (fs) {
            const BatchFailure& f = *fail_by_lane[lane];
            ASSERT_EQ(f.action, vs.action) << app.name << " round " << round;
            ASSERT_EQ(f.target_path, vs.target_path) << app.name << " round " << round;
            ASSERT_EQ(batch.fail_record(f.fail_index).property, vs.property)
                << app.name << " round " << round;
          }
          ASSERT_EQ(batch.lane_state(lane), scalar[lane]->current_state())
              << app.name << "/" << machine.name << " lane " << lane << " round " << round;
          for (const auto& [var, unused] : machine.variables) {
            ASSERT_EQ(batch.LaneVarValue(lane, var), scalar[lane]->VarValue(var))
                << app.name << "/" << machine.name << " var " << var << " lane " << lane;
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchDifferentialFuzzTest,
                         ::testing::Values(0x11u, 0xBEEFu, 0x5EED5EEDu));

TEST(BatchCompiledMonitorTest, HardResetLaneIsolatesNeighbours) {
  auto c = CompileStateMachine(CounterMachine());
  ASSERT_TRUE(c.ok());
  auto shared = std::make_shared<const CompiledMachine>(std::move(c).value());
  BatchCompiledMonitor batch(shared, 2);
  MonitorEvent start;
  start.kind = EventKind::kStartTask;
  start.task = 0;
  const std::vector<const MonitorEvent*> cursors = {&start, &start};
  std::vector<BatchFailure> failures;
  StepListed(batch, cursors, &failures);
  EXPECT_TRUE(failures.empty());
  EXPECT_EQ(batch.LaneVarValue(0, "i"), 1.0);
  EXPECT_EQ(batch.LaneVarValue(1, "i"), 1.0);
  batch.HardResetLane(0);
  EXPECT_EQ(batch.LaneVarValue(0, "i"), 0.0);
  EXPECT_EQ(batch.LaneVarValue(1, "i"), 1.0);  // neighbour untouched
}

TEST(BatchCompiledMonitorTest, AppDispatchClassifiesOutsideGeneral) {
  // The fleet's --stats report splits dispatch entries and traffic by
  // handler class: every app machine has entries outside kGeneral (at
  // least its self-loops).
  for (FuzzApp& app : FuzzApps()) {
    auto parsed = SpecParser::Parse(app.spec);
    ASSERT_TRUE(parsed.ok());
    auto machines = LowerSpec(parsed.value(), app.graph, {});
    ASSERT_TRUE(machines.ok());
    for (const StateMachine& machine : machines.value()) {
      auto c = CompileStateMachine(machine);
      ASSERT_TRUE(c.ok());
      auto shared = std::make_shared<const CompiledMachine>(std::move(c).value());
      BatchCompiledMonitor batch(shared, 1);
      const std::vector<std::uint64_t> hist = batch.ClassHistogram();
      ASSERT_EQ(hist.size(), 5u);
      std::uint64_t fast = 0;
      for (std::size_t i = 0; i + 1 < hist.size(); ++i) {
        fast += hist[i];
      }
      EXPECT_GT(fast, 0u) << app.name << "/" << machine.name;
    }
  }
}

// ------------------------------------------------- per-class fuzzing --
//
// Synthetic machines built so that ONE handler class takes all dispatched
// traffic: if the compiler stops classifying a shape into its intended
// class, the ClassOf assertions here fail. Each machine is then fuzzed
// differentially (StepBatchLanes vs scalar CompiledMonitor).

// S0 <-> S1 on start(0), guard-free, empty body: kCommit.
StateMachine CommitMachine() {
  StateMachine m;
  m.name = "fuzz_commit";
  m.property_label = "fuzz_commit";
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

// Same shape plus `t0 = event.timestamp`: kStoreFieldCommit.
StateMachine StoreFieldMachine() {
  StateMachine m = CommitMachine();
  m.name = "fuzz_store";
  m.property_label = "fuzz_store";
  m.variables = {{"t0", 0.0}};
  for (Transition& t : m.transitions) {
    t.body = {Assign("t0", Field(EventField::kTimestamp))};
  }
  return m;
}

// `(event.timestamp - t0) >= 100` guard, empty body, single candidate:
// kGuardElapsedCommit.
StateMachine GuardElapsedMachine() {
  StateMachine m = CommitMachine();
  m.name = "fuzz_guard";
  m.property_label = "fuzz_guard";
  m.variables = {{"t0", 0.0}};
  for (Transition& t : m.transitions) {
    t.guard = Bin(BinOp::kGe,
                  Bin(BinOp::kSub, Field(EventField::kTimestamp), Var("t0")),
                  Const(100));
  }
  return m;
}

using HandlerClass = BatchCompiledMonitor::HandlerClass;

TEST(BatchClassTest, SyntheticShapesClassifyAsIntended) {
  struct Case {
    StateMachine machine;
    HandlerClass expected;
  };
  const Case cases[] = {
      {CommitMachine(), HandlerClass::kCommit},
      {StoreFieldMachine(), HandlerClass::kStoreFieldCommit},
      {GuardElapsedMachine(), HandlerClass::kGuardElapsedCommit},
      {CounterMachine(), HandlerClass::kGeneral},
  };
  for (const Case& c : cases) {
    auto compiled = CompileStateMachine(c.machine);
    ASSERT_TRUE(compiled.ok()) << c.machine.name;
    auto shared = std::make_shared<const CompiledMachine>(std::move(compiled).value());
    BatchCompiledMonitor batch(shared, 1);
    EXPECT_EQ(batch.ClassOf(0, EventKind::kStartTask, 0), c.expected) << c.machine.name;
    // Columns no transition triggers on are provably self-loops — and for
    // the commit-family machines (no anyEvent fallback, start(0) only)
    // every end-task column is statically dead.
    EXPECT_EQ(batch.ClassOf(0, EventKind::kEndTask, 0), HandlerClass::kSelfLoop)
        << c.machine.name;
    if (c.expected != HandlerClass::kGeneral) {
      EXPECT_TRUE(batch.ColumnDead(EventKind::kEndTask, 0)) << c.machine.name;
      EXPECT_TRUE(batch.ColumnDead(EventKind::kEndTask, 7)) << c.machine.name;
      EXPECT_FALSE(batch.ColumnDead(EventKind::kStartTask, 0)) << c.machine.name;
    }
  }
  // CounterMachine's S1 takes anyEvent, so no column is dead machine-wide.
  auto compiled = CompileStateMachine(CounterMachine());
  ASSERT_TRUE(compiled.ok());
  BatchCompiledMonitor counter(
      std::make_shared<const CompiledMachine>(std::move(compiled).value()), 1);
  EXPECT_EQ(counter.dead_column_count(), 0u);
}

class BatchClassFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BatchClassFuzzTest, EveryClassMatchesScalarLaneByLane) {
  constexpr std::uint32_t kLanes = 8;
  const StateMachine machines[] = {CommitMachine(), StoreFieldMachine(),
                                   GuardElapsedMachine(), CounterMachine()};
  for (const StateMachine& machine : machines) {
    auto c = CompileStateMachine(machine);
    ASSERT_TRUE(c.ok()) << machine.name;
    auto shared = std::make_shared<const CompiledMachine>(std::move(c).value());
    BatchCompiledMonitor batch(shared, kLanes);

    std::vector<std::unique_ptr<CompiledMonitor>> scalar;
    for (std::uint32_t lane = 0; lane < kLanes; ++lane) {
      auto c2 = CompileStateMachine(machine);
      ASSERT_TRUE(c2.ok());
      scalar.push_back(std::make_unique<CompiledMonitor>(std::move(c2).value()));
    }

    std::vector<Rng> rng;
    for (std::uint32_t lane = 0; lane < kLanes; ++lane) {
      rng.emplace_back(GetParam() * 0x9E3779B9u + lane + 17);
    }
    std::vector<MonitorEvent> events(kLanes);
    std::vector<const MonitorEvent*> cursors(kLanes, nullptr);
    std::vector<BatchFailure> failures;
    std::vector<SimTime> now(kLanes, 0);
    for (int round = 0; round < 800; ++round) {
      for (std::uint32_t lane = 0; lane < kLanes; ++lane) {
        if (rng[lane].NextDouble() < 0.1) {
          cursors[lane] = nullptr;
          continue;
        }
        // Small timestamp increments so the elapsed guard fails often:
        // both outcomes of the fused guard get traffic.
        now[lane] += rng[lane].UniformU64(1, 150);
        MonitorEvent& e = events[lane];
        e = MonitorEvent{};
        e.kind =
            rng[lane].NextDouble() < 0.7 ? EventKind::kStartTask : EventKind::kEndTask;
        e.task = static_cast<TaskId>(rng[lane].UniformU64(0, 2));
        e.timestamp = now[lane];
        e.path = 1;
        e.seq = static_cast<std::uint64_t>(round) + 1;
        cursors[lane] = &e;
      }
      StepListed(batch, cursors, &failures);
      std::size_t fi = 0;
      for (std::uint32_t lane = 0; lane < kLanes; ++lane) {
        if (cursors[lane] == nullptr) {
          continue;
        }
        MonitorVerdict vs;
        const bool fs = scalar[lane]->Step(events[lane], &vs);
        const bool fb = fi < failures.size() && failures[fi].lane == lane;
        ASSERT_EQ(fb, fs) << machine.name << " lane " << lane << " round " << round;
        if (fs) {
          ASSERT_EQ(failures[fi].action, vs.action) << machine.name;
          ++fi;
        }
        ASSERT_EQ(batch.lane_state(lane), scalar[lane]->current_state())
            << machine.name << " lane " << lane << " round " << round;
        for (const auto& [var, unused] : machine.variables) {
          ASSERT_EQ(batch.LaneVarValue(lane, var), scalar[lane]->VarValue(var))
              << machine.name << " var " << var << " lane " << lane << " round " << round;
        }
      }
      ASSERT_EQ(fi, failures.size()) << machine.name << " round " << round;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchClassFuzzTest,
                         ::testing::Values(0x21u, 0xFACEu, 0x7777777u));

TEST(BatchTrafficTest, CountersAttributeEventsToDispatchColumns) {
  auto c = CompileStateMachine(CommitMachine());
  ASSERT_TRUE(c.ok());
  auto shared = std::make_shared<const CompiledMachine>(std::move(c).value());
  BatchCompiledMonitor batch(shared, 2);
  EXPECT_TRUE(batch.ClassTraffic().empty() ||
              batch.ClassTraffic() == std::vector<std::uint64_t>(5, 0));
  batch.EnableTraffic();

  MonitorEvent start;
  start.kind = EventKind::kStartTask;
  start.task = 0;
  start.path = 1;
  MonitorEvent other;
  other.kind = EventKind::kEndTask;
  other.task = 5;  // above max_task: lands in the padded any-task column
  other.path = 1;
  std::vector<BatchFailure> failures;
  StepListed(batch, {&start, &start}, &failures);  // both lanes commit S0 -> S1
  StepListed(batch, {&start, &start}, &failures);  // both lanes commit S1 -> S0
  StepListed(batch, {&other, &other}, &failures);  // both lanes self-loop

  const std::vector<std::uint64_t> by_class = batch.ClassTraffic();
  ASSERT_EQ(by_class.size(), BatchCompiledMonitor::kNumClasses);
  EXPECT_EQ(by_class[static_cast<std::size_t>(HandlerClass::kCommit)], 4u);
  EXPECT_EQ(by_class[static_cast<std::size_t>(HandlerClass::kSelfLoop)], 2u);
  std::uint64_t total = 0;
  for (const std::uint64_t n : by_class) {
    total += n;
  }
  EXPECT_EQ(total, 6u);  // every stepped event attributed exactly once
}

// ------------------------------------------ reacts table vs interpreter --
//
// The compiler tabulates which (kind, task) columns each machine reacts to;
// the batch VM, the fleet's elision and MonitorSet's reactor columns read
// that table. It must agree with the interpreter's Reacts, which scans the
// transition list, on every task id up to three past the dispatch range
// and on kInvalidTask, and every task id past the range must dispatch to
// the last (any-task) column.

void ExpectReactsMatchesInterpreter(const StateMachine& machine, const std::string& where) {
  StatusOr<CompiledMachine> compiled = CompileStateMachine(machine);
  ASSERT_TRUE(compiled.ok()) << where << ": " << compiled.status().ToString();
  const CompiledMachine& m = compiled.value();
  const InterpretedMonitor interp{StateMachine(machine)};
  std::vector<TaskId> tasks = {kInvalidTask};
  for (TaskId task = 0; task <= m.max_task + 3u; ++task) {
    tasks.push_back(task);
  }
  const std::uint32_t span = m.max_task + 2u;
  for (const EventKind kind : {EventKind::kStartTask, EventKind::kEndTask}) {
    for (const TaskId task : tasks) {
      EXPECT_EQ(m.Reacts(kind, task), interp.Reacts(kind, task))
          << where << " " << EventKindName(kind) << " task " << task;
      if (task <= m.max_task) {
        continue;
      }
      for (std::uint16_t state = 0; state < m.state_names.size(); ++state) {
        const std::uint32_t row = state * 2u + static_cast<std::uint32_t>(kind);
        const std::uint32_t last = row * span + span - 1u;
        EXPECT_EQ(m.HandlerFor(state, kind, task), m.dispatch[last])
            << where << " state " << state << " " << EventKindName(kind) << " task " << task;
      }
    }
  }
}

std::string ReadExample(const std::string& relative) {
  std::ifstream in(std::filesystem::path(ARTEMIS_SOURCE_DIR) / "examples/specs" / relative);
  EXPECT_TRUE(in.good()) << relative;
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

// Lowers `spec_text` against `graph`; an empty list when the spec does not
// parse, validate or lower.
std::vector<StateMachine> Lowered(const std::string& spec_text, const AppGraph& graph) {
  StatusOr<SpecAst> parsed = SpecParser::Parse(spec_text);
  if (!parsed.ok() || !SpecValidator::Validate(parsed.value(), graph).ok()) {
    return {};
  }
  StatusOr<std::vector<StateMachine>> machines = LowerSpec(parsed.value(), graph, {});
  return machines.ok() ? std::move(machines).value() : std::vector<StateMachine>{};
}

// Up to four states and ten guard-free transitions, each triggered by the
// start or end of a task in [0, 9] or by any event.
StateMachine RandomMachine(Rng& rng, int id) {
  StateMachine m;
  m.name = "random" + std::to_string(id);
  m.property_label = m.name;
  const std::uint64_t states = rng.UniformU64(1, 4);
  for (std::uint64_t s = 0; s < states; ++s) {
    m.states.push_back("S" + std::to_string(s));
  }
  m.initial = "S0";
  const std::uint64_t transitions = rng.UniformU64(0, 10);
  for (std::uint64_t i = 0; i < transitions; ++i) {
    Transition t;
    t.from = m.states[rng.UniformU64(0, states - 1)];
    t.to = m.states[rng.UniformU64(0, states - 1)];
    const std::uint64_t trigger = rng.UniformU64(0, 4);
    t.trigger = trigger == 0   ? TriggerKind::kAnyEvent
                : trigger % 2 ? TriggerKind::kStartTask
                              : TriggerKind::kEndTask;
    if (t.trigger != TriggerKind::kAnyEvent) {
      t.task = static_cast<TaskId>(rng.UniformU64(0, 9));
    }
    m.transitions.push_back(std::move(t));
  }
  return m;
}

TEST(CompiledReactsTest, ReactsTableMatchesInterpreter) {
  std::size_t machines = 0;
  const auto check = [&machines](const std::vector<StateMachine>& lowered,
                                 const std::string& where) {
    for (const StateMachine& machine : lowered) {
      ExpectReactsMatchesInterpreter(machine, where + "/" + machine.name);
      ++machines;
    }
  };
  for (FuzzApp& app : FuzzApps()) {
    const std::vector<StateMachine> lowered = Lowered(app.spec, app.graph);
    EXPECT_FALSE(lowered.empty()) << app.name;
    check(lowered, app.name);
  }
  const AppGraph health = BuildHealthApp().graph;
  check(Lowered(ReadExample("health.prop"), health), "health.prop");
  StatusOr<AppDescription> sensornet = ParseAppDescription(ReadExample("sensornet.app"));
  ASSERT_TRUE(sensornet.ok()) << sensornet.status().ToString();
  check(Lowered(ReadExample("sensornet.prop"), sensornet.value().graph), "sensornet.prop");
  std::size_t bad_lowered = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(std::filesystem::path(ARTEMIS_SOURCE_DIR) /
                                           "examples/specs/bad")) {
    const std::string name = "bad/" + entry.path().filename().string();
    const std::vector<StateMachine> lowered = Lowered(ReadExample(name), health);
    bad_lowered += lowered.empty() ? 0 : 1;
    check(lowered, name);
  }
  EXPECT_GT(bad_lowered, 0u);
  const StateMachine synthetic[] = {CounterMachine(), CommitMachine(), StoreFieldMachine(),
                                    GuardElapsedMachine()};
  for (const StateMachine& machine : synthetic) {
    ExpectReactsMatchesInterpreter(machine, machine.name);
    ++machines;
  }
  Rng rng(0x5EAC75);
  for (int i = 0; i < 500; ++i) {
    ExpectReactsMatchesInterpreter(RandomMachine(rng, i), "random " + std::to_string(i));
    ++machines;
  }
  EXPECT_GT(machines, 500u);
}

// The MonitorSet-level view: the compiled backend builds one monitor per
// property and produces the same verdict stream as the interpreted set.
TEST(CompiledBackendTest, BuildMonitorSetParity) {
  for (FuzzApp& app : FuzzApps()) {
    auto parsed = SpecParser::Parse(app.spec);
    ASSERT_TRUE(parsed.ok());
    auto interp_set = BuildMonitorSet(parsed.value(), app.graph, MonitorBackend::kInterpreted);
    auto compiled_set = BuildMonitorSet(parsed.value(), app.graph, MonitorBackend::kCompiled);
    ASSERT_TRUE(interp_set.ok()) << app.name;
    ASSERT_TRUE(compiled_set.ok()) << app.name;
    EXPECT_EQ(interp_set.value()->size(), compiled_set.value()->size()) << app.name;
    EXPECT_EQ(interp_set.value()->FramBytes(), compiled_set.value()->FramBytes()) << app.name;
  }
}

}  // namespace
}  // namespace artemis
