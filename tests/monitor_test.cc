// Tests for the monitor engine: each property's semantics through both
// backends, a randomized equivalence sweep between the interpreted machines
// and the builtin monitors, verdict arbitration, and MonitorSet's
// power-failure-resilient event processing.
#include <gtest/gtest.h>

#include <memory>

#include "src/apps/health_app.h"
#include "src/core/runtime.h"
#include "src/ir/compile.h"
#include "src/ir/lowering.h"
#include "src/mayfly/mayfly.h"
#include "src/monitor/arbitration.h"
#include "src/monitor/builtin.h"
#include "src/monitor/compiled.h"
#include "src/monitor/interp.h"
#include "src/monitor/monitor_set.h"
#include "src/sim/mcu.h"
#include "src/spec/parser.h"

namespace artemis {
namespace {

constexpr TaskId kA = 0;
constexpr TaskId kB = 1;

MonitorEvent Start(TaskId task, SimTime ts, PathId path = 1) {
  MonitorEvent e;
  e.kind = EventKind::kStartTask;
  e.task = task;
  e.timestamp = ts;
  e.path = path;
  e.seq = ts * 2 + 1;
  return e;
}

MonitorEvent End(TaskId task, SimTime ts, PathId path = 1) {
  MonitorEvent e;
  e.kind = EventKind::kEndTask;
  e.task = task;
  e.timestamp = ts;
  e.path = path;
  e.seq = ts * 2 + 2;
  return e;
}

// Builds all three backends for the same single-property spec against a
// tiny two-task graph (a then b on path 1, with a second path for scoping
// tests).
struct BothBackends {
  std::unique_ptr<Monitor> builtin;
  std::unique_ptr<Monitor> interpreted;
  std::unique_ptr<Monitor> compiled;
};

AppGraph TwoTaskGraph() {
  AppGraph graph;
  graph.AddTask(TaskDef{.name = "a",
                        .work = {},
                        .effect = nullptr,
                        .monitored_var = "v"});
  graph.AddTask(TaskDef{.name = "b", .work = {}, .effect = nullptr, .monitored_var = std::nullopt});
  graph.AddPath({kB, kA});
  graph.AddPath({kA});
  return graph;
}

BothBackends Build(const std::string& block) {
  auto parsed = SpecParser::Parse(block);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  const AppGraph graph = TwoTaskGraph();
  const PropertyAst& property = parsed.value().blocks[0].properties[0];
  const std::string& task = parsed.value().blocks[0].task;
  BothBackends out;
  out.builtin = std::move(MakeBuiltinMonitor(property, task, graph)).value();
  auto machine = LowerProperty(property, task, graph, {});
  EXPECT_TRUE(machine.ok()) << machine.status().ToString();
  auto compiled = CompileStateMachine(machine.value());
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  out.compiled = std::make_unique<CompiledMonitor>(std::move(compiled).value());
  out.interpreted = std::make_unique<InterpretedMonitor>(std::move(machine).value());
  return out;
}

// -------------------------------------------------- per-property checks --

class MaxTriesParamTest : public ::testing::TestWithParam<int> {};

TEST_P(MaxTriesParamTest, FiresOnNPlusFirstStart) {
  const int n = GetParam();
  BothBackends monitors =
      Build("a: { maxTries: " + std::to_string(n) + " onFail: skipPath; }");
  for (Monitor* monitor : {monitors.builtin.get(), monitors.interpreted.get(), monitors.compiled.get()}) {
    MonitorVerdict verdict;
    for (int i = 0; i < n; ++i) {
      EXPECT_FALSE(monitor->Step(Start(kA, 10 + i), &verdict)) << i;
    }
    EXPECT_TRUE(monitor->Step(Start(kA, 100), &verdict));
    EXPECT_EQ(verdict.action, ActionType::kSkipPath);
    // After firing, the counter rearmed: n more starts pass again.
    for (int i = 0; i < n; ++i) {
      EXPECT_FALSE(monitor->Step(Start(kA, 200 + i), &verdict));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Bounds, MaxTriesParamTest, ::testing::Values(1, 2, 3, 5, 10));

TEST(MaxTriesTest, CompletionResetsCounter) {
  BothBackends monitors = Build("a: { maxTries: 3 onFail: skipPath; }");
  for (Monitor* monitor : {monitors.builtin.get(), monitors.interpreted.get(), monitors.compiled.get()}) {
    MonitorVerdict verdict;
    EXPECT_FALSE(monitor->Step(Start(kA, 1), &verdict));
    EXPECT_FALSE(monitor->Step(Start(kA, 2), &verdict));
    EXPECT_FALSE(monitor->Step(End(kA, 3), &verdict));
    // Fresh round: three more attempts allowed before firing.
    EXPECT_FALSE(monitor->Step(Start(kA, 4), &verdict));
    EXPECT_FALSE(monitor->Step(Start(kA, 5), &verdict));
    EXPECT_FALSE(monitor->Step(Start(kA, 6), &verdict));
    EXPECT_TRUE(monitor->Step(Start(kA, 7), &verdict));
  }
}

TEST(MaxDurationTest, PassesWithinBudgetFailsBeyond) {
  BothBackends monitors = Build("a: { maxDuration: 100ms onFail: skipTask; }");
  for (Monitor* monitor : {monitors.builtin.get(), monitors.interpreted.get(), monitors.compiled.get()}) {
    MonitorVerdict verdict;
    EXPECT_FALSE(monitor->Step(Start(kA, 0), &verdict));
    EXPECT_FALSE(monitor->Step(End(kA, 80 * kMillisecond), &verdict));
    // Second round: violated via the late end event.
    EXPECT_FALSE(monitor->Step(Start(kA, kSecond), &verdict));
    EXPECT_TRUE(monitor->Step(End(kA, kSecond + 200 * kMillisecond), &verdict));
    EXPECT_EQ(verdict.action, ActionType::kSkipTask);
  }
}

TEST(MaxDurationTest, AnyLateEventTriggers) {
  BothBackends monitors = Build("a: { maxDuration: 100ms onFail: skipTask; }");
  for (Monitor* monitor : {monitors.builtin.get(), monitors.interpreted.get(), monitors.compiled.get()}) {
    MonitorVerdict verdict;
    EXPECT_FALSE(monitor->Step(Start(kA, 0), &verdict));
    // A late *start of another task* exposes the overrun too (anyEvent).
    EXPECT_TRUE(monitor->Step(Start(kB, kSecond), &verdict));
  }
}

TEST(MaxDurationTest, RedeliveredStartKeepsFirstTimestamp) {
  // Section 4.1.3: the monitor disregards refreshed start timestamps.
  BothBackends monitors = Build("a: { maxDuration: 100ms onFail: skipTask; }");
  for (Monitor* monitor : {monitors.builtin.get(), monitors.interpreted.get(), monitors.compiled.get()}) {
    MonitorVerdict verdict;
    EXPECT_FALSE(monitor->Step(Start(kA, 0), &verdict));
    EXPECT_FALSE(monitor->Step(Start(kA, 50 * kMillisecond), &verdict));  // Re-delivery.
    // End at 120 ms: late relative to the FIRST start.
    EXPECT_TRUE(monitor->Step(End(kA, 120 * kMillisecond), &verdict));
  }
}

class CollectParamTest : public ::testing::TestWithParam<int> {};

TEST_P(CollectParamTest, RequiresExactCount) {
  const int n = GetParam();
  BothBackends monitors =
      Build("a: { collect: " + std::to_string(n) + " dpTask: b onFail: restartPath; }");
  for (Monitor* monitor : {monitors.builtin.get(), monitors.interpreted.get(), monitors.compiled.get()}) {
    MonitorVerdict verdict;
    for (int i = 0; i < n - 1; ++i) {
      EXPECT_FALSE(monitor->Step(End(kB, 10 + i), &verdict));
      EXPECT_TRUE(monitor->Step(Start(kA, 100 + i), &verdict)) << "insufficient samples";
      EXPECT_EQ(verdict.action, ActionType::kRestartPath);
    }
    EXPECT_FALSE(monitor->Step(End(kB, 500), &verdict));
    EXPECT_FALSE(monitor->Step(Start(kA, 600), &verdict)) << "enough samples";
  }
}

INSTANTIATE_TEST_SUITE_P(Counts, CollectParamTest, ::testing::Values(1, 2, 5, 10));

TEST(CollectTest, ReexecutedStartStillPasses) {
  BothBackends monitors = Build("a: { collect: 1 dpTask: b onFail: restartPath; }");
  for (Monitor* monitor : {monitors.builtin.get(), monitors.interpreted.get(), monitors.compiled.get()}) {
    MonitorVerdict verdict;
    EXPECT_FALSE(monitor->Step(End(kB, 1), &verdict));
    EXPECT_FALSE(monitor->Step(Start(kA, 2), &verdict));
    // Power failure: the start is re-delivered; samples not yet consumed.
    EXPECT_FALSE(monitor->Step(Start(kA, 3), &verdict));
    // Commit consumes; the next round demands fresh samples.
    EXPECT_FALSE(monitor->Step(End(kA, 4), &verdict));
    EXPECT_TRUE(monitor->Step(Start(kA, 5), &verdict));
  }
}

TEST(MitdTest, InWindowPassesOutOfWindowFails) {
  BothBackends monitors = Build("a: { MITD: 1min dpTask: b onFail: restartPath; }");
  for (Monitor* monitor : {monitors.builtin.get(), monitors.interpreted.get(), monitors.compiled.get()}) {
    MonitorVerdict verdict;
    EXPECT_FALSE(monitor->Step(End(kB, 0), &verdict));
    EXPECT_FALSE(monitor->Step(Start(kA, 30 * kSecond), &verdict));
    EXPECT_FALSE(monitor->Step(End(kB, kMinute), &verdict));
    EXPECT_TRUE(monitor->Step(Start(kA, 3 * kMinute), &verdict));
    EXPECT_EQ(verdict.action, ActionType::kRestartPath);
  }
}

TEST(MitdTest, StartBeforeAnyDependencyIsIgnored) {
  BothBackends monitors = Build("a: { MITD: 1min dpTask: b onFail: restartPath; }");
  for (Monitor* monitor : {monitors.builtin.get(), monitors.interpreted.get(), monitors.compiled.get()}) {
    MonitorVerdict verdict;
    EXPECT_FALSE(monitor->Step(Start(kA, 10 * kMinute), &verdict));
  }
}

class MitdMaxAttemptTest : public ::testing::TestWithParam<int> {};

TEST_P(MitdMaxAttemptTest, EscalatesOnNthConsecutiveViolation) {
  const int m = GetParam();
  BothBackends monitors = Build("a: { MITD: 1min dpTask: b onFail: restartPath maxAttempt: " +
                                std::to_string(m) + " onFail: skipPath; }");
  for (Monitor* monitor : {monitors.builtin.get(), monitors.interpreted.get(), monitors.compiled.get()}) {
    SimTime now = 0;
    MonitorVerdict verdict;
    for (int i = 1; i <= m; ++i) {
      EXPECT_FALSE(monitor->Step(End(kB, now), &verdict));
      now += 10 * kMinute;  // Way past the window.
      EXPECT_TRUE(monitor->Step(Start(kA, now), &verdict)) << i;
      if (i < m) {
        EXPECT_EQ(verdict.action, ActionType::kRestartPath) << i;
      } else {
        EXPECT_EQ(verdict.action, ActionType::kSkipPath) << i;
      }
      now += kSecond;
    }
    // Counter rearmed after escalation.
    EXPECT_FALSE(monitor->Step(End(kB, now), &verdict));
    now += 10 * kMinute;
    EXPECT_TRUE(monitor->Step(Start(kA, now), &verdict));
    EXPECT_EQ(verdict.action, m == 1 ? ActionType::kSkipPath : ActionType::kRestartPath);
  }
}

INSTANTIATE_TEST_SUITE_P(Attempts, MitdMaxAttemptTest, ::testing::Values(1, 2, 3, 5));

TEST(MitdTest, SuccessfulCompletionResetsAttempts) {
  BothBackends monitors = Build(
      "a: { MITD: 1min dpTask: b onFail: restartPath maxAttempt: 2 onFail: skipPath; }");
  for (Monitor* monitor : {monitors.builtin.get(), monitors.interpreted.get(), monitors.compiled.get()}) {
    MonitorVerdict verdict;
    // Violation #1.
    EXPECT_FALSE(monitor->Step(End(kB, 0), &verdict));
    EXPECT_TRUE(monitor->Step(Start(kA, 5 * kMinute), &verdict));
    // Successful round: in-time start and a commit.
    EXPECT_FALSE(monitor->Step(End(kB, 6 * kMinute), &verdict));
    EXPECT_FALSE(monitor->Step(Start(kA, 6 * kMinute + kSecond), &verdict));
    EXPECT_FALSE(monitor->Step(End(kA, 6 * kMinute + 2 * kSecond), &verdict));
    // Next violation is attempt #1 again (restart, not skip).
    EXPECT_FALSE(monitor->Step(End(kB, 10 * kMinute), &verdict));
    EXPECT_TRUE(monitor->Step(Start(kA, 30 * kMinute), &verdict));
    EXPECT_EQ(verdict.action, ActionType::kRestartPath);
  }
}

TEST(PeriodTest, FiresWhenGapExceedsPeriodPlusJitter) {
  BothBackends monitors = Build("a: { period: 1s jitter: 100ms onFail: restartTask; }");
  for (Monitor* monitor : {monitors.builtin.get(), monitors.interpreted.get(), monitors.compiled.get()}) {
    MonitorVerdict verdict;
    EXPECT_FALSE(monitor->Step(Start(kA, 0), &verdict));  // First start arms.
    EXPECT_FALSE(monitor->Step(Start(kA, kSecond), &verdict));
    EXPECT_FALSE(monitor->Step(Start(kA, 2 * kSecond + 100 * kMillisecond), &verdict));
    EXPECT_TRUE(monitor->Step(Start(kA, 4 * kSecond), &verdict));
    EXPECT_EQ(verdict.action, ActionType::kRestartTask);
    // The violating start re-arms the reference point.
    EXPECT_FALSE(monitor->Step(Start(kA, 5 * kSecond - 100 * kMillisecond), &verdict));
  }
}

TEST(DpDataTest, RangeEdgesAreInclusive) {
  BothBackends monitors =
      Build("a: { dpData: v Range: [36, 38] onFail: completePath; }");
  for (Monitor* monitor : {monitors.builtin.get(), monitors.interpreted.get(), monitors.compiled.get()}) {
    MonitorVerdict verdict;
    auto end_with = [&](double value, SimTime ts) {
      MonitorEvent e = End(kA, ts);
      e.has_dep_data = true;
      e.dep_data = value;
      return e;
    };
    EXPECT_FALSE(monitor->Step(end_with(36.0, 1), &verdict));
    EXPECT_FALSE(monitor->Step(end_with(38.0, 2), &verdict));
    EXPECT_FALSE(monitor->Step(end_with(37.1, 3), &verdict));
    EXPECT_TRUE(monitor->Step(end_with(35.9, 4), &verdict));
    EXPECT_EQ(verdict.action, ActionType::kCompletePath);
    EXPECT_TRUE(monitor->Step(end_with(39.2, 5), &verdict));
  }
}

TEST(DpDataTest, MissingDataNeverFires) {
  BothBackends monitors =
      Build("a: { dpData: v Range: [36, 38] onFail: completePath; }");
  for (Monitor* monitor : {monitors.builtin.get(), monitors.interpreted.get(), monitors.compiled.get()}) {
    MonitorVerdict verdict;
    EXPECT_FALSE(monitor->Step(End(kA, 1), &verdict));  // has_dep_data == false
  }
}

TEST(MinEnergyTest, FiresBelowThreshold) {
  BothBackends monitors = Build("a: { minEnergy: 0.5 onFail: skipTask; }");
  for (Monitor* monitor : {monitors.builtin.get(), monitors.interpreted.get(), monitors.compiled.get()}) {
    MonitorVerdict verdict;
    MonitorEvent rich = Start(kA, 1);
    rich.energy_fraction = 0.9;
    EXPECT_FALSE(monitor->Step(rich, &verdict));
    MonitorEvent poor = Start(kA, 2);
    poor.energy_fraction = 0.3;
    EXPECT_TRUE(monitor->Step(poor, &verdict));
    EXPECT_EQ(verdict.action, ActionType::kSkipTask);
  }
}

TEST(PathScopeTest, OutOfScopeEventsInvisible) {
  BothBackends monitors =
      Build("a: { maxTries: 1 onFail: skipPath Path: 2; }");
  for (Monitor* monitor : {monitors.builtin.get(), monitors.interpreted.get(), monitors.compiled.get()}) {
    MonitorVerdict verdict;
    // Starts on path 1 never count.
    EXPECT_FALSE(monitor->Step(Start(kA, 1, /*path=*/1), &verdict));
    EXPECT_FALSE(monitor->Step(Start(kA, 2, /*path=*/1), &verdict));
    EXPECT_FALSE(monitor->Step(Start(kA, 3, /*path=*/1), &verdict));
    // On path 2 the budget is one attempt.
    EXPECT_FALSE(monitor->Step(Start(kA, 4, /*path=*/2), &verdict));
    EXPECT_TRUE(monitor->Step(Start(kA, 5, /*path=*/2), &verdict));
    EXPECT_EQ(verdict.target_path, 2u);
  }
}

// ------------------------------------- backend equivalence (randomized) --

struct EquivCase {
  const char* spec;
  std::uint64_t seed;
};

class BackendEquivalenceTest : public ::testing::TestWithParam<EquivCase> {};

TEST_P(BackendEquivalenceTest, SameVerdictsOnRandomEventStream) {
  BothBackends monitors = Build(GetParam().spec);
  Rng rng(GetParam().seed);
  SimTime now = 0;
  for (int i = 0; i < 4000; ++i) {
    now += rng.UniformU64(1, 2 * kMinute);
    MonitorEvent e;
    e.kind = rng.NextDouble() < 0.5 ? EventKind::kStartTask : EventKind::kEndTask;
    e.task = rng.NextDouble() < 0.6 ? kA : kB;
    e.timestamp = now;
    e.path = rng.NextDouble() < 0.7 ? 1 : 2;
    e.seq = static_cast<std::uint64_t>(i) + 1;
    e.has_dep_data = e.kind == EventKind::kEndTask && e.task == kA;
    e.dep_data = rng.UniformDouble(30.0, 45.0);
    e.energy_fraction = rng.NextDouble();
    MonitorVerdict builtin_verdict, interp_verdict, compiled_verdict;
    const bool builtin_failed = monitors.builtin->Step(e, &builtin_verdict);
    const bool interp_failed = monitors.interpreted->Step(e, &interp_verdict);
    const bool compiled_failed = monitors.compiled->Step(e, &compiled_verdict);
    ASSERT_EQ(builtin_failed, interp_failed)
        << "event #" << i << " kind=" << static_cast<int>(e.kind) << " task=" << e.task
        << " path=" << e.path << " spec=" << GetParam().spec;
    ASSERT_EQ(interp_failed, compiled_failed)
        << "event #" << i << " kind=" << static_cast<int>(e.kind) << " task=" << e.task
        << " path=" << e.path << " spec=" << GetParam().spec;
    if (builtin_failed) {
      EXPECT_EQ(builtin_verdict.action, interp_verdict.action);
      EXPECT_EQ(builtin_verdict.target_path, interp_verdict.target_path);
      EXPECT_EQ(interp_verdict.action, compiled_verdict.action);
      EXPECT_EQ(interp_verdict.target_path, compiled_verdict.target_path);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllProperties, BackendEquivalenceTest,
    ::testing::Values(
        EquivCase{"a: { maxTries: 3 onFail: skipPath; }", 1},
        EquivCase{"a: { maxTries: 7 onFail: restartTask; }", 2},
        EquivCase{"a: { maxDuration: 30s onFail: skipTask; }", 3},
        EquivCase{"a: { collect: 4 dpTask: b onFail: restartPath; }", 4},
        EquivCase{"a: { MITD: 2min dpTask: b onFail: restartPath; }", 5},
        EquivCase{"a: { MITD: 90s dpTask: b onFail: restartPath maxAttempt: 2 "
                  "onFail: skipPath; }",
                  6},
        EquivCase{"a: { period: 1min jitter: 5s onFail: restartTask; }", 7},
        EquivCase{"a: { dpData: v Range: [36, 38] onFail: completePath; }", 8},
        EquivCase{"a: { minEnergy: 0.4 onFail: skipTask; }", 9},
        EquivCase{"a: { maxTries: 2 onFail: skipPath Path: 2; }", 10},
        EquivCase{"a: { MITD: 1min dpTask: b onFail: restartPath maxAttempt: 3 "
                  "onFail: skipPath Path: 1; }",
                  11}));

// ---------------------------------------------------------- arbitration --

TEST(ArbitrationTest, SeverityPicksStrongestAction) {
  const std::vector<MonitorVerdict> verdicts = {
      {ActionType::kSkipTask, kNoPath, "a"},
      {ActionType::kSkipPath, 2, "b"},
      {ActionType::kRestartTask, kNoPath, "c"},
  };
  const MonitorVerdict chosen = Arbitrate(verdicts, ArbitrationPolicy::kSeverity);
  EXPECT_EQ(chosen.action, ActionType::kSkipPath);
  EXPECT_EQ(chosen.property, "b");
}

TEST(ArbitrationTest, SeverityTiesBreakToEarliest) {
  const std::vector<MonitorVerdict> verdicts = {
      {ActionType::kRestartPath, 1, "first"},
      {ActionType::kRestartPath, 2, "second"},
  };
  EXPECT_EQ(Arbitrate(verdicts, ArbitrationPolicy::kSeverity).property, "first");
}

TEST(ArbitrationTest, FirstAndLastPolicies) {
  const std::vector<MonitorVerdict> verdicts = {
      {ActionType::kSkipTask, kNoPath, "first"},
      {ActionType::kCompletePath, kNoPath, "last"},
  };
  EXPECT_EQ(Arbitrate(verdicts, ArbitrationPolicy::kFirstWins).property, "first");
  EXPECT_EQ(Arbitrate(verdicts, ArbitrationPolicy::kLastWins).property, "last");
}

TEST(ArbitrationTest, EmptyMeansNoAction) {
  EXPECT_EQ(Arbitrate({}, ArbitrationPolicy::kSeverity).action, ActionType::kNone);
}

TEST(ArbitrationTest, EmptyMeansNoActionUnderEveryPolicy) {
  for (const ArbitrationPolicy policy :
       {ArbitrationPolicy::kSeverity, ArbitrationPolicy::kFirstWins,
        ArbitrationPolicy::kLastWins}) {
    const MonitorVerdict chosen = Arbitrate({}, policy);
    EXPECT_EQ(chosen.action, ActionType::kNone) << ArbitrationPolicyName(policy);
    EXPECT_TRUE(chosen.property.empty()) << ArbitrationPolicyName(policy);
  }
}

TEST(ArbitrationTest, SingleVerdictWinsUnderEveryPolicy) {
  const std::vector<MonitorVerdict> verdicts = {{ActionType::kRestartPath, 2, "only"}};
  for (const ArbitrationPolicy policy :
       {ArbitrationPolicy::kSeverity, ArbitrationPolicy::kFirstWins,
        ArbitrationPolicy::kLastWins}) {
    const MonitorVerdict chosen = Arbitrate(verdicts, policy);
    EXPECT_EQ(chosen.action, ActionType::kRestartPath) << ArbitrationPolicyName(policy);
    EXPECT_EQ(chosen.target_path, 2u) << ArbitrationPolicyName(policy);
    EXPECT_EQ(chosen.property, "only") << ArbitrationPolicyName(policy);
  }
}

TEST(ArbitrationTest, AllClearVerdictsStayClearUnderSeverity) {
  // Monitors that ran but found nothing report kNone; severity arbitration
  // must not surface any of them as a violation.
  const std::vector<MonitorVerdict> verdicts = {
      {ActionType::kNone, kNoPath, "a"},
      {ActionType::kNone, kNoPath, "b"},
  };
  const MonitorVerdict chosen = Arbitrate(verdicts, ArbitrationPolicy::kSeverity);
  EXPECT_EQ(chosen.action, ActionType::kNone);
  EXPECT_FALSE(chosen.violated());
}

// ------------------------------------------------------------ MonitorSet --

std::unique_ptr<Mcu> TestMcu(EnergyUj budget = 1e9) {
  return std::make_unique<Mcu>(std::make_unique<FixedChargePowerModel>(budget, kSecond),
                               DefaultCostModel());
}

std::unique_ptr<MonitorSet> HealthMonitors(MonitorBackend backend) {
  HealthApp app = BuildHealthApp();
  auto parsed = SpecParser::Parse(HealthAppSpec());
  return std::move(BuildMonitorSet(parsed.value(), app.graph, backend)).value();
}

TEST(MonitorSetTest, BuildsOneMonitorPerProperty) {
  for (const MonitorBackend backend :
       {MonitorBackend::kBuiltin, MonitorBackend::kInterpreted, MonitorBackend::kCompiled}) {
    auto set = HealthMonitors(backend);
    EXPECT_EQ(set->size(), 8u) << MonitorBackendName(backend);
    EXPECT_GT(set->FramBytes(), 0u);
  }
}

TEST(MonitorSetTest, CachedVerdictForSameSeq) {
  auto set = HealthMonitors(MonitorBackend::kBuiltin);
  auto mcu = TestMcu();
  set->HardReset(*mcu);
  HealthApp app = BuildHealthApp();
  MonitorEvent e = Start(app.accel, kSecond, 2);
  e.seq = 42;
  const CheckOutcome first = set->OnEvent(e, *mcu);
  EXPECT_EQ(first.status, 0);
  const std::uint64_t processed = set->events_processed();
  // Re-delivery with the same seq: replay from cache, no reprocessing.
  const CheckOutcome second = set->OnEvent(e, *mcu);
  EXPECT_EQ(second.verdict.action, first.verdict.action);
  EXPECT_EQ(set->events_processed(), processed);
}

TEST(MonitorSetTest, CachedVerdictWorksForSeqZero) {
  // Regression: the cache used `done_seq_ != 0` as its "no cached verdict"
  // sentinel, so an event with seq == 0 could never replay from the cache
  // and was re-stepped on every re-delivery.
  auto set = HealthMonitors(MonitorBackend::kBuiltin);
  auto mcu = TestMcu();
  set->HardReset(*mcu);
  HealthApp app = BuildHealthApp();
  MonitorEvent e = Start(app.accel, kSecond, 2);
  e.seq = 0;
  const CheckOutcome first = set->OnEvent(e, *mcu);
  EXPECT_EQ(first.status, 0);
  EXPECT_EQ(set->events_processed(), 1u);
  const CheckOutcome second = set->OnEvent(e, *mcu);
  EXPECT_EQ(second.verdict.action, first.verdict.action);
  EXPECT_EQ(set->events_processed(), 1u) << "seq-0 re-delivery must replay from cache";
}

TEST(MonitorSetTest, ResumesAfterPowerFailureWithoutDoubleStepping) {
  // Tiny budget: the power fails partway through the set's charges. The
  // maxTries counter must still advance exactly once per event.
  HealthApp app = BuildHealthApp();
  auto parsed = SpecParser::Parse("accel: { maxTries: 3 onFail: skipPath; }");
  auto set =
      std::move(BuildMonitorSet(parsed.value(), app.graph, MonitorBackend::kBuiltin)).value();
  auto mcu = TestMcu(/*budget=*/2.0);  // A couple of microjoules per period.
  set->HardReset(*mcu);
  MonitorEvent e = Start(app.accel, kSecond);
  e.seq = 1;
  // Deliver until it completes (each power failure interrupts the set).
  CheckOutcome outcome;
  int deliveries = 0;
  do {
    outcome = set->OnEvent(e, *mcu);
    ++deliveries;
    ASSERT_LT(deliveries, 100);
  } while (outcome.status != 0);
  EXPECT_EQ(set->events_processed(), 1u);

  // Three more starts (attempts 2..4): the property fires on the 4th.
  bool fired = false;
  for (std::uint64_t seq = 2; seq <= 4; ++seq) {
    MonitorEvent next = Start(app.accel, kSecond + seq);
    next.seq = seq;
    do {
      outcome = set->OnEvent(next, *mcu);
    } while (outcome.status != 0);
    fired = outcome.verdict.violated();
  }
  EXPECT_TRUE(fired);
}

TEST(MonitorSetTest, SeverityArbitrationAcrossMonitors) {
  // Two properties on the same task firing on the same event: maxTries 1
  // (skipTask) and minEnergy (completePath). completePath must win.
  AppGraph graph;
  graph.AddTask(TaskDef{.name = "t", .work = {}, .effect = nullptr, .monitored_var = std::nullopt});
  graph.AddPath({0});
  auto parsed = SpecParser::Parse(
      "t: { maxTries: 1 onFail: skipTask; minEnergy: 0.99 onFail: completePath; }");
  auto set =
      std::move(BuildMonitorSet(parsed.value(), graph, MonitorBackend::kBuiltin)).value();
  auto mcu = TestMcu();
  set->HardReset(*mcu);
  MonitorEvent first = Start(0, 1);
  first.seq = 1;
  first.energy_fraction = 0.5;  // minEnergy fires immediately.
  const CheckOutcome outcome = set->OnEvent(first, *mcu);
  EXPECT_EQ(outcome.verdict.action, ActionType::kCompletePath);
}

TEST(MonitorSetTest, HardResetClearsMonitorState) {
  auto set = HealthMonitors(MonitorBackend::kBuiltin);
  auto mcu = TestMcu();
  set->HardReset(*mcu);
  HealthApp app = BuildHealthApp();
  // Drive the accel maxTries counter up.
  for (std::uint64_t seq = 1; seq <= 5; ++seq) {
    MonitorEvent e = Start(app.accel, seq, 2);
    e.seq = seq;
    (void)set->OnEvent(e, *mcu);
  }
  set->HardReset(*mcu);
  // After the reset, ten fresh attempts are allowed again.
  for (std::uint64_t seq = 10; seq < 20; ++seq) {
    MonitorEvent e = Start(app.accel, seq, 2);
    e.seq = seq;
    const CheckOutcome outcome = set->OnEvent(e, *mcu);
    EXPECT_FALSE(outcome.verdict.violated()) << seq;
  }
}

TEST(MonitorSetTest, ChargesMonitorCostTag) {
  auto set = HealthMonitors(MonitorBackend::kBuiltin);
  auto mcu = TestMcu();
  set->HardReset(*mcu);
  HealthApp app = BuildHealthApp();
  MonitorEvent e = Start(app.send, 1, 2);
  e.seq = 1;
  (void)set->OnEvent(e, *mcu);
  EXPECT_GT(mcu->stats().busy_time[static_cast<int>(CostTag::kMonitor)], 0u);
  EXPECT_EQ(mcu->stats().busy_time[static_cast<int>(CostTag::kRuntime)], 0u);
}

TEST(MonitorSetTest, InterpretedBackendCostsMoreCycles) {
  auto builtin = HealthMonitors(MonitorBackend::kBuiltin);
  auto interp = HealthMonitors(MonitorBackend::kInterpreted);
  auto mcu_b = TestMcu();
  auto mcu_i = TestMcu();
  builtin->HardReset(*mcu_b);
  interp->HardReset(*mcu_i);
  HealthApp app = BuildHealthApp();
  for (std::uint64_t seq = 1; seq <= 10; ++seq) {
    MonitorEvent e = Start(app.send, seq * kSecond, 2);
    e.seq = seq;
    (void)builtin->OnEvent(e, *mcu_b);
    (void)interp->OnEvent(e, *mcu_i);
  }
  EXPECT_GT(mcu_i->stats().busy_time[static_cast<int>(CostTag::kMonitor)],
            mcu_b->stats().busy_time[static_cast<int>(CostTag::kMonitor)]);
}

// A checker's FRAM is registered when its runtime is built, so a device
// that does not fit is refused before it runs: HardReset registers nothing,
// and running a factory-built runtime leaves its arena report as it was.
TEST(MonitorSetTest, RegistersFramAtAssembly) {
  auto set = HealthMonitors(MonitorBackend::kBuiltin);
  auto mcu = TestMcu();
  set->HardReset(*mcu);
  EXPECT_EQ(mcu->nvm().used(), 0u);

  const HealthApp app = BuildHealthApp();
  const StatusOr<SpecAst> parsed = SpecParser::Parse(HealthAppSpec());
  ASSERT_TRUE(parsed.ok());
  const auto expect_run_keeps_report = [](Mcu& device, auto& runtime, const char* name) {
    const MemoryReport built = device.nvm().Report();
    EXPECT_GT(built.total, 0u) << name;
    runtime.Run();
    const MemoryReport run = device.nvm().Report();
    EXPECT_EQ(run.total, built.total) << name;
    EXPECT_EQ(run.by_owner, built.by_owner) << name;
  };
  for (const MonitorBackend backend :
       {MonitorBackend::kBuiltin, MonitorBackend::kInterpreted, MonitorBackend::kCompiled}) {
    auto run_mcu = TestMcu();
    ArtemisConfig config;
    config.backend = backend;
    StatusOr<std::unique_ptr<ArtemisRuntime>> runtime =
        ArtemisRuntime::Create(&app.graph, HealthAppSpec(), run_mcu.get(), config);
    ASSERT_TRUE(runtime.ok()) << runtime.status().ToString();
    expect_run_keeps_report(*run_mcu, *runtime.value(), MonitorBackendName(backend));
  }
  auto run_mcu = TestMcu();
  StatusOr<std::unique_ptr<MayflyRuntime>> mayfly =
      MayflyRuntime::Create(&app.graph, parsed.value(), run_mcu.get());
  ASSERT_TRUE(mayfly.ok()) << mayfly.status().ToString();
  expect_run_keeps_report(*run_mcu, *mayfly.value(), "mayfly");
}

}  // namespace
}  // namespace artemis
