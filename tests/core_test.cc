// Tests for the ARTEMIS runtime facade, the device recipe, the platform
// builder, and the reporting helpers.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "src/apps/health_app.h"
#include "src/core/device.h"
#include "src/core/obs_stats.h"
#include "src/core/runtime.h"
#include "src/core/stats.h"
#include "src/mayfly/mayfly.h"
#include "src/monitor/shared_spec.h"
#include "src/sim/mcu.h"
#include "src/sim/power_model.h"
#include "src/spec/parser.h"

namespace artemis {
namespace {

TEST(ArtemisRuntimeTest, CreateRejectsBadSpecSyntax) {
  HealthApp app = BuildHealthApp();
  auto mcu = std::make_unique<Mcu>(std::make_unique<AlwaysOnPowerModel>());
  auto runtime = ArtemisRuntime::Create(&app.graph, "send: { huh }", mcu.get(), {});
  EXPECT_FALSE(runtime.ok());
}

TEST(ArtemisRuntimeTest, CreateRejectsSemanticErrors) {
  HealthApp app = BuildHealthApp();
  auto mcu = std::make_unique<Mcu>(std::make_unique<AlwaysOnPowerModel>());
  auto runtime = ArtemisRuntime::Create(
      &app.graph, "ghost: { maxTries: 1 onFail: skipPath; }", mcu.get(), {});
  EXPECT_FALSE(runtime.ok());
}

TEST(ArtemisRuntimeTest, CreateRejectsEmptyGraph) {
  AppGraph graph;
  auto mcu = std::make_unique<Mcu>(std::make_unique<AlwaysOnPowerModel>());
  auto runtime = ArtemisRuntime::Create(&graph, "", mcu.get(), {});
  EXPECT_FALSE(runtime.ok());
}

TEST(ArtemisRuntimeTest, RunsHealthAppOnContinuousPower) {
  HealthApp app = BuildHealthApp();
  auto mcu = std::make_unique<Mcu>(std::make_unique<AlwaysOnPowerModel>());
  auto runtime = ArtemisRuntime::Create(&app.graph, HealthAppSpec(), mcu.get(), {});
  ASSERT_TRUE(runtime.ok()) << runtime.status().ToString();
  const KernelRunResult result = runtime.value()->Run();
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.stats.reboots, 0u);
  // Path #1 restarted until ten bodyTemp samples were collected.
  EXPECT_EQ(runtime.value()->kernel().channels().CompletionCount(app.body_temp), 10u);
  EXPECT_EQ(runtime.value()->monitors().size(), 8u);
}

TEST(ArtemisRuntimeTest, BackendsProduceIdenticalExecution) {
  for (const SimDuration charge : {kSecond, kMinute}) {
    // Ordered by simulated per-step cost: builtin < compiled < interpreted.
    KernelRunResult results[3];
    std::uint64_t sends[3];
    int i = 0;
    for (const MonitorBackend backend :
         {MonitorBackend::kBuiltin, MonitorBackend::kCompiled, MonitorBackend::kInterpreted}) {
      HealthApp app = BuildHealthApp();
      auto mcu = std::make_unique<Mcu>(std::make_unique<FixedChargePowerModel>(19'500.0, charge));
      ArtemisConfig config;
      config.backend = backend;
      config.kernel.max_wall_time = 2 * kHour;
      auto runtime = ArtemisRuntime::Create(&app.graph, HealthAppSpec(), mcu.get(), config);
      ASSERT_TRUE(runtime.ok());
      results[i] = runtime.value()->Run();
      sends[i] = runtime.value()->kernel().channels().CompletionCount(app.send);
      ++i;
    }
    for (int j = 1; j < 3; ++j) {
      EXPECT_EQ(results[0].completed, results[j].completed) << j;
      EXPECT_EQ(results[0].stats.reboots, results[j].stats.reboots) << j;
      EXPECT_EQ(sends[0], sends[j]) << j;
      // App time nearly identical: a backend's extra monitor cycles shift
      // where power failures land inside task bodies, which perturbs the
      // aborted-partial-run accounting by microseconds.
      const double app0 =
          static_cast<double>(results[0].stats.busy_time[static_cast<int>(CostTag::kApp)]);
      const double appj =
          static_cast<double>(results[j].stats.busy_time[static_cast<int>(CostTag::kApp)]);
      EXPECT_NEAR(app0 / appj, 1.0, 0.01);
      EXPECT_LT(results[j - 1].stats.busy_time[static_cast<int>(CostTag::kMonitor)],
                results[j].stats.busy_time[static_cast<int>(CostTag::kMonitor)]);
    }
  }
}

TEST(ArtemisRuntimeTest, FeverTriggersCompletePath) {
  HealthAppOptions options;
  options.force_fever = true;
  HealthApp app = BuildHealthApp(options);
  auto mcu = std::make_unique<Mcu>(std::make_unique<AlwaysOnPowerModel>());
  ArtemisConfig config;
  config.kernel.record_trace = true;
  auto runtime = ArtemisRuntime::Create(&app.graph, HealthAppSpec(), mcu.get(), config);
  ASSERT_TRUE(runtime.ok());
  const KernelRunResult result = runtime.value()->Run();
  EXPECT_TRUE(result.completed);
  // dpData(avgTemp) fired and the rest of path #1 ran unmonitored.
  bool saw_unmonitored = false;
  bool saw_dpdata = false;
  for (const obs::Event& e : runtime.value()->kernel().trace()) {
    saw_unmonitored = saw_unmonitored || e.kind == obs::Kind::kPathCompleteUnmonitored;
    saw_dpdata = saw_dpdata || (e.kind == obs::Kind::kViolation &&
                                e.detail.find("dpData") != std::string::npos);
  }
  EXPECT_TRUE(saw_unmonitored);
  EXPECT_TRUE(saw_dpdata);
}

// Create(text) is BuildSpecArtifact + CreateFromArtifact: both paths must
// run the same monitors.
TEST(ArtemisRuntimeTest, CreateMatchesCreateFromArtifact) {
  // The second spec carries a validation warning (maxDuration below accel's
  // work time), which the runtime keeps and still runs.
  for (const std::string& spec :
       {HealthAppSpec(), std::string("accel: { maxDuration: 1ms onFail: skipTask; }")}) {
    const bool warns = spec != HealthAppSpec();
    for (const MonitorBackend backend :
         {MonitorBackend::kBuiltin, MonitorBackend::kInterpreted, MonitorBackend::kCompiled}) {
      ArtemisConfig config;
      config.backend = backend;
      config.kernel.max_wall_time = 8 * kHour;
      HealthApp direct_app = BuildHealthApp();
      auto direct_mcu =
          std::make_unique<Mcu>(std::make_unique<FixedChargePowerModel>(19'500.0, 6 * kMinute));
      auto direct = ArtemisRuntime::Create(&direct_app.graph, spec, direct_mcu.get(), config);
      HealthApp shared_app = BuildHealthApp();
      auto shared_mcu =
          std::make_unique<Mcu>(std::make_unique<FixedChargePowerModel>(19'500.0, 6 * kMinute));
      auto artifact = BuildSpecArtifact(spec, shared_app.graph, StageForBackend(backend));
      ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
      auto shared = ArtemisRuntime::CreateFromArtifact(&shared_app.graph, artifact.value(),
                                                       shared_mcu.get(), config);
      ASSERT_TRUE(direct.ok()) << direct.status().ToString();
      ASSERT_TRUE(shared.ok()) << shared.status().ToString();
      EXPECT_EQ(direct.value()->validation_warnings().empty(), !warns);
      EXPECT_EQ(direct.value()->validation_warnings(), shared.value()->validation_warnings());
      const KernelRunResult a = direct.value()->Run();
      const KernelRunResult b = shared.value()->Run();
      EXPECT_EQ(a.completed, b.completed);
      EXPECT_EQ(a.finished_at, b.finished_at);
      EXPECT_EQ(a.stats.reboots, b.stats.reboots);
      EXPECT_EQ(a.stats.TotalEnergy(), b.stats.TotalEnergy());
      EXPECT_EQ(direct.value()->monitors().events_processed(),
                shared.value()->monitors().events_processed());
      EXPECT_EQ(direct.value()->monitors().violations_reported(),
                shared.value()->monitors().violations_reported());
    }
  }
}

// ----------------------------------------------------------------- device --

// A Mayfly device publishes into the recipe's observer exactly as a hand
// wired one does with Mcu::set_observer.
TEST(DeviceRunTest, MayflyObserverMatchesHandWiring) {
  constexpr SimDuration kCharge = 2 * kMinute - kSecond;
  HealthApp app = BuildHealthApp();
  auto mcu = std::make_unique<Mcu>(std::make_unique<FixedChargePowerModel>(19'500.0, kCharge));
  obs::EventBus hand_bus;
  ObsStatsAggregator hand;
  hand_bus.AddSink(&hand);
  mcu->set_observer(&hand_bus);
  KernelOptions options;
  options.max_wall_time = 2 * kHour;
  auto parsed = SpecParser::Parse(HealthAppSpec());
  ASSERT_TRUE(parsed.ok());
  auto mayfly = MayflyRuntime::Create(&app.graph, parsed.value(), mcu.get(), options);
  ASSERT_TRUE(mayfly.ok());
  mayfly.value()->Run();

  obs::EventBus bus;
  ObsStatsAggregator recipe_stats;
  bus.AddSink(&recipe_stats);
  DeviceRecipe recipe;
  recipe.graph = std::make_shared<const AppGraph>(BuildHealthApp().graph);
  auto artifact = BuildSpecArtifact(HealthAppSpec(), *recipe.graph, SpecArtifactStage::kAst);
  ASSERT_TRUE(artifact.ok());
  recipe.charge = kCharge;
  recipe.budget = 19'500.0;
  recipe.system = MonitorSystem::kMayfly;
  recipe.artifact = artifact.value();
  recipe.kernel.max_wall_time = 2 * kHour;
  recipe.observer = &bus;
  DeviceRun device(std::move(recipe));
  ASSERT_TRUE(device.status().ok()) << device.status().ToString();
  device.Run();

  EXPECT_GT(recipe_stats.CountFor(obs::Kind::kSimPowerFail), 0u);
  for (int k = 0; k < obs::kNumKinds; ++k) {
    EXPECT_EQ(recipe_stats.CountFor(static_cast<obs::Kind>(k)),
              hand.CountFor(static_cast<obs::Kind>(k)))
        << obs::KindName(static_cast<obs::Kind>(k));
  }
}

// One stream, two destinations: the kernel's recorded trace is exactly the
// kernel-component events on the MCU's bus, field for field.
TEST(DeviceRunTest, KernelTraceEqualsTheBusKernelEvents) {
  for (const MonitorBackend backend : {MonitorBackend::kBuiltin, MonitorBackend::kCompiled}) {
    obs::EventBus bus;
    obs::CollectingSink sink;
    bus.AddSink(&sink);
    DeviceRecipe recipe;
    recipe.graph = std::make_shared<const AppGraph>(BuildHealthApp().graph);
    auto artifact = BuildSpecArtifact(HealthAppSpec(), *recipe.graph, StageForBackend(backend));
    ASSERT_TRUE(artifact.ok());
    recipe.charge = 6 * kMinute - kSecond;
    recipe.budget = 19'500.0;
    recipe.artifact = artifact.value();
    recipe.backend = backend;
    recipe.kernel.max_wall_time = 8 * kHour;
    recipe.kernel.record_trace = true;
    recipe.observer = &bus;
    DeviceRun device(std::move(recipe));
    ASSERT_TRUE(device.status().ok()) << device.status().ToString();
    ASSERT_TRUE(device.Run().completed);

    std::vector<obs::Event> kernel_events;
    for (const obs::Event& e : sink.events()) {
      if (obs::ComponentOf(e.kind) == obs::Component::kKernel) {
        kernel_events.push_back(e);
      }
    }
    EXPECT_GT(kernel_events.size(), 0u);
    EXPECT_TRUE(device.kernel().trace() == kernel_events) << MonitorBackendName(backend);
  }
}

// The MCU is the one place a bus is attached: a hand-wired kernel and
// MonitorSet on an MCU with only Mcu::set_observer publish every layer.
TEST(DeviceRunTest, HandWiredDevicePublishesEveryLayerThroughTheMcu) {
  HealthApp app = BuildHealthApp();
  auto mcu = std::make_unique<Mcu>(
      std::make_unique<FixedChargePowerModel>(19'500.0, 6 * kMinute - kSecond));
  obs::EventBus bus;
  obs::CollectingSink sink;
  bus.AddSink(&sink);
  mcu->set_observer(&bus);
  auto parsed = SpecParser::Parse(HealthAppSpec());
  ASSERT_TRUE(parsed.ok());
  auto monitors = BuildMonitorSet(parsed.value(), app.graph, MonitorBackend::kCompiled);
  ASSERT_TRUE(monitors.ok()) << monitors.status().ToString();
  KernelOptions options;
  options.max_wall_time = 8 * kHour;
  IntermittentKernel kernel(&app.graph, monitors.value().get(), mcu.get(), options);
  ASSERT_TRUE(kernel.Run().completed);

  std::set<obs::Kind> published;
  for (const obs::Event& e : sink.events()) {
    published.insert(e.kind);
  }
  for (const obs::Kind kind : {obs::Kind::kSimPowerFail, obs::Kind::kTaskEnd, obs::Kind::kCommit,
                               obs::Kind::kMonitorDelivery, obs::Kind::kMonitorVerdict}) {
    EXPECT_EQ(published.count(kind), 1u) << obs::KindName(kind);
  }
}

// ------------------------------------------------------------------ stats --

TEST(StatsTest, BreakdownMatchesTags) {
  McuStats stats;
  stats.busy_time[static_cast<int>(CostTag::kApp)] = 4 * kSecond;
  stats.busy_time[static_cast<int>(CostTag::kRuntime)] = 15 * kMillisecond;
  stats.busy_time[static_cast<int>(CostTag::kMonitor)] = 10 * kMillisecond;
  stats.busy_time[static_cast<int>(CostTag::kReboot)] = kMillisecond;
  const OverheadBreakdown b = BreakdownFromStats(stats);
  EXPECT_EQ(b.app_time, 4 * kSecond);
  EXPECT_EQ(b.runtime_overhead, 15 * kMillisecond);
  EXPECT_EQ(b.monitor_overhead, 10 * kMillisecond);
  EXPECT_EQ(b.Total(), 4 * kSecond + 26 * kMillisecond);
  const std::string row = FormatOverheadRow("x", b);
  EXPECT_NE(row.find("app=4s"), std::string::npos);
  EXPECT_NE(row.find("monitor=10ms"), std::string::npos);
}

TEST(StatsTest, MemoryTableFormatting) {
  const std::string table = FormatMemoryTable(
      {MemoryRow{.component = "Mayfly runtime", .text = 1152, .ram = 2, .fram = 6354}});
  EXPECT_NE(table.find("Mayfly runtime"), std::string::npos);
  EXPECT_NE(table.find("6354"), std::string::npos);
  EXPECT_NE(table.find(".text"), std::string::npos);
}

TEST(StatsTest, EnergyUnitsScale) {
  EXPECT_EQ(FormatEnergy(12.3), "12.3uJ");
  EXPECT_EQ(FormatEnergy(32'270.0), "32.27mJ");
  EXPECT_EQ(FormatEnergy(2.5e6), "2.50J");
}

TEST(ArtemisRuntimeTest, TextProxyLargerThanMayfly) {
  EXPECT_EQ(ArtemisRuntime::RuntimeTextBytes(), 1512u);
}

}  // namespace
}  // namespace artemis
