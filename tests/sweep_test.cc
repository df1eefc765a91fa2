// Tests for the parallel deterministic sweep engine (src/sweep): grid
// expansion, byte-identical export across worker counts, per-point equality
// with direct serial runs, the device-class fold, the compiled-spec cache's
// build-once guarantee, error-row reporting, table rendering, and the grid
// JSON loader.
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/apps/health_app.h"
#include "src/core/device.h"
#include "src/core/runtime.h"
#include "src/mayfly/mayfly.h"
#include "src/sim/mcu.h"
#include "src/sim/power_model.h"
#include "src/spec/parser.h"
#include "src/sweep/grid_json.h"
#include "src/sweep/spec_cache.h"
#include "src/sweep/sweep.h"

namespace artemis {
namespace {

constexpr EnergyUj kBudget = 19'500.0;

SimDuration Charge(int minutes) {
  return static_cast<SimDuration>(minutes) * kMinute - 1 * kSecond;
}

// 3 charges x 2 systems x 2 backends x 2 seeds = 24 points, all completing
// (charging delays stay inside the 5-minute MITD window).
sweep::SweepSpec TestGrid() {
  sweep::SweepSpec grid;
  grid.systems = {"artemis", "mayfly"};
  grid.backends = {"builtin", "compiled"};
  grid.charges = {Charge(1), Charge(2), Charge(3)};
  grid.budgets = {kBudget};
  grid.seeds = {1, 2};
  grid.max_wall = 8 * kHour;
  return grid;
}

TEST(SweepGridTest, ExpandsCartesianProductInDocumentedOrder) {
  StatusOr<std::vector<sweep::SweepPoint>> points = sweep::ExpandGrid(TestGrid());
  ASSERT_TRUE(points.ok()) << points.status().ToString();
  ASSERT_EQ(points.value().size(), 24u);
  // Outermost spec, then system, backend, timekeeper, budget, charge, seed.
  EXPECT_EQ(points.value()[0].system, "artemis");
  EXPECT_EQ(points.value()[0].backend_name, "builtin");
  EXPECT_EQ(points.value()[0].charge, Charge(1));
  EXPECT_EQ(points.value()[0].seed, 1u);
  EXPECT_EQ(points.value()[1].seed, 2u);
  EXPECT_EQ(points.value()[2].charge, Charge(2));
  EXPECT_EQ(points.value()[6].backend_name, "compiled");
  EXPECT_EQ(points.value()[12].system, "mayfly");
  for (std::size_t i = 0; i < points.value().size(); ++i) {
    EXPECT_EQ(points.value()[i].index, i);
    EXPECT_FALSE(points.value()[i].spec_text.empty());
  }

  // More than one value on every axis: every decoded point, field by field,
  // against nested loops in the documented order.
  const std::string tries = "accel: { maxTries: 10 onFail: skipPath; }\n";
  sweep::SweepSpec grid;
  grid.specs = {{}, {"tries", tries}};
  grid.systems = {"artemis", "mayfly"};
  grid.backends = {"builtin", "interpreted", "compiled"};
  grid.timekeepers = {"default", "rtc:0.01"};
  grid.budgets = {kBudget, 1e8};
  grid.charges = {Charge(1), 0, Charge(6)};
  grid.seeds = {7, 3, 11};
  const std::pair<std::string, MonitorBackend> backends[] = {
      {"builtin", MonitorBackend::kBuiltin},
      {"interpreted", MonitorBackend::kInterpreted},
      {"compiled", MonitorBackend::kCompiled}};
  StatusOr<std::vector<sweep::SweepPoint>> all = sweep::ExpandGrid(grid);
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  ASSERT_EQ(all.value().size(), 2u * 2 * 3 * 2 * 2 * 3 * 3);
  std::size_t index = 0;
  for (const sweep::SpecSource& source : grid.specs) {
    const std::string text = source.text.value_or(HealthAppSpec());
    for (const std::string& system : grid.systems) {
      for (const auto& [backend_name, backend] : backends) {
        for (const std::string& timekeeper : grid.timekeepers) {
          for (const EnergyUj budget : grid.budgets) {
            for (const SimDuration charge : grid.charges) {
              for (const std::uint64_t seed : grid.seeds) {
                SCOPED_TRACE("point " + std::to_string(index));
                const sweep::SweepPoint& point = all.value()[index];
                EXPECT_EQ(point.index, index);
                EXPECT_EQ(point.app, "health");
                EXPECT_EQ(point.system, system);
                EXPECT_EQ(point.spec_label, source.label);
                EXPECT_EQ(point.spec_text, text);
                EXPECT_EQ(point.backend_name, backend_name);
                EXPECT_EQ(point.backend, backend);
                EXPECT_EQ(point.timekeeper, timekeeper);
                EXPECT_EQ(point.budget, budget);
                EXPECT_EQ(point.charge, charge);
                EXPECT_EQ(point.seed, seed);
                ++index;
              }
            }
          }
        }
      }
    }
  }
}

TEST(SweepGridTest, RejectsBadAxisValues) {
  sweep::SweepSpec grid;
  grid.systems = {"riotos"};
  EXPECT_FALSE(sweep::ExpandGrid(grid).ok());
  grid = sweep::SweepSpec();
  grid.backends = {"jit"};
  EXPECT_FALSE(sweep::ExpandGrid(grid).ok());
  grid = sweep::SweepSpec();
  grid.timekeepers = {"sundial"};
  EXPECT_FALSE(sweep::ExpandGrid(grid).ok());
  grid = sweep::SweepSpec();
  grid.app = "minesweeper";
  EXPECT_FALSE(sweep::ExpandGrid(grid).ok());
  grid = sweep::SweepSpec();
  grid.seeds.clear();
  EXPECT_FALSE(sweep::ExpandGrid(grid).ok());
  // 2^16 values on four axes: 2^64 points, which would wrap a size_t to 0.
  grid = sweep::SweepSpec();
  grid.seeds.assign(1 << 16, 1);
  grid.budgets.assign(1 << 16, kBudget);
  grid.charges.assign(1 << 16, 0);
  grid.timekeepers.assign(1 << 16, "default");
  const StatusOr<std::vector<sweep::SweepPoint>> huge = sweep::ExpandGrid(grid);
  ASSERT_FALSE(huge.ok());
  EXPECT_NE(huge.status().message().find("more points than"), std::string::npos);
  EXPECT_FALSE(sweep::RunSweep(grid, 1).ok());
}

// A clock error is a relative standard deviation: the whole token must be
// a finite number in [0, 1].
TEST(SweepGridTest, ClockErrorsMustBeFractions) {
  for (const char* name :
       {"rtc:nan", "rtc:inf", "rtc:1e308", "rtc:0x10", "rtc:1.5", "rtc:-0.1", "rtc: 0.1",
        "rtc:0.1x", "rtc:", "remanence:5min:nan", "remanence:5min:2"}) {
    sweep::SweepSpec grid;
    grid.timekeepers = {name};
    EXPECT_FALSE(sweep::ExpandGrid(grid).ok()) << name;
  }
  for (const char* name : {"rtc:0", "rtc:0.01", "rtc:0.1", "rtc:1", "remanence:5min:0.1"}) {
    sweep::SweepSpec grid;
    grid.timekeepers = {name};
    EXPECT_TRUE(sweep::ExpandGrid(grid).ok()) << name;
  }
}

// Budgets are checked once, in ExpandGrid, for the flag and grid paths
// alike: a zero budget starves every point, so it is refused up front.
TEST(SweepGridTest, BudgetsMustBePositiveAndFinite) {
  for (const double budget : {0.0, -1.0, std::numeric_limits<double>::infinity(),
                              std::numeric_limits<double>::quiet_NaN()}) {
    sweep::SweepSpec grid;
    grid.budgets = {kBudget, budget};
    EXPECT_FALSE(sweep::ExpandGrid(grid).ok()) << budget;
  }
  StatusOr<sweep::SweepSpec> grid = sweep::ParseGridJson(R"({"budgets": [0], "analyze": false})");
  ASSERT_TRUE(grid.ok()) << grid.status().ToString();
  EXPECT_FALSE(sweep::RunSweep(grid.value(), 1).ok());
}

// Numbers render in full, however large: the JSON budget_uj cell parses
// back to the exact budget.
TEST(SweepGridTest, HugeBudgetsRenderWithoutTruncation) {
  sweep::SweepSpec grid;
  grid.budgets = {1e300};
  grid.max_wall = 1 * kSecond;
  grid.analyze = false;
  StatusOr<sweep::SweepOutcome> outcome = sweep::RunSweep(grid, 1);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  StatusOr<sweep::JsonValuePtr> json = sweep::ParseJson(sweep::RenderJson(grid, outcome.value()));
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  const sweep::JsonValuePtr rows = json.value()->Find("rows");
  ASSERT_TRUE(rows != nullptr && rows->is_array() && rows->array().size() == 1u);
  const sweep::JsonValuePtr budget = rows->array()[0]->Find("budget_uj");
  ASSERT_TRUE(budget != nullptr && budget->is_number());
  EXPECT_EQ(budget->number(), 1e300);
}

// The rtc:<err> axis reaches the timekeeper as the same double strtod
// yields: a sweep point equals a direct run with that timekeeper.
TEST(SweepEngineTest, RtcAxisMatchesDirectTimekeeperRun) {
  sweep::SweepSpec grid;
  grid.timekeepers = {"rtc:0.01"};
  grid.charges = {Charge(6)};
  grid.seeds = {3};
  grid.max_wall = 8 * kHour;
  StatusOr<sweep::SweepOutcome> outcome = sweep::RunSweep(grid, 1);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_TRUE(outcome.value().AllOk());
  const sweep::SweepRow& row = outcome.value().rows[0];

  DeviceRecipe recipe;
  recipe.graph = std::make_shared<const AppGraph>(BuildHealthApp().graph);
  recipe.charge = Charge(6);
  recipe.budget = kBudget;
  recipe.timekeeper = std::make_unique<RtcTimekeeper>(std::strtod("0.01", nullptr));
  StatusOr<SharedSpecArtifactPtr> artifact =
      BuildSpecArtifact(HealthAppSpec(), *recipe.graph,
                        StageForBackend(MonitorBackend::kBuiltin));
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  recipe.artifact = artifact.value();
  recipe.kernel.seed = 3;
  recipe.kernel.max_wall_time = grid.max_wall;
  DeviceRun device(std::move(recipe));
  ASSERT_TRUE(device.status().ok()) << device.status().ToString();
  const KernelRunResult expected = device.Run();

  EXPECT_EQ(row.result.finished_at, expected.finished_at);
  EXPECT_EQ(row.result.stats.reboots, expected.stats.reboots);
  EXPECT_EQ(row.violations, device.artemis()->monitors().violations_reported());
  EXPECT_DOUBLE_EQ(row.result.stats.TotalEnergy(), expected.stats.TotalEnergy());
}

TEST(SweepEngineTest, ExportBytesAreIdenticalForAnyJobCount) {
  const sweep::SweepSpec grid = TestGrid();
  StatusOr<sweep::SweepOutcome> serial = sweep::RunSweep(grid, 1);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_TRUE(serial.value().AllOk());
  const std::string json1 = sweep::RenderJson(grid, serial.value());
  const std::string csv1 = sweep::RenderCsv(serial.value());
  const std::string table1 = sweep::RenderTable(serial.value());

  for (const int jobs : {4, 8}) {
    StatusOr<sweep::SweepOutcome> parallel = sweep::RunSweep(grid, jobs);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    EXPECT_EQ(json1, sweep::RenderJson(grid, parallel.value())) << "jobs=" << jobs;
    EXPECT_EQ(csv1, sweep::RenderCsv(parallel.value())) << "jobs=" << jobs;
    EXPECT_EQ(table1, sweep::RenderTable(parallel.value())) << "jobs=" << jobs;
  }
}

// Each sweep row must equal a from-scratch serial run of the same point
// through the public runtime API (full pipeline, no cache, no engine).
TEST(SweepEngineTest, RowsMatchDirectSerialRuns) {
  const sweep::SweepSpec grid = TestGrid();
  StatusOr<sweep::SweepOutcome> outcome = sweep::RunSweep(grid, 8);
  ASSERT_TRUE(outcome.ok());
  ASSERT_TRUE(outcome.value().AllOk());

  StatusOr<std::vector<sweep::SweepPoint>> points = sweep::ExpandGrid(grid);
  ASSERT_TRUE(points.ok());
  for (const std::size_t index : {0u, 7u, 13u, 23u}) {
    const sweep::SweepPoint& point = points.value()[index];
    const sweep::SweepRow& row = outcome.value().rows[index];

    HealthApp app = BuildHealthApp();
    std::unique_ptr<Mcu> mcu =
        std::make_unique<Mcu>(std::make_unique<FixedChargePowerModel>(point.budget, point.charge));
    KernelRunResult expected;
    if (point.system == "artemis") {
      ArtemisConfig config;
      config.backend = point.backend;
      config.kernel.seed = point.seed;
      config.kernel.max_wall_time = grid.max_wall;
      StatusOr<std::unique_ptr<ArtemisRuntime>> runtime =
          ArtemisRuntime::Create(&app.graph, point.spec_text, mcu.get(), config);
      ASSERT_TRUE(runtime.ok()) << runtime.status().ToString();
      expected = runtime.value()->Run();
    } else {
      StatusOr<SpecAst> parsed = SpecParser::Parse(point.spec_text);
      ASSERT_TRUE(parsed.ok());
      KernelOptions options;
      options.seed = point.seed;
      options.max_wall_time = grid.max_wall;
      StatusOr<std::unique_ptr<MayflyRuntime>> runtime =
          MayflyRuntime::Create(&app.graph, parsed.value(), mcu.get(), options);
      ASSERT_TRUE(runtime.ok());
      expected = runtime.value()->Run();
    }

    EXPECT_EQ(row.result.completed, expected.completed) << "index " << index;
    EXPECT_EQ(row.result.timed_out, expected.timed_out) << "index " << index;
    EXPECT_EQ(row.result.finished_at, expected.finished_at) << "index " << index;
    EXPECT_EQ(row.result.iterations_completed, expected.iterations_completed);
    EXPECT_EQ(row.result.stats.reboots, expected.stats.reboots) << "index " << index;
    EXPECT_DOUBLE_EQ(row.result.stats.TotalEnergy(), expected.stats.TotalEnergy())
        << "index " << index;
  }
}

TEST(SweepEngineTest, CacheCoalescesPipelineWorkAcrossPointsAndWorkers) {
  CompiledSpecCache cache;
  StatusOr<sweep::SweepOutcome> outcome = sweep::RunSweep(TestGrid(), 8, &cache);
  ASSERT_TRUE(outcome.ok());
  // 24 requests; one kAst build shared by builtin + mayfly, one kCompiled
  // build for the compiled backend — regardless of worker interleaving.
  EXPECT_EQ(outcome.value().cache_requests, 24u);
  EXPECT_EQ(outcome.value().cache_builds, 2u);
  EXPECT_EQ(outcome.value().cache_parses, 2u);
  EXPECT_EQ(outcome.value().cache_lowerings, 1u);
  EXPECT_EQ(outcome.value().cache_compilations, 1u);

  // Re-running the whole sweep against the warm cache does zero additional
  // pipeline work: the hit path is a map lookup plus a shared_ptr copy.
  StatusOr<sweep::SweepOutcome> warm = sweep::RunSweep(TestGrid(), 8, &cache);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm.value().cache_requests, 24u);
  EXPECT_EQ(warm.value().cache_builds, 0u);
  EXPECT_EQ(warm.value().cache_parses, 0u);
  EXPECT_EQ(warm.value().cache_lowerings, 0u);
  EXPECT_EQ(warm.value().cache_compilations, 0u);
  EXPECT_EQ(cache.hits(), 24u + 24u - 2u);
}

TEST(SpecCacheTest, SameKeyReturnsSameArtifactInstance) {
  HealthApp app = BuildHealthApp();
  CompiledSpecCache cache;
  StatusOr<SharedSpecArtifactPtr> first =
      cache.Get("health", HealthAppSpec(), app.graph, SpecArtifactStage::kCompiled);
  StatusOr<SharedSpecArtifactPtr> second =
      cache.Get("health", HealthAppSpec(), app.graph, SpecArtifactStage::kCompiled);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value().get(), second.value().get());
  EXPECT_EQ(cache.builds(), 1u);
  EXPECT_EQ(cache.parses(), 1u);

  // A different stage is a different artifact (shallower pipeline).
  StatusOr<SharedSpecArtifactPtr> ast_only =
      cache.Get("health", HealthAppSpec(), app.graph, SpecArtifactStage::kAst);
  ASSERT_TRUE(ast_only.ok());
  EXPECT_NE(ast_only.value().get(), first.value().get());
  EXPECT_TRUE(ast_only.value()->compiled.empty());
  EXPECT_FALSE(first.value()->compiled.empty());
  EXPECT_EQ(cache.builds(), 2u);
  EXPECT_EQ(cache.compilations(), 1u);
}

TEST(SpecCacheTest, ParseFailureIsCachedAsStatus) {
  HealthApp app = BuildHealthApp();
  CompiledSpecCache cache;
  for (int i = 0; i < 3; ++i) {
    StatusOr<SharedSpecArtifactPtr> result =
        cache.Get("health", "this is not a spec {", app.graph, SpecArtifactStage::kAst);
    EXPECT_FALSE(result.ok());
  }
  EXPECT_EQ(cache.builds(), 1u);  // The failure is cached too.
  EXPECT_EQ(cache.parses(), 1u);
}

TEST(SweepEngineTest, BadSpecBecomesErrorRowsNotProcessDeath) {
  sweep::SweepSpec grid;
  grid.specs = {{"good", std::nullopt}, {"broken", "not a spec at all {"}};
  grid.charges = {Charge(1)};
  grid.budgets = {kBudget};
  grid.max_wall = 8 * kHour;
  StatusOr<sweep::SweepOutcome> outcome = sweep::RunSweep(grid, 4);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_EQ(outcome.value().rows.size(), 2u);
  EXPECT_TRUE(outcome.value().rows[0].ok);
  EXPECT_FALSE(outcome.value().rows[1].ok);
  EXPECT_FALSE(outcome.value().rows[1].error.empty());
  EXPECT_FALSE(outcome.value().AllOk());
  // Error rows render, with the error text carried through.
  const std::string json = sweep::RenderJson(grid, outcome.value());
  EXPECT_NE(json.find("\"status\": \"error\""), std::string::npos);
}

// Only an absent spec text selects the app's default spec; an empty one is
// a spec with no properties, in a grid built in C++ or read from JSON.
TEST(SweepEngineTest, EmptySpecHasNoPropertiesAndAbsentSpecIsTheDefault) {
  StatusOr<sweep::SweepSpec> parsed = sweep::ParseGridJson(
      R"({"specs": [{"label": "empty", "text": ""}, {"label": "none", "text": "accel: {}"},)"
      R"( {"label": "default"}]})");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  sweep::SweepSpec grid = parsed.value();
  ASSERT_EQ(grid.specs[0].text, std::optional<std::string>(""));
  ASSERT_FALSE(grid.specs[2].text.has_value());
  StatusOr<sweep::SweepOutcome> outcome = sweep::RunSweep(grid, 2);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  const std::vector<sweep::SweepRow>& rows = outcome.value().rows;
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_TRUE(outcome.value().AllOk());
  EXPECT_GT(rows[1].monitor_events, 0u);
  EXPECT_EQ(rows[0].monitor_events, rows[1].monitor_events);
  EXPECT_EQ(rows[0].violations, 0u);
  EXPECT_EQ(rows[1].violations, 0u);
  EXPECT_GT(rows[2].monitor_events, rows[1].monitor_events);
  EXPECT_GT(rows[2].violations, 0u);
}

TEST(SweepEngineTest, AnalyzerGateFailsFastOnInfeasibleDeployment) {
  sweep::SweepSpec grid;
  grid.app = "health";
  grid.specs = {{"infeasible", "accel: {\n  maxTries: 10 onFail: skipPath;\n}\n"}};
  // 9000 uJ cannot cover accel's ~18 001 uJ atomic attempt: ART009 before
  // any point simulates, with the same status for any job count.
  grid.budgets = {9'000.0};
  grid.max_wall = 1 * kSecond;
  const StatusOr<sweep::SweepOutcome> gated = sweep::RunSweep(grid, 4);
  ASSERT_FALSE(gated.ok());
  EXPECT_NE(gated.status().ToString().find("ART009"), std::string::npos);
  EXPECT_NE(gated.status().ToString().find("sweep"), std::string::npos);
  const StatusOr<sweep::SweepOutcome> serial = sweep::RunSweep(grid, 1);
  ASSERT_FALSE(serial.ok());
  EXPECT_EQ(serial.status().ToString(), gated.status().ToString());

  // The documented escape hatch: the grid still runs (and starves).
  grid.analyze = false;
  const StatusOr<sweep::SweepOutcome> forced = sweep::RunSweep(grid, 1);
  ASSERT_TRUE(forced.ok()) << forced.status().ToString();
  ASSERT_EQ(forced.value().rows.size(), 1u);
}

TEST(SweepEngineTest, AnalyzerGateStillYieldsErrorRowsForUnparseableSpecs) {
  // The gate must not steal the error-row contract: a spec the frontend
  // rejects is a per-point diagnosis, not engine death.
  sweep::SweepSpec grid;
  grid.specs = {{"broken", "not a spec at all {"}};
  grid.charges = {Charge(1)};
  grid.budgets = {kBudget};
  const StatusOr<sweep::SweepOutcome> outcome = sweep::RunSweep(grid, 2);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_EQ(outcome.value().rows.size(), 1u);
  EXPECT_FALSE(outcome.value().rows[0].ok);
}

TEST(SweepEngineTest, CollectStatsDoesNotPerturbSimulation) {
  sweep::SweepSpec grid;
  grid.charges = {Charge(2)};
  grid.budgets = {kBudget};
  grid.max_wall = 8 * kHour;
  StatusOr<sweep::SweepOutcome> plain = sweep::RunSweep(grid, 1);
  grid.collect_stats = true;
  StatusOr<sweep::SweepOutcome> observed = sweep::RunSweep(grid, 1);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(observed.ok());
  EXPECT_EQ(plain.value().rows[0].result.finished_at,
            observed.value().rows[0].result.finished_at);
  EXPECT_DOUBLE_EQ(plain.value().rows[0].result.stats.TotalEnergy(),
                   observed.value().rows[0].result.stats.TotalEnergy());
  ASSERT_NE(observed.value().rows[0].stats, nullptr);
  EXPECT_GT(observed.value().rows[0].stats->total_events(), 0u);
  EXPECT_EQ(plain.value().rows[0].stats, nullptr);
}

TEST(SweepChargeScheduleTest, ParsesNamedBinsAndContinuous) {
  StatusOr<SimDuration> continuous = sweep::ParseChargeSchedule("continuous");
  ASSERT_TRUE(continuous.ok());
  EXPECT_EQ(continuous.value(), 0u);
  StatusOr<SimDuration> six = sweep::ParseChargeSchedule("6min");
  ASSERT_TRUE(six.ok());
  EXPECT_EQ(six.value(), 6 * kMinute - 1 * kSecond);
  EXPECT_FALSE(sweep::ParseChargeSchedule("yesterday").ok());
  EXPECT_FALSE(sweep::ParseChargeSchedule("500ms").ok());  // inside boot margin
}

TEST(SweepGridJsonTest, ParsesFullGridDocument) {
  const std::string text = R"({
    "app": "health",
    "systems": ["artemis", "mayfly"],
    "charges": ["continuous", "6min"],
    "budgets": [19500],
    "backends": ["builtin", "compiled"],
    "timekeepers": ["default", "rtc:0.01"],
    "seeds": [1, 7],
    "max_wall": "8h",
    "collect_stats": true,
    "analyze": false,
    "specs": [{"label": "default"}, {"label": "inline", "text": "accel: { maxTries: 3 onFail: skipPath; }"}]
  })";
  StatusOr<sweep::SweepSpec> grid = sweep::ParseGridJson(text);
  ASSERT_TRUE(grid.ok()) << grid.status().ToString();
  EXPECT_EQ(grid.value().systems.size(), 2u);
  EXPECT_EQ(grid.value().charges[0], 0u);
  EXPECT_EQ(grid.value().charges[1], 6 * kMinute - 1 * kSecond);
  EXPECT_EQ(grid.value().seeds[1], 7u);
  EXPECT_EQ(grid.value().max_wall, 8 * kHour);
  EXPECT_TRUE(grid.value().collect_stats);
  EXPECT_FALSE(grid.value().analyze);
  EXPECT_EQ(grid.value().specs[1].label, "inline");
  StatusOr<std::vector<sweep::SweepPoint>> points = sweep::ExpandGrid(grid.value());
  ASSERT_TRUE(points.ok()) << points.status().ToString();
  EXPECT_EQ(points.value().size(), 2u * 2u * 2u * 2u * 2u * 2u);
}

TEST(SweepGridJsonTest, RejectsUnknownKeysAndBadTypes) {
  EXPECT_FALSE(sweep::ParseGridJson(R"({"charge_times": ["6min"]})").ok());
  EXPECT_FALSE(sweep::ParseGridJson(R"({"systems": "artemis"})").ok());
  EXPECT_FALSE(sweep::ParseGridJson(R"({"budgets": ["lots"]})").ok());
  EXPECT_FALSE(sweep::ParseGridJson(R"({"specs": [{"text": "x"}]})").ok());
  EXPECT_FALSE(sweep::ParseGridJson("[1, 2]").ok());
  EXPECT_FALSE(sweep::ParseGridJson("{").ok());
  // File references require a loader.
  EXPECT_FALSE(sweep::ParseGridJson(R"({"specs": [{"label": "f", "file": "x.spec"}]})").ok());
  StatusOr<sweep::SweepSpec> loaded = sweep::ParseGridJson(
      R"({"specs": [{"label": "f", "file": "x.spec"}]})",
      [](const std::string&) -> StatusOr<std::string> { return std::string("accel: {}"); });
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().specs[0].text, "accel: {}");
}

// Containers nest at most 64 deep: deeper input is refused with its
// position instead of exhausting the parser's stack.
TEST(SweepGridJsonTest, RefusesNestingDeeperThan64) {
  const auto nested = [](std::size_t depth) {
    return "{\"seeds\": " + std::string(depth, '[') + std::string(depth, ']') + "}";
  };
  for (const std::size_t depth : {std::size_t{64}, std::size_t{50'000}}) {
    const StatusOr<sweep::SweepSpec> grid = sweep::ParseGridJson(nested(depth));
    ASSERT_FALSE(grid.ok()) << depth;
    EXPECT_EQ(grid.status().message(), "json: nesting deeper than 64 at line 1, column 74")
        << depth;
  }
  // 64 levels parse; the grid then refuses the nested seeds by type.
  const StatusOr<sweep::SweepSpec> within = sweep::ParseGridJson(nested(63));
  ASSERT_FALSE(within.ok());
  EXPECT_NE(within.status().message().find("\"seeds\""), std::string::npos)
      << within.status().ToString();
}

// JSON numbers are doubles: seeds and byte counts must be whole numbers no
// larger than 2^53, the largest range doubles hold exactly.
TEST(SweepGridJsonTest, RejectsInexactSeedsAndByteCounts) {
  for (const char* text :
       {R"({"seeds": [1.5]})", R"({"seeds": [1e30]})", R"({"seeds": [18446744073709551615]})",
        R"({"seeds": [-1]})", R"({"seeds": ["1"]})", R"({"flight_bytes": 1.5})",
        R"({"flight_bytes": 1e300})", R"({"flight_bytes": 0})"}) {
    EXPECT_FALSE(sweep::ParseGridJson(text).ok()) << text;
  }
  StatusOr<sweep::SweepSpec> grid =
      sweep::ParseGridJson(R"({"seeds": [0, 9007199254740992], "flight_bytes": 512})");
  ASSERT_TRUE(grid.ok()) << grid.status().ToString();
  EXPECT_EQ(grid.value().seeds[1], 9007199254740992u);
  EXPECT_EQ(grid.value().flight_bytes, 512u);
}

// RenderTable sizes each line to its content: a row longer than any fixed
// buffer keeps every column and its newline.
TEST(SweepRenderTest, LongCellsKeepEveryColumnAndTheirNewline) {
  StatusOr<sweep::SweepSpec> long_label = sweep::ParseGridJson(
      R"({"specs": [{"label": ")" + std::string(250, 'L') + R"("}], "seeds": [1, 2]})");
  ASSERT_TRUE(long_label.ok()) << long_label.status().ToString();
  sweep::SweepSpec long_clock;
  long_clock.timekeepers = {"rtc:0." + std::string(240, '0') + "1"};
  long_clock.seeds = {1, 2};
  for (const sweep::SweepSpec& grid : {long_label.value(), long_clock}) {
    StatusOr<sweep::SweepOutcome> outcome = sweep::RunSweep(grid, 1);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    ASSERT_TRUE(outcome.value().AllOk());
    std::vector<std::string> lines;
    std::istringstream table(sweep::RenderTable(outcome.value()));
    for (std::string line; std::getline(table, line);) {
      lines.push_back(line);
    }
    ASSERT_EQ(lines.size(), 3u);  // the header and one line per row
    for (std::size_t i = 0; i < 2; ++i) {
      const sweep::SweepRow& row = outcome.value().rows[i];
      const std::string& line = lines[i + 1];
      EXPECT_NE(line.find(" " + row.spec_label + " "), std::string::npos) << line;
      EXPECT_NE(line.find(" " + row.timekeeper + " "), std::string::npos) << line;
      EXPECT_NE(line.find(" " + FormatDuration(row.result.finished_at) + " "), std::string::npos)
          << line;
      char tail[64];
      std::snprintf(tail, sizeof(tail), " %12.1f %8llu %6llu", row.result.stats.TotalEnergy(),
                    static_cast<unsigned long long>(row.monitor_events),
                    static_cast<unsigned long long>(row.violations));
      ASSERT_GT(line.size(), std::strlen(tail));
      EXPECT_EQ(line.substr(line.size() - std::strlen(tail)), tail) << line;
    }
  }
}

// ---- the device-class fold -----------------------------------------------

std::uint64_t Bits(double value) { return std::bit_cast<std::uint64_t>(value); }

// Every field of a row: McuStats bit for bit, the obs stats through Render().
void ExpectSameRow(const sweep::SweepRow& got, const sweep::SweepRow& want) {
  SCOPED_TRACE("row " + std::to_string(want.index));
  EXPECT_EQ(got.index, want.index);
  EXPECT_EQ(got.system, want.system);
  EXPECT_EQ(got.spec_label, want.spec_label);
  EXPECT_EQ(got.backend, want.backend);
  EXPECT_EQ(got.timekeeper, want.timekeeper);
  EXPECT_EQ(got.charge, want.charge);
  EXPECT_EQ(Bits(got.budget), Bits(want.budget));
  EXPECT_EQ(got.seed, want.seed);
  EXPECT_EQ(got.ok, want.ok);
  EXPECT_EQ(got.error, want.error);
  EXPECT_EQ(got.result.completed, want.result.completed);
  EXPECT_EQ(got.result.starved, want.result.starved);
  EXPECT_EQ(got.result.timed_out, want.result.timed_out);
  EXPECT_EQ(got.result.finished_at, want.result.finished_at);
  EXPECT_EQ(got.result.iterations_completed, want.result.iterations_completed);
  for (std::size_t tag = 0; tag < want.result.stats.energy.size(); ++tag) {
    EXPECT_EQ(got.result.stats.busy_time[tag], want.result.stats.busy_time[tag]) << tag;
    EXPECT_EQ(Bits(got.result.stats.energy[tag]), Bits(want.result.stats.energy[tag])) << tag;
  }
  EXPECT_EQ(got.result.stats.reboots, want.result.stats.reboots);
  EXPECT_EQ(got.result.stats.charging_time, want.result.stats.charging_time);
  EXPECT_EQ(got.monitor_events, want.monitor_events);
  EXPECT_EQ(got.violations, want.violations);
  ASSERT_EQ(got.stats != nullptr, want.stats != nullptr);
  if (want.stats != nullptr) {
    EXPECT_EQ(got.stats->Render(), want.stats->Render());
  }
  EXPECT_EQ(got.flight_enabled, want.flight_enabled);
  EXPECT_EQ(got.flight_sealed, want.flight_sealed);
  EXPECT_EQ(got.flight_dropped, want.flight_dropped);
  EXPECT_EQ(got.flight_bytes, want.flight_bytes);
  EXPECT_EQ(Bits(got.flight_energy_share), Bits(want.flight_energy_share));
  ASSERT_EQ(got.metrics.size(), want.metrics.size());
  for (std::size_t m = 0; m < want.metrics.size(); ++m) {
    EXPECT_EQ(got.metrics[m].first, want.metrics[m].first);
    EXPECT_EQ(Bits(got.metrics[m].second), Bits(want.metrics[m].second));
  }
}

// The fold oracle: at jobs 1, 4 and 8, every row RunSweep folds equals
// RunSweepPoint run alone on that point, so do the JSON, CSV and table
// renderings and the cache counts, and the engine runs `devices` devices.
void ExpectFoldMatchesPointRuns(const sweep::SweepSpec& grid, std::uint64_t requests_per_point,
                                std::uint64_t devices) {
  StatusOr<std::vector<sweep::SweepPoint>> points = sweep::ExpandGrid(grid);
  ASSERT_TRUE(points.ok()) << points.status().ToString();
  CompiledSpecCache cache;
  sweep::SweepOutcome alone;
  for (const sweep::SweepPoint& point : points.value()) {
    alone.rows.push_back(sweep::RunSweepPoint(point, grid, cache));
  }
  alone.cache_requests = cache.requests();
  alone.cache_builds = cache.builds();
  alone.cache_parses = cache.parses();
  alone.cache_lowerings = cache.lowerings();
  alone.cache_compilations = cache.compilations();
  EXPECT_EQ(alone.cache_requests, requests_per_point * points.value().size());

  for (const int jobs : {1, 4, 8}) {
    SCOPED_TRACE("jobs " + std::to_string(jobs));
    StatusOr<sweep::SweepOutcome> folded = sweep::RunSweep(grid, jobs);
    ASSERT_TRUE(folded.ok()) << folded.status().ToString();
    ASSERT_EQ(folded.value().rows.size(), alone.rows.size());
    for (std::size_t i = 0; i < alone.rows.size(); ++i) {
      ExpectSameRow(folded.value().rows[i], alone.rows[i]);
    }
    EXPECT_EQ(folded.value().cache_requests, alone.cache_requests);
    EXPECT_EQ(folded.value().cache_builds, alone.cache_builds);
    EXPECT_EQ(folded.value().cache_parses, alone.cache_parses);
    EXPECT_EQ(folded.value().cache_lowerings, alone.cache_lowerings);
    EXPECT_EQ(folded.value().cache_compilations, alone.cache_compilations);
    EXPECT_EQ(sweep::RenderJson(grid, folded.value()), sweep::RenderJson(grid, alone));
    EXPECT_EQ(sweep::RenderCsv(folded.value()), sweep::RenderCsv(alone));
    EXPECT_EQ(sweep::RenderTable(folded.value()), sweep::RenderTable(alone));
    EXPECT_EQ(folded.value().devices_run, devices);
  }
}

// Mayfly folds its backends, continuous power its budgets, and an
// outage-free run its timekeepers. The 10^8 uJ budget gives charged runs
// that never fail, so the timekeeper rule is tested beyond continuous
// power. Per seed: ARTEMIS 3 backends x (continuous 1 + 1min and 6min x
// (19,500 uJ: 4 timekeepers + 10^8 uJ: 1)) = 33, Mayfly 1 x 11 = 11.
TEST(SweepFoldTest, FoldedRowsEqualPointsRunAlone) {
  sweep::SweepSpec grid;
  grid.systems = {"artemis", "mayfly"};
  grid.backends = {"builtin", "interpreted", "compiled"};
  grid.charges = {0, Charge(1), Charge(6)};
  grid.timekeepers = {"default", "ideal", "rtc:0.01", "remanence:30s:0.1"};
  grid.budgets = {kBudget, 1e8};
  grid.seeds = {1, 2};
  grid.flight = "full";
  grid.collect_stats = true;
  ExpectFoldMatchesPointRuns(grid, 1, 88);  // of 288 points
}

// A class is led by the point at coordinate 0 on every axis it folds, so
// irregular axes must fold too: Mayfly listed first and twice, two continuous charges
// that are not first, three budgets. Per system entry: 2 continuous
// devices, and per charged schedule 1 device for each outage-free budget
// (10^8 and 5x10^7 uJ) plus 3 timekeepers at 19,500 uJ; ARTEMIS runs that
// for each of its 2 backends: (2 + 2 x 5) x (1 + 2 + 1) = 48 devices.
TEST(SweepFoldTest, IrregularAxesFold) {
  sweep::SweepSpec grid;
  grid.systems = {"mayfly", "artemis", "mayfly"};
  grid.backends = {"compiled", "builtin"};
  grid.charges = {Charge(1), 0, Charge(6), 0};
  grid.timekeepers = {"rtc:0.01", "default", "ideal"};
  grid.budgets = {1e8, kBudget, 5e7};
  grid.seeds = {3};
  ExpectFoldMatchesPointRuns(grid, 1, 48);  // of 216 points
}

// A hot-swap grid requests two artifacts per point, and its continuous
// points fold their timekeepers.
TEST(SweepFoldTest, SwapGridFoldsAndKeepsTwoRequestsPerPoint) {
  std::ifstream file(std::filesystem::path(ARTEMIS_SOURCE_DIR) / "examples/specs/health.prop");
  std::stringstream health;
  health << file.rdbuf();
  ASSERT_FALSE(health.str().empty());
  sweep::SweepSpec grid;
  grid.backends = {"compiled"};
  grid.charges = {0, Charge(6)};
  grid.timekeepers = {"default", "rtc:0.01"};
  grid.seeds = {1, 2};
  grid.spec2 = {"health.prop", health.str()};
  grid.swap_at = 2 * kMinute;
  grid.flight = "full";
  ExpectFoldMatchesPointRuns(grid, 2, 6);  // of 8 points
}

TEST(SweepFoldTest, UnparseableSpecRunsNoDevice) {
  sweep::SweepSpec grid;
  grid.specs = {{"broken", "not a spec at all {"}};
  grid.systems = {"artemis", "mayfly"};
  grid.backends = {"builtin", "compiled"};
  grid.charges = {0, Charge(1)};
  grid.timekeepers = {"default", "rtc:0.01"};
  ExpectFoldMatchesPointRuns(grid, 1, 0);

  // Behind two parseable sources, the app's default and the same text under
  // another label (the analyzer gate checks it once), the broken source
  // still only yields error rows. Per parseable source: ARTEMIS 2 backends x
  // (continuous 1 + 1min 2 timekeepers) = 6 devices, Mayfly 3.
  grid.specs = {{}, {"again", HealthAppSpec()}, {"broken", "not a spec at all {"}};
  grid.flight = "full";
  ExpectFoldMatchesPointRuns(grid, 1, 18);  // of 48 points
}

// A post_run hook reads the device itself, so every point keeps its own
// device and the hook sees each point's own coordinates.
TEST(SweepFoldTest, PostRunGridKeepsOneDevicePerPoint) {
  std::mutex mu;
  std::multiset<std::tuple<std::size_t, std::string, std::string, bool>> calls;
  sweep::SweepSpec grid;
  grid.systems = {"artemis", "mayfly"};
  grid.backends = {"builtin", "compiled"};
  grid.charges = {0, Charge(1)};
  grid.timekeepers = {"default", "rtc:0.01"};
  grid.budgets = {kBudget, 1e8};
  grid.post_run = [&](const sweep::SweepPoint& point, const sweep::SweepRunArtifacts& run,
                      sweep::SweepRow*) {
    const std::lock_guard<std::mutex> lock(mu);
    calls.emplace(point.index, point.backend_name, point.timekeeper, run.mayfly != nullptr);
  };
  StatusOr<std::vector<sweep::SweepPoint>> points = sweep::ExpandGrid(grid);
  ASSERT_TRUE(points.ok()) << points.status().ToString();
  ExpectFoldMatchesPointRuns(grid, 1, points.value().size());

  // Once per point for the serial reference and once per job count.
  EXPECT_EQ(calls.size(), 4 * points.value().size());
  for (const sweep::SweepPoint& point : points.value()) {
    EXPECT_EQ(calls.count({point.index, point.backend_name, point.timekeeper,
                           point.system == "mayfly"}),
              4u)
        << point.index;
  }
}

// ------------------------------------------------------- sweep goldens --

std::string ReadRepoFile(const std::string& relative) {
  std::ifstream in(std::filesystem::path(ARTEMIS_SOURCE_DIR) / relative, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << relative;
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

// The grids tools/ci.sh stage 5 runs through `artemisc sweep`, with its
// axes and spec labels, each with the golden it must render.
std::vector<std::pair<std::string, sweep::SweepSpec>> GoldenGrids() {
  std::vector<std::pair<std::string, sweep::SweepSpec>> grids;
  // --app <app> --systems artemis,mayfly --backends builtin,interpreted,compiled
  // --charges continuous,1min,6min --seeds 1,2,3 --flight full
  sweep::SweepSpec all;
  all.systems = {"artemis", "mayfly"};
  all.backends = {"builtin", "interpreted", "compiled"};
  all.charges = {0, Charge(1), Charge(6)};
  all.seeds = {1, 2, 3};
  all.flight = "full";
  for (const std::string app : {"greenhouse", "ar"}) {
    all.app = app;
    grids.emplace_back(app + ".json", all);
  }
  // The same for health with --timekeepers default,ideal,rtc:0.01,
  // remanence:30s:0.1 --budgets 19500,100000000 --seeds 1,2 --stats.
  sweep::SweepSpec fold = all;
  fold.app = "health";
  fold.timekeepers = {"default", "ideal", "rtc:0.01", "remanence:30s:0.1"};
  fold.budgets = {kBudget, 1e8};
  fold.seeds = {1, 2};
  fold.collect_stats = true;
  grids.emplace_back("health_fold.json", fold);
  // --app health --systems artemis --backends compiled --charges continuous,6min
  // --timekeepers default,rtc:0.01 --seeds 1,2 --spec examples/specs/health.prop
  // --spec2 examples/specs/health.prop --swap-at 2min --flight full
  const std::string health = "examples/specs/health.prop";
  sweep::SweepSpec swap;
  swap.specs = {{health, ReadRepoFile(health)}};
  swap.backends = {"compiled"};
  swap.charges = {0, Charge(6)};
  swap.timekeepers = {"default", "rtc:0.01"};
  swap.seeds = {1, 2};
  swap.spec2 = {health, ReadRepoFile(health)};
  swap.swap_at = 2 * kMinute;
  swap.flight = "full";
  grids.emplace_back("health_swap.json", swap);
  // tests/golden/sweep/health_errors.grid.json: an unparsable spec's error row.
  StatusOr<sweep::SweepSpec> errors =
      sweep::ParseGridJson(ReadRepoFile("tests/golden/sweep/health_errors.grid.json"));
  EXPECT_TRUE(errors.ok()) << errors.status().ToString();
  if (errors.ok()) {
    grids.emplace_back("health_errors.json", errors.value());
  }
  return grids;
}

TEST(SweepGoldenTest, GridsRenderTheirGoldensForAnyJobCount) {
  for (const auto& [golden, grid] : GoldenGrids()) {
    const std::string expected = ReadRepoFile("tests/golden/sweep/" + golden);
    for (const int jobs : {1, 4}) {
      StatusOr<sweep::SweepOutcome> outcome = sweep::RunSweep(grid, jobs);
      ASSERT_TRUE(outcome.ok()) << golden << ": " << outcome.status().ToString();
      EXPECT_EQ(sweep::RenderJson(grid, outcome.value()), expected)
          << golden << " jobs=" << jobs;
    }
  }
}

}  // namespace
}  // namespace artemis
