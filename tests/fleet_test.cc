// Tests for the fleet-scale device-twin engine (src/fleet): the static
// cpu-map, the integral histogram fold, the per-device seed stream, and
// the two determinism contracts that make fleet results trustworthy —
// byte-identical renderings for any shard count, and a single-device
// scalar fleet being the same computation as one sweep point — the
// batch VM's verdict parity with scalar monitors on captured streams, and
// the batch fleet goldens under tests/golden/fleet/.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/base/units.h"
#include "src/fleet/fleet.h"
#include "src/fleet/instance.h"
#include "src/monitor/arbitration.h"
#include "src/monitor/compiled.h"
#include "src/sweep/spec_cache.h"
#include "src/sweep/sweep.h"

namespace artemis::fleet {
namespace {

// ---------------------------------------------------------- cpu-map ------

TEST(CpuMapTest, CoversRangeContiguouslyAndBalanced) {
  for (const std::uint64_t devices : {1ull, 7ull, 8ull, 100ull, 1001ull}) {
    for (const int shards : {1, 2, 3, 8, 13}) {
      const std::vector<ShardRange> map = BuildCpuMap(devices, shards);
      ASSERT_EQ(map.size(), static_cast<std::size_t>(shards));
      std::uint64_t expect_begin = 0;
      std::uint64_t min_size = devices;
      std::uint64_t max_size = 0;
      for (const ShardRange& range : map) {
        EXPECT_EQ(range.begin, expect_begin) << devices << "/" << shards;
        EXPECT_LE(range.begin, range.end);
        min_size = std::min(min_size, range.end - range.begin);
        max_size = std::max(max_size, range.end - range.begin);
        expect_begin = range.end;
      }
      EXPECT_EQ(expect_begin, devices) << devices << "/" << shards;
      // Balanced to within one device (some shards may be empty when
      // shards > devices, in which case max is 1).
      EXPECT_LE(max_size - min_size, 1u) << devices << "/" << shards;
    }
  }
}

TEST(CpuMapTest, MoreShardsThanDevicesYieldsEmptyTailRanges) {
  const std::vector<ShardRange> map = BuildCpuMap(3, 8);
  ASSERT_EQ(map.size(), 8u);
  EXPECT_EQ(map[2].end, 3u);
  for (std::size_t s = 3; s < map.size(); ++s) {
    EXPECT_EQ(map[s].begin, map[s].end);
  }
}

// ------------------------------------------------------- device seeds ----

TEST(DeviceSeedTest, NonZeroDistinctAndFleetSeedDependent) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 4096; ++i) {
    const std::uint64_t s = DeviceSeed(1, i);
    EXPECT_NE(s, 0u);
    seen.insert(s);
  }
  EXPECT_EQ(seen.size(), 4096u);  // no collisions across a fleet prefix
  EXPECT_NE(DeviceSeed(1, 0), DeviceSeed(2, 0));
  EXPECT_EQ(DeviceSeed(7, 42), DeviceSeed(7, 42));  // pure function
}

// ---------------------------------------------------------- histogram ----

TEST(FleetHistogramTest, MergeEqualsSingleFold) {
  const std::vector<std::uint64_t> samples = {0, 1, 1, 2, 3, 9, 100, 1000, 1ull << 40};
  FleetHistogram whole;
  FleetHistogram left;
  FleetHistogram right;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    whole.Record(samples[i]);
    (i < samples.size() / 2 ? left : right).Record(samples[i]);
  }
  FleetHistogram merged;
  merged.MergeFrom(left);
  merged.MergeFrom(right);
  EXPECT_EQ(merged.count(), whole.count());
  EXPECT_EQ(merged.sum(), whole.sum());
  EXPECT_EQ(merged.min(), whole.min());
  EXPECT_EQ(merged.max(), whole.max());
  EXPECT_EQ(merged.Summary(), whole.Summary());
}

TEST(FleetHistogramTest, PercentilesBracketSamples) {
  FleetHistogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) {
    h.Record(v);
  }
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 1000u);
  // Power-of-two buckets: the p-quantile reports its bucket's upper bound,
  // so it can only over-approximate, never under-approximate.
  EXPECT_GE(h.Percentile(0.5), 500u);
  EXPECT_LE(h.Percentile(0.5), 1023u);
  EXPECT_EQ(h.Percentile(1.0), 1000u);  // clamped into the observed range
  EXPECT_EQ(FleetHistogram{}.Percentile(0.5), 0u);
}

// ------------------------------------------------ shard determinism ------

FleetSpec SmallFleet(const std::string& monitor, int shards) {
  FleetSpec spec;
  spec.app = "health";
  spec.monitor = monitor;
  spec.devices = 12;
  spec.shards = shards;
  spec.seed = 3;
  spec.charges = {0, 6 * kMinute - kSecond};  // mixed continuous + harvested
  spec.iterations = 1;
  spec.tile = 5;  // deliberately misaligned with the shard ranges
  return spec;
}

TEST(FleetDeterminismTest, BatchModeByteIdenticalAcrossShardCounts) {
  const FleetSpec base = SmallFleet("batch", 1);
  StatusOr<FleetOutcome> one = RunFleet(base);
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  const std::string golden = RenderFleetJson(base, one.value());
  for (const int shards : {2, 4, 8}) {
    FleetSpec spec = SmallFleet("batch", shards);
    StatusOr<FleetOutcome> outcome = RunFleet(spec);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_EQ(RenderFleetJson(spec, outcome.value()), golden) << "shards=" << shards;
    EXPECT_EQ(RenderFleetTable(spec, outcome.value()),
              RenderFleetTable(base, one.value()))
        << "shards=" << shards;
  }
}

TEST(FleetDeterminismTest, ScalarModeByteIdenticalAcrossShardCounts) {
  const FleetSpec base = SmallFleet("scalar", 1);
  StatusOr<FleetOutcome> one = RunFleet(base);
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  const std::string golden = RenderFleetJson(base, one.value());
  for (const int shards : {3, 8}) {
    FleetSpec spec = SmallFleet("scalar", shards);
    StatusOr<FleetOutcome> outcome = RunFleet(spec);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_EQ(RenderFleetJson(spec, outcome.value()), golden) << "shards=" << shards;
  }
}

TEST(FleetDeterminismTest, BatchModeIndependentOfTileSize) {
  const FleetSpec base = SmallFleet("batch", 2);
  StatusOr<FleetOutcome> one = RunFleet(base);
  ASSERT_TRUE(one.ok());
  for (const std::uint32_t tile : {1u, 3u, 256u}) {
    FleetSpec spec = SmallFleet("batch", 2);
    spec.tile = tile;
    StatusOr<FleetOutcome> outcome = RunFleet(spec);
    ASSERT_TRUE(outcome.ok());
    EXPECT_EQ(RenderFleetJson(spec, outcome.value()),
              RenderFleetJson(base, one.value()))
        << "tile=" << tile;
  }
}

// ------------------------------------------------------ batch goldens ---

#ifndef ARTEMIS_SOURCE_DIR
#define ARTEMIS_SOURCE_DIR "."
#endif

std::string ReadSourceFile(const std::string& relative) {
  std::ifstream in(std::string(ARTEMIS_SOURCE_DIR) + "/" + relative, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << relative;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// `artemisc fleet --app <app> --monitor batch --stats --devices 64 --tile 16`.
FleetSpec BatchStatsFleet(const std::string& app) {
  FleetSpec spec;
  spec.app = app;
  spec.devices = 64;
  spec.tile = 16;
  spec.collect_obs = true;
  spec.collect_traffic = true;
  return spec;
}

// The batch fleets tools/ci.sh stage 6 diffs against tests/golden/fleet/.
struct BatchGolden {
  std::string file;
  FleetSpec spec;
};

std::vector<BatchGolden> BatchGoldens() {
  std::vector<BatchGolden> goldens;
  // --app health --devices 200 --iterations 1 --charges continuous,6min --tile 16
  FleetSpec health;
  health.devices = 200;
  health.charges = {0, 6 * kMinute - kSecond};
  health.tile = 16;
  goldens.push_back({"health_batch.json", health});
  goldens.push_back({"health_batch_stats.json", BatchStatsFleet("health")});
  // The stats fleet with --charges continuous,1min,6min, for the other two
  // apps and for examples/specs/bad/dead_state.prop --no-analyze (its
  // dispatch holds a kCommit entry).
  const std::vector<SimDuration> charges = {0, kMinute - kSecond, 6 * kMinute - kSecond};
  for (const std::string app : {"greenhouse", "ar"}) {
    FleetSpec spec = BatchStatsFleet(app);
    spec.charges = charges;
    goldens.push_back({app + "_batch_stats.json", spec});
  }
  FleetSpec dead = BatchStatsFleet("health");
  dead.charges = charges;
  dead.spec_label = "examples/specs/bad/dead_state.prop";
  dead.spec_text = ReadSourceFile(dead.spec_label);
  dead.analyze = false;
  goldens.push_back({"health_dead_state_batch_stats.json", dead});
  return goldens;
}

TEST(FleetGoldenTest, BatchFleetsRenderTheirGoldens) {
  for (const BatchGolden& golden : BatchGoldens()) {
    const std::string expected = ReadSourceFile("tests/golden/fleet/" + golden.file);
    for (const int shards : {1, 4}) {
      FleetSpec spec = golden.spec;
      spec.shards = shards;
      StatusOr<FleetOutcome> outcome = RunFleet(spec);
      ASSERT_TRUE(outcome.ok()) << golden.file << ": " << outcome.status().ToString();
      EXPECT_EQ(RenderFleetJson(spec, outcome.value()), expected)
          << golden.file << " shards=" << shards;
    }
  }
}

// ------------------------------------------- sweep-point equivalence -----

// A single-device scalar fleet is one sweep point: same app graph, same
// platform, same kernel options, same in-loop monitors, and a seed pinned
// to the fleet's DeviceSeed stream.
TEST(FleetSweepEquivalenceTest, SingleDeviceScalarFleetMatchesSweepPoint) {
  for (const SimDuration charge : {SimDuration{0}, 6 * kMinute - kSecond}) {
    FleetSpec fleet_spec;
    fleet_spec.app = "health";
    fleet_spec.monitor = "scalar";
    fleet_spec.backend = MonitorBackend::kCompiled;
    fleet_spec.devices = 1;
    fleet_spec.seed = 11;
    fleet_spec.charges = {charge};
    fleet_spec.budgets = {19'500.0};
    fleet_spec.iterations = 1;
    StatusOr<FleetOutcome> outcome = RunFleet(fleet_spec);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    const FleetAggregates& agg = outcome.value().agg;

    sweep::SweepSpec sweep_spec;
    sweep_spec.app = "health";
    sweep::SweepPoint point;
    point.app = "health";
    point.system = "artemis";
    point.spec_label = "default";
    point.spec_text = [] {
      sweep::SweepSpec probe;
      auto points = sweep::ExpandGrid(probe);
      return points.value()[0].spec_text;  // the app's embedded default spec
    }();
    point.backend_name = "compiled";
    point.backend = MonitorBackend::kCompiled;
    point.timekeeper = "default";
    point.budget = 19'500.0;
    point.charge = charge;
    point.seed = DeviceSeed(fleet_spec.seed, 0);
    CompiledSpecCache cache;
    const sweep::SweepRow row = sweep::RunSweepPoint(point, sweep_spec, cache);
    ASSERT_TRUE(row.ok) << row.error;

    EXPECT_EQ(agg.completed, row.result.completed ? 1u : 0u);
    EXPECT_EQ(agg.iterations, row.result.iterations_completed);
    EXPECT_EQ(agg.reboots, row.result.stats.reboots);
    EXPECT_EQ(agg.monitor_events, row.monitor_events);
    EXPECT_EQ(agg.violations, row.violations);
    const std::uint64_t sweep_energy_nj =
        static_cast<std::uint64_t>(std::llround(row.result.stats.TotalEnergy() * 1000.0));
    EXPECT_EQ(agg.energy_nj, sweep_energy_nj);
  }
}

// ------------------------------------------ batch vs scalar verdicts -----

// The batch VM is observe-only stepping of captured streams: stepping the
// same streams (events and path restarts) through per-device scalar
// compiled monitors, and arbitrating each event, counts exactly the
// monitor events and violations the batch-mode fleet reports.
TEST(FleetBatchParityTest, BatchVerdictsMatchScalarMonitorsOnCapturedStreams) {
  FleetSpec spec;
  spec.app = "health";
  spec.monitor = "batch";
  spec.devices = 8;
  spec.seed = 1;
  spec.charges = {0, 6 * kMinute - kSecond};  // continuous and 6 min charges
  spec.iterations = 1;
  StatusOr<FleetOutcome> batch = RunFleet(spec);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();

  FleetContext ctx;
  ctx.app = spec.app;
  StatusOr<std::string> spec_text = sweep::DefaultSpecForApp(spec.app);
  ASSERT_TRUE(spec_text.ok());
  StatusOr<SharedSpecArtifactPtr> artifact = BuildSpecArtifact(
      spec_text.value(), sweep::BuildAppGraphByName(spec.app), SpecArtifactStage::kCompiled);
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  ctx.artifact = artifact.value();

  std::uint64_t events = 0;
  std::uint64_t violations = 0;
  for (std::uint64_t i = 0; i < spec.devices; ++i) {
    std::vector<CapturedRecord> records;
    DeviceInstance instance(ctx, ConfigForDevice(spec, i));
    ASSERT_TRUE(instance.RunCapture(&records).ok) << "device " << i;
    std::vector<std::unique_ptr<CompiledMonitor>> monitors;
    for (const CompiledMachine& machine : ctx.artifact->compiled) {
      monitors.push_back(std::make_unique<CompiledMonitor>(
          std::shared_ptr<const CompiledMachine>(ctx.artifact, &machine)));
    }
    for (const CapturedRecord& record : records) {
      if (record.kind == CapturedRecord::Kind::kPathRestart) {
        for (const auto& monitor : monitors) {
          monitor->OnPathRestart(record.restart_path);
        }
        continue;
      }
      std::vector<MonitorVerdict> pending;
      for (const auto& monitor : monitors) {
        MonitorVerdict verdict;
        if (monitor->Step(record.event, &verdict)) {
          pending.push_back(verdict);
        }
      }
      ++events;
      violations += Arbitrate(pending, ArbitrationPolicy::kSeverity).violated() ? 1 : 0;
    }
  }
  EXPECT_GT(violations, 0u);
  EXPECT_EQ(batch.value().agg.monitor_events, events);
  EXPECT_EQ(batch.value().agg.violations, violations);
}

// ------------------------------------------------------- validation ------

TEST(FleetValidationTest, RejectsBadSpecs) {
  FleetSpec spec;
  spec.devices = 0;
  EXPECT_FALSE(RunFleet(spec).ok());
  spec = FleetSpec{};
  spec.monitor = "vectorized";
  EXPECT_FALSE(RunFleet(spec).ok());
  spec = FleetSpec{};
  spec.monitor = "batch";
  spec.backend = MonitorBackend::kInterpreted;
  EXPECT_FALSE(RunFleet(spec).ok());
  spec = FleetSpec{};
  spec.charges.clear();
  EXPECT_FALSE(RunFleet(spec).ok());
  spec = FleetSpec{};
  spec.tile = 0;
  EXPECT_FALSE(RunFleet(spec).ok());
  spec = FleetSpec{};
  spec.app = "unknown-app";
  EXPECT_FALSE(RunFleet(spec).ok());
}

// An explicit spec used to skip the app check: the fleet then simulated the
// health app under the unknown name. The template lookup refuses the name
// before any device runs, whether or not a spec is given.
TEST(FleetValidationTest, RefusesUnknownAppEvenWithExplicitSpec) {
  FleetSpec spec;
  spec.app = "foo";
  spec.spec_text = sweep::DefaultSpecForApp("health").value();
  spec.devices = 3;
  for (const std::string monitor : {"batch", "scalar"}) {
    spec.monitor = monitor;
    const StatusOr<FleetOutcome> outcome = RunFleet(spec);
    ASSERT_FALSE(outcome.ok()) << monitor;
    EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(outcome.status().message().find("'foo'"), std::string::npos)
        << outcome.status().ToString();
  }
}

TEST(FleetValidationTest, AnalyzerGateFailsFastOnInfeasibleDeployment) {
  FleetSpec spec;
  spec.app = "health";
  spec.spec_label = "infeasible";
  spec.spec_text = "accel: {\n  maxTries: 10 onFail: skipPath;\n}\n";
  // 9000 uJ cannot cover accel's ~18 001 uJ atomic attempt: ART009 refuses
  // the whole fleet before any device simulates.
  spec.budgets = {9'000.0};
  spec.devices = 4;
  spec.shards = 2;
  const StatusOr<FleetOutcome> gated = RunFleet(spec);
  ASSERT_FALSE(gated.ok());
  EXPECT_NE(gated.status().ToString().find("ART009"), std::string::npos);
  EXPECT_NE(gated.status().ToString().find("fleet"), std::string::npos);

  // The escape hatch runs the doomed fleet anyway (bounded by the horizon).
  spec.analyze = false;
  spec.devices = 1;
  spec.shards = 1;
  spec.iterations = 0;
  spec.horizon = 1 * kSecond;
  const StatusOr<FleetOutcome> forced = RunFleet(spec);
  ASSERT_TRUE(forced.ok()) << forced.status().ToString();
  EXPECT_EQ(forced.value().devices, 1u);
}

TEST(FleetValidationTest, BatchOutcomeReportsHandlerClasses) {
  FleetSpec spec = SmallFleet("batch", 1);
  spec.devices = 2;
  StatusOr<FleetOutcome> outcome = RunFleet(spec);
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome.value().handler_classes.size(), 5u);
  std::uint64_t fast = 0;
  for (std::size_t i = 0; i + 1 < outcome.value().handler_classes.size(); ++i) {
    fast += outcome.value().handler_classes[i];
  }
  // The speedup story rests on most dispatch entries summarizing into the
  // fast classes; the health spec must keep some there.
  EXPECT_GT(fast, 0u);
}

// ------------------------------------------------------------ elision --

// The rendered `aggregates` block of a fleet's JSON.
std::string AggregatesBlock(const FleetSpec& spec, const FleetOutcome& outcome) {
  const std::string json = RenderFleetJson(spec, outcome);
  const std::size_t begin = json.find("\"aggregates\"");
  EXPECT_NE(begin, std::string::npos);
  return json.substr(begin, json.find('}', begin) - begin);
}

// A machine skips a pass when none of the columns on its lane list is one
// it reacts to. collect_traffic turns the skip off, and must not change a
// result.
TEST(FleetElisionTest, MachinePassSkipNeverChangesAResult) {
  const std::vector<SimDuration> charge_sets[] = {{0}, {kMinute - kSecond, 6 * kMinute - kSecond}};
  for (const std::string app : {"health", "greenhouse", "ar"}) {
    for (const std::vector<SimDuration>& charges : charge_sets) {
      FleetSpec spec;
      spec.app = app;
      spec.devices = 24;
      spec.tile = 8;
      spec.charges = charges;
      const StatusOr<FleetOutcome> skipping = RunFleet(spec);
      ASSERT_TRUE(skipping.ok()) << app << ": " << skipping.status().ToString();
      spec.collect_traffic = true;
      const StatusOr<FleetOutcome> stepping = RunFleet(spec);
      ASSERT_TRUE(stepping.ok()) << app << ": " << stepping.status().ToString();
      EXPECT_EQ(AggregatesBlock(spec, stepping.value()), AggregatesBlock(spec, skipping.value()))
          << app << " charges=" << charges.size();
    }
  }
}

// A spec with no properties compiles to no machines, and a batch fleet
// over it proves nothing dead: no event is elided and no column is
// reported dead.
TEST(FleetElisionTest, NoMachinesSkipNothing) {
  FleetSpec spec;
  spec.spec_text = "accel: {\n}\n";
  spec.devices = 4;
  spec.charges = {0, kMinute - kSecond};
  const StatusOr<FleetOutcome> outcome = RunFleet(spec);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_GT(outcome.value().agg.monitor_events, 0u);
  EXPECT_EQ(outcome.value().agg.monitor_events_elided, 0u);
  EXPECT_EQ(outcome.value().agg.violations, 0u);
  EXPECT_EQ(outcome.value().dead_columns, 0u);
  EXPECT_EQ(outcome.value().total_columns, 4u);
}

// Only an absent spec text selects the app's default spec; an empty one is
// a spec with no properties.
TEST(FleetValidationTest, EmptySpecHasNoPropertiesAndAbsentSpecIsTheDefault) {
  FleetSpec spec;
  spec.devices = 4;
  spec.spec_text = "accel: {\n}\n";
  const StatusOr<FleetOutcome> none = RunFleet(spec);
  spec.spec_text = "";
  const StatusOr<FleetOutcome> empty = RunFleet(spec);
  spec.spec_text = std::nullopt;
  const StatusOr<FleetOutcome> fallback = RunFleet(spec);
  ASSERT_TRUE(none.ok() && empty.ok() && fallback.ok());
  EXPECT_EQ(AggregatesBlock(spec, empty.value()), AggregatesBlock(spec, none.value()));
  EXPECT_EQ(empty.value().agg.violations, 0u);
  EXPECT_GT(fallback.value().agg.violations, 0u);
}

// ------------------------------------------------------------ rendering --

// Every optional block of artemis-fleet/1 set by hand: the batch
// histogram, class and entry traffic, obs counts, and a first_error (no CLI
// input reaches it) whose quote, backslash and control bytes need escaping.
FleetSpec HandBuiltSpec() {
  FleetSpec spec;
  spec.spec_label = "tuned \"v2\"";
  spec.backend = MonitorBackend::kInterpreted;
  spec.devices = 3;
  spec.seed = 42;
  spec.iterations = 0;
  spec.horizon = 1 * kHour;
  spec.charges = {0, 1 * kMinute, 6 * kMinute};
  return spec;
}

FleetOutcome HandBuiltOutcome() {
  FleetOutcome outcome;
  FleetAggregates& a = outcome.agg;
  a.devices = 3;
  a.errors = 1;
  a.completed = 1;
  a.starved = 0;
  a.timed_out = 1;
  a.iterations = 5;
  a.reboots = 7;
  a.charging_us = 123456789;
  a.energy_nj = 9876543210;
  a.monitor_energy_nj = 12345;
  a.monitor_events = 300;
  a.monitor_events_elided = 7;
  a.violations = 11;
  a.devices_with_violations = 2;
  a.commits = 40;
  a.aborts = 3;
  a.skips = 1;
  for (const std::uint64_t sample : {10u, 200u, 3000u}) {
    a.energy_uj_hist.Record(sample);
  }
  a.violations_hist.Record(0);
  a.violations_hist.Record(11);
  a.attempts_hist.Record(4);
  a.has_obs = true;
  a.obs_counts[static_cast<std::size_t>(obs::Kind::kSimPowerFail)] = 7;
  a.obs_counts[static_cast<std::size_t>(obs::Kind::kMonitorReset)] = 2;
  a.obs_total = 9;
  a.obs_completed_paths = 4;
  a.obs_committed_bytes = 512;
  a.has_traffic = true;
  a.class_traffic = {1, 2, 3, 4, 5};
  a.first_error = "device 2: \"spec\" at C:\\x\n\tbad \x01";
  outcome.devices = 3;
  outcome.handler_classes = {4, 0, 1, 0, 2};
  outcome.dead_columns = 1;
  outcome.total_columns = 18;
  outcome.traffic = {{0, "NotStarted", -1, -1, "self_loop", 9},
                     {3, "Wait\"ing", 1, 2, "general", 4}};
  return outcome;
}

TEST(FleetRenderTest, EveryOptionalBlockRendersAsBefore) {
  EXPECT_EQ(RenderFleetJson(HandBuiltSpec(), HandBuiltOutcome()), R"json({
  "schema": "artemis-fleet/1",
  "app": "health",
  "spec": "tuned \"v2\"",
  "backend": "interpreted",
  "monitor_mode": "batch",
  "devices": 3,
  "seed": 42,
  "iterations": 0,
  "horizon_us": 3600000000,
  "charges_us": [0, 60000000, 360000000],
  "aggregates": {
    "devices": 3,
    "errors": 1,
    "completed": 1,
    "starved": 0,
    "timed_out": 1,
    "iterations": 5,
    "reboots": 7,
    "charging_us": 123456789,
    "energy_nj": 9876543210,
    "monitor_energy_nj": 12345,
    "monitor_share": 0.000001250,
    "monitor_events": 300,
    "monitor_events_elided": 7,
    "elision_rate": 0.023333333,
    "violations": 11,
    "violation_rate": 0.036666667,
    "devices_with_violations": 2,
    "commits": 40,
    "aborts": 3,
    "skips": 1
  },
  "energy_uj": "n=3 min=10 p50=15 p90=255 p99=255 max=3000",
  "violations_per_device": "n=2 min=0 p50=0 p90=0 p99=0 max=11",
  "attempts_per_commit": "n=1 min=4 p50=4 p90=4 p99=4 max=4",
  "batch": {
    "handler_classes": [4, 0, 1, 0, 2],
    "dead_columns": 1,
    "columns": 18
  },
  "class_traffic": {"self_loop": 1, "commit": 2, "store_field_commit": 3, "guard_elapsed_commit": 4, "general": 5},
  "traffic": [
    {"machine": 0, "state": "NotStarted", "kind": "any", "task": -1, "class": "self_loop", "events": 9},
    {"machine": 3, "state": "Wait\"ing", "kind": "end", "task": 2, "class": "general", "events": 4}
  ],
  "obs": {
    "total_events": 9,
    "completed_paths": 4,
    "committed_bytes": 512,
    "counts": {"sim.power-fail": 7, "monitor.path-reset": 2}
  },
  "first_error": "device 2: \"spec\" at C:\\x\n\tbad \u0001",
  "ok": false
}
)json");
}

// Empty traffic and counts render as [] and {}; the batch block and
// first_error drop out.
TEST(FleetRenderTest, EmptyContainersRenderBare) {
  FleetOutcome outcome = HandBuiltOutcome();
  outcome.traffic.clear();
  outcome.agg.obs_counts = {};
  outcome.agg.first_error.clear();
  outcome.handler_classes.clear();
  EXPECT_EQ(RenderFleetJson(HandBuiltSpec(), outcome), R"json({
  "schema": "artemis-fleet/1",
  "app": "health",
  "spec": "tuned \"v2\"",
  "backend": "interpreted",
  "monitor_mode": "batch",
  "devices": 3,
  "seed": 42,
  "iterations": 0,
  "horizon_us": 3600000000,
  "charges_us": [0, 60000000, 360000000],
  "aggregates": {
    "devices": 3,
    "errors": 1,
    "completed": 1,
    "starved": 0,
    "timed_out": 1,
    "iterations": 5,
    "reboots": 7,
    "charging_us": 123456789,
    "energy_nj": 9876543210,
    "monitor_energy_nj": 12345,
    "monitor_share": 0.000001250,
    "monitor_events": 300,
    "monitor_events_elided": 7,
    "elision_rate": 0.023333333,
    "violations": 11,
    "violation_rate": 0.036666667,
    "devices_with_violations": 2,
    "commits": 40,
    "aborts": 3,
    "skips": 1
  },
  "energy_uj": "n=3 min=10 p50=15 p90=255 p99=255 max=3000",
  "violations_per_device": "n=2 min=0 p50=0 p90=0 p99=0 max=11",
  "attempts_per_commit": "n=1 min=4 p50=4 p90=4 p99=4 max=4",
  "class_traffic": {"self_loop": 1, "commit": 2, "store_field_commit": 3, "guard_elapsed_commit": 4, "general": 5},
  "traffic": [],
  "obs": {
    "total_events": 9,
    "completed_paths": 4,
    "committed_bytes": 512,
    "counts": {}
  },
  "ok": false
}
)json");
}

}  // namespace
}  // namespace artemis::fleet
