// Shared-template oracle. Every device of an app runs from one immutable
// template graph (sweep::AppTemplate), the way every device carries the same
// firmware .text. That is sound only if a device run on the shared template
// is the same computation as one on a graph of its own: this test runs each
// (app, monitor system, charge) device both ways and compares everything the
// device leaves behind, bit for bit — first in sequence, then with four
// devices on the same template at once (the case ThreadSanitizer must see).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/base/thread_pool.h"
#include "src/core/device.h"
#include "src/fleet/instance.h"
#include "src/sim/cost_model.h"
#include "src/spec/app_lang.h"
#include "src/sweep/sweep.h"

namespace artemis {
namespace {

std::string ReadSource(const std::string& relative) {
  std::ifstream in(std::filesystem::path(ARTEMIS_SOURCE_DIR) / relative);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

struct AppCase {
  std::string name;
  std::string spec_text;
  EnergyUj budget = 19'500.0;
  std::shared_ptr<const AppGraph> shared;  // the one template every device reads
  std::function<AppGraph()> fresh;         // a private graph per device
};

std::vector<AppCase> Apps() {
  std::vector<AppCase> apps;
  for (const std::string name : {"health", "greenhouse", "ar"}) {
    AppCase app;
    app.name = name;
    app.spec_text = sweep::DefaultSpecForApp(name).value();
    app.shared = sweep::AppTemplate(name).value();
    app.fresh = [name] { return sweep::BuildAppGraphByName(name); };
    apps.push_back(std::move(app));
  }
  // A text-defined app, wrapped once the way `artemisc --app-file` does.
  const std::string source = ReadSource("examples/specs/sensornet.app");
  AppCase sensornet;
  sensornet.name = "sensornet";
  sensornet.spec_text = ReadSource("examples/specs/sensornet.prop");
  sensornet.budget = 5'000.0;
  sensornet.shared =
      std::make_shared<const AppGraph>(ParseAppDescription(source).value().graph);
  sensornet.fresh = [source] { return ParseAppDescription(source).value().graph; };
  apps.push_back(std::move(sensornet));
  return apps;
}

enum class Kind { kBuiltin, kInterpreted, kCompiled, kMayfly, kCapture };

struct DeviceCase {
  const AppCase* app = nullptr;
  Kind kind = Kind::kBuiltin;
  SimDuration charge = 0;
  std::string label;
};

std::vector<DeviceCase> Cases(const std::vector<AppCase>& apps) {
  const std::vector<std::pair<Kind, std::string>> kinds = {
      {Kind::kBuiltin, "builtin"}, {Kind::kInterpreted, "interpreted"},
      {Kind::kCompiled, "compiled"}, {Kind::kMayfly, "mayfly"}, {Kind::kCapture, "capture"}};
  std::vector<DeviceCase> cases;
  for (const AppCase& app : apps) {
    for (const auto& [kind, kind_name] : kinds) {
      for (const std::string charge : {"continuous", "1min", "6min"}) {
        cases.push_back(DeviceCase{&app, kind, sweep::ParseChargeSchedule(charge).value(),
                                   app.name + "/" + kind_name + "/" + charge});
      }
    }
  }
  return cases;
}

// Everything a finished device leaves behind.
struct Snapshot {
  std::string status;
  KernelRunResult run;
  std::vector<TaskProfile> profiles;
  std::vector<std::vector<double>> samples;  // committed channel samples per task
  std::vector<std::uint64_t> completions;
  std::uint64_t monitor_events = 0;
  std::uint64_t violations = 0;
  flight::RingImage ring;
  std::vector<fleet::CapturedRecord> captured;
};

Snapshot RunDevice(const DeviceCase& c, std::shared_ptr<const AppGraph> graph) {
  Snapshot out;
  const AppGraph& g = *graph;
  const SpecArtifactStage stage = c.kind == Kind::kInterpreted ? SpecArtifactStage::kLowered
                                  : c.kind == Kind::kCompiled || c.kind == Kind::kCapture
                                      ? SpecArtifactStage::kCompiled
                                      : SpecArtifactStage::kAst;
  StatusOr<SharedSpecArtifactPtr> artifact = BuildSpecArtifact(c.app->spec_text, g, stage);
  if (!artifact.ok()) {
    out.status = artifact.status().ToString();
    return out;
  }
  std::unique_ptr<fleet::CaptureChecker> capture;
  DeviceRecipe recipe;
  recipe.graph = std::move(graph);
  recipe.charge = c.charge;
  recipe.budget = c.app->budget;
  recipe.flight = flight::FlightLevel::kFull;
  recipe.kernel.seed = 7;
  recipe.kernel.app_iterations = 2;
  recipe.kernel.max_wall_time = 4 * kHour;
  switch (c.kind) {
    case Kind::kBuiltin:
    case Kind::kInterpreted:
    case Kind::kCompiled:
      recipe.artifact = artifact.value();
      recipe.backend = c.kind == Kind::kBuiltin       ? MonitorBackend::kBuiltin
                       : c.kind == Kind::kInterpreted ? MonitorBackend::kInterpreted
                                                      : MonitorBackend::kCompiled;
      break;
    case Kind::kMayfly:
      recipe.system = MonitorSystem::kMayfly;
      recipe.artifact = artifact.value();
      break;
    case Kind::kCapture:
      capture = std::make_unique<fleet::CaptureChecker>(
          std::vector<double>(artifact.value()->compiled.size(),
                              static_cast<double>(DefaultCostModel().compiled_step_cycles)),
          256);
      recipe.system = MonitorSystem::kExternal;
      recipe.checker = capture.get();
      break;
  }
  DeviceRun device(std::move(recipe));
  out.status = device.status().ToString();
  if (!device.status().ok()) {
    return out;
  }
  out.run = device.Run();
  out.profiles = device.kernel().profiles();
  for (TaskId t = 0; t < g.task_count(); ++t) {
    out.samples.push_back(device.kernel().channels().Samples(t));
    out.completions.push_back(device.kernel().channels().CompletionCount(t));
  }
  if (device.artemis() != nullptr) {
    out.monitor_events = device.artemis()->monitors().events_processed();
    out.violations = device.artemis()->monitors().violations_reported();
  }
  out.ring = device.flight()->Image();
  if (capture != nullptr) {
    out.captured = capture->TakeRecords();
  }
  return out;
}

std::uint64_t Bits(double value) { return std::bit_cast<std::uint64_t>(value); }

// Non-fatal comparison, so a thread's snapshot can be checked after the join.
void ExpectSame(const Snapshot& want, const Snapshot& got, const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(want.status, "OK");
  ASSERT_EQ(got.status, "OK");
  EXPECT_EQ(want.run.completed, got.run.completed);
  EXPECT_EQ(want.run.starved, got.run.starved);
  EXPECT_EQ(want.run.timed_out, got.run.timed_out);
  EXPECT_EQ(want.run.finished_at, got.run.finished_at);
  EXPECT_EQ(want.run.iterations_completed, got.run.iterations_completed);
  EXPECT_EQ(want.run.stats.reboots, got.run.stats.reboots);
  EXPECT_EQ(want.run.stats.charging_time, got.run.stats.charging_time);
  for (int tag = 0; tag < kNumCostTags; ++tag) {
    EXPECT_EQ(want.run.stats.busy_time[tag], got.run.stats.busy_time[tag]) << "tag " << tag;
    EXPECT_EQ(Bits(want.run.stats.energy[tag]), Bits(got.run.stats.energy[tag]))
        << "tag " << tag;
  }
  ASSERT_EQ(want.profiles.size(), got.profiles.size());
  for (std::size_t t = 0; t < want.profiles.size(); ++t) {
    EXPECT_EQ(want.profiles[t].commits, got.profiles[t].commits) << "task " << t;
    EXPECT_EQ(want.profiles[t].aborts, got.profiles[t].aborts) << "task " << t;
    EXPECT_EQ(want.profiles[t].skips, got.profiles[t].skips) << "task " << t;
    EXPECT_EQ(want.profiles[t].busy_time, got.profiles[t].busy_time) << "task " << t;
    EXPECT_EQ(Bits(want.profiles[t].energy), Bits(got.profiles[t].energy)) << "task " << t;
  }
  ASSERT_EQ(want.samples.size(), got.samples.size());
  for (std::size_t t = 0; t < want.samples.size(); ++t) {
    ASSERT_EQ(want.samples[t].size(), got.samples[t].size()) << "task " << t;
    for (std::size_t i = 0; i < want.samples[t].size(); ++i) {
      EXPECT_EQ(Bits(want.samples[t][i]), Bits(got.samples[t][i])) << "task " << t;
    }
  }
  EXPECT_EQ(want.completions, got.completions);
  EXPECT_EQ(want.monitor_events, got.monitor_events);
  EXPECT_EQ(want.violations, got.violations);
  EXPECT_EQ(want.ring.bytes, got.ring.bytes);
  EXPECT_EQ(want.ring.head, got.ring.head);
  EXPECT_EQ(want.ring.head_base_time, got.ring.head_base_time);
  ASSERT_EQ(want.captured.size(), got.captured.size());
  for (std::size_t i = 0; i < want.captured.size(); ++i) {
    const fleet::CapturedRecord& a = want.captured[i];
    const fleet::CapturedRecord& b = got.captured[i];
    EXPECT_EQ(a.kind, b.kind) << "record " << i;
    EXPECT_EQ(a.restart_path, b.restart_path) << "record " << i;
    EXPECT_EQ(a.event.kind, b.event.kind) << "record " << i;
    EXPECT_EQ(a.event.timestamp, b.event.timestamp) << "record " << i;
    EXPECT_EQ(a.event.task, b.event.task) << "record " << i;
    EXPECT_EQ(a.event.path, b.event.path) << "record " << i;
    EXPECT_EQ(a.event.seq, b.event.seq) << "record " << i;
    EXPECT_EQ(a.event.has_dep_data, b.event.has_dep_data) << "record " << i;
    EXPECT_EQ(Bits(a.event.dep_data), Bits(b.event.dep_data)) << "record " << i;
    EXPECT_EQ(Bits(a.event.energy_fraction), Bits(b.event.energy_fraction)) << "record " << i;
  }
}

// The reference: every device on a graph of its own.
std::vector<Snapshot> FreshReference(const std::vector<DeviceCase>& cases) {
  std::vector<Snapshot> reference;
  for (const DeviceCase& c : cases) {
    reference.push_back(RunDevice(c, std::make_shared<const AppGraph>(c.app->fresh())));
  }
  return reference;
}

TEST(AppTemplateTest, EachAppHasOneValidatedTemplate) {
  for (const std::string app : {"health", "greenhouse", "ar"}) {
    StatusOr<std::shared_ptr<const AppGraph>> first = sweep::AppTemplate(app);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    EXPECT_TRUE(first.value()->Validate().ok());
    EXPECT_EQ(first.value(), sweep::AppTemplate(app).value()) << app;
  }
  const StatusOr<std::shared_ptr<const AppGraph>> unknown = sweep::AppTemplate("foo");
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.status().message().find("'foo'"), std::string::npos);
}

TEST(AppTemplateTest, DeviceWithoutGraphIsRefused) {
  DeviceRun device(DeviceRecipe{});
  EXPECT_FALSE(device.status().ok());
}

TEST(AppTemplateTest, SharedTemplateDevicesMatchFreshGraphsInSequence) {
  const std::vector<AppCase> apps = Apps();
  const std::vector<DeviceCase> cases = Cases(apps);
  const std::vector<Snapshot> reference = FreshReference(cases);
  std::uint64_t reboots = 0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    ExpectSame(reference[i], RunDevice(cases[i], cases[i].app->shared), cases[i].label);
    reboots += reference[i].run.stats.reboots;
  }
  EXPECT_GT(reboots, 0u);  // the outage paths ran
}

TEST(AppTemplateTest, SharedTemplateDevicesMatchFreshGraphsFromFourThreads) {
  const std::vector<AppCase> apps = Apps();
  const std::vector<DeviceCase> cases = Cases(apps);
  const std::vector<Snapshot> reference = FreshReference(cases);
  // Every thread runs every case, so four devices read each template at
  // once.
  constexpr int kThreads = 4;
  std::vector<std::vector<Snapshot>> got(kThreads);
  RunWorkers(kThreads, [&](int worker) {
    for (const DeviceCase& c : cases) {
      got[static_cast<std::size_t>(worker)].push_back(RunDevice(c, c.app->shared));
    }
  });
  for (int worker = 0; worker < kThreads; ++worker) {
    for (std::size_t i = 0; i < cases.size(); ++i) {
      ExpectSame(reference[i], got[static_cast<std::size_t>(worker)][i],
                 cases[i].label + " (thread " + std::to_string(worker) + ")");
    }
  }
}

}  // namespace
}  // namespace artemis
