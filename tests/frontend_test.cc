// Tests for the Section 7 extension modules: the Mayfly-style alternative
// frontend and the monitor placement options.
#include <gtest/gtest.h>

#include "src/apps/health_app.h"
#include "src/core/runtime.h"
#include "src/ir/lowering.h"
#include "src/monitor/shared_spec.h"
#include "src/sim/mcu.h"
#include "src/sim/power_model.h"
#include "src/spec/mayfly_frontend.h"
#include "src/spec/validator.h"

namespace artemis {
namespace {

// ------------------------------------------------------ Mayfly frontend --

TEST(MayflyFrontendTest, TranslatesExpiresToMitd) {
  auto spec = MayflyFrontend::Parse("expires(accel -> send, 5min) path 2;");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  ASSERT_EQ(spec.value().blocks.size(), 1u);
  EXPECT_EQ(spec.value().blocks[0].task, "send");
  const PropertyAst& p = spec.value().blocks[0].properties[0];
  EXPECT_EQ(p.kind, PropertyKind::kMitd);
  EXPECT_EQ(p.dp_task, "accel");
  EXPECT_EQ(p.duration, 5 * kMinute);
  EXPECT_EQ(p.path, 2u);
  EXPECT_EQ(p.on_fail, ActionType::kRestartPath);  // Mayfly's fixed reaction.
}

TEST(MayflyFrontendTest, TranslatesCollect) {
  auto spec = MayflyFrontend::Parse("collect(bodyTemp -> calcAvg, 10);");
  ASSERT_TRUE(spec.ok());
  const PropertyAst& p = spec.value().blocks[0].properties[0];
  EXPECT_EQ(p.kind, PropertyKind::kCollect);
  EXPECT_EQ(p.count, 10u);
  EXPECT_EQ(p.dp_task, "bodyTemp");
}

TEST(MayflyFrontendTest, GroupsPropertiesByConsumer) {
  auto spec = MayflyFrontend::Parse(
      "expires(accel -> send, 5min) path 2;\n"
      "collect(micSense -> send, 1) path 3;\n"
      "collect(bodyTemp -> calcAvg, 10);\n");
  ASSERT_TRUE(spec.ok());
  ASSERT_EQ(spec.value().blocks.size(), 2u);
  EXPECT_EQ(spec.value().blocks[0].task, "send");
  EXPECT_EQ(spec.value().blocks[0].properties.size(), 2u);
  EXPECT_EQ(spec.value().blocks[1].task, "calcAvg");
}

TEST(MayflyFrontendTest, OutputValidatesAndLowersLikeNativeSpecs) {
  HealthApp app = BuildHealthApp();
  auto spec = MayflyFrontend::Parse(
      "expires(accel -> send, 5min) path 2;\n"
      "collect(bodyTemp -> calcAvg, 10);\n");
  ASSERT_TRUE(spec.ok());
  const ValidationResult validation = SpecValidator::Validate(spec.value(), app.graph);
  EXPECT_TRUE(validation.ok()) << validation.status.ToString();
  auto machines = LowerSpec(spec.value(), app.graph, {});
  ASSERT_TRUE(machines.ok());
  EXPECT_EQ(machines.value().size(), 2u);
}

TEST(MayflyFrontendTest, RunsEndToEndThroughArtemisRuntime) {
  HealthApp app = BuildHealthApp();
  auto spec = MayflyFrontend::Parse("collect(bodyTemp -> calcAvg, 10);");
  ASSERT_TRUE(spec.ok());
  auto artifact =
      BuildSpecArtifactFromAst(spec.value(), app.graph, StageForBackend(MonitorBackend::kBuiltin));
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  auto mcu = std::make_unique<Mcu>(std::make_unique<AlwaysOnPowerModel>());
  auto runtime = ArtemisRuntime::CreateFromArtifact(&app.graph, artifact.value(), mcu.get(), {});
  ASSERT_TRUE(runtime.ok()) << runtime.status().ToString();
  EXPECT_TRUE(runtime.value()->Run().completed);
  EXPECT_EQ(runtime.value()->kernel().channels().CompletionCount(app.body_temp), 10u);
}

struct BadMayfly {
  const char* source;
};

class MayflyFrontendRejectTest : public ::testing::TestWithParam<BadMayfly> {};

TEST_P(MayflyFrontendRejectTest, Rejects) {
  EXPECT_FALSE(MayflyFrontend::Parse(GetParam().source).ok());
}

INSTANTIATE_TEST_SUITE_P(Syntax, MayflyFrontendRejectTest,
                         ::testing::Values(BadMayfly{"explode(a -> b, 1);"},
                                           BadMayfly{"expires(a b, 1min);"},
                                           BadMayfly{"expires(a -> b 1min);"},
                                           BadMayfly{"expires(a -> b, 1min)"},
                                           BadMayfly{"collect(a -> b, fast);"},
                                           BadMayfly{"expires(a -> b, 1min) path;"}));

// ------------------------------------------------------ monitor placement --

KernelRunResult RunWithPlacement(MonitorPlacement placement, McuStats* stats_out) {
  HealthApp app = BuildHealthApp();
  auto mcu = std::make_unique<Mcu>(std::make_unique<AlwaysOnPowerModel>());
  ArtemisConfig config;
  config.placement = placement;
  auto runtime = ArtemisRuntime::Create(&app.graph, HealthAppSpec(), mcu.get(), config);
  EXPECT_TRUE(runtime.ok());
  KernelRunResult result = runtime.value()->Run();
  *stats_out = result.stats;
  return result;
}

TEST(PlacementTest, AllPlacementsCompleteIdentically) {
  McuStats separate, inlined, remote;
  EXPECT_TRUE(RunWithPlacement(MonitorPlacement::kSeparate, &separate).completed);
  EXPECT_TRUE(RunWithPlacement(MonitorPlacement::kInlined, &inlined).completed);
  EXPECT_TRUE(RunWithPlacement(MonitorPlacement::kRemote, &remote).completed);
  // Same app behaviour regardless of placement.
  EXPECT_EQ(separate.busy_time[static_cast<int>(CostTag::kApp)],
            inlined.busy_time[static_cast<int>(CostTag::kApp)]);
  EXPECT_EQ(separate.busy_time[static_cast<int>(CostTag::kApp)],
            remote.busy_time[static_cast<int>(CostTag::kApp)]);
}

TEST(PlacementTest, InlinedFoldsMonitorTimeIntoRuntime) {
  McuStats separate, inlined;
  RunWithPlacement(MonitorPlacement::kSeparate, &separate);
  RunWithPlacement(MonitorPlacement::kInlined, &inlined);
  EXPECT_EQ(inlined.busy_time[static_cast<int>(CostTag::kMonitor)], 0u);
  EXPECT_GT(inlined.busy_time[static_cast<int>(CostTag::kRuntime)],
            separate.busy_time[static_cast<int>(CostTag::kRuntime)]);
  // The total overhead shrinks (no interface crossing).
  EXPECT_LT(inlined.busy_time[static_cast<int>(CostTag::kRuntime)],
            separate.busy_time[static_cast<int>(CostTag::kRuntime)] +
                separate.busy_time[static_cast<int>(CostTag::kMonitor)]);
}

TEST(PlacementTest, RemoteRadioDominatesEnergy) {
  McuStats separate, remote;
  RunWithPlacement(MonitorPlacement::kSeparate, &separate);
  RunWithPlacement(MonitorPlacement::kRemote, &remote);
  const int monitor = static_cast<int>(CostTag::kMonitor);
  EXPECT_GT(remote.energy[monitor], 10.0 * separate.energy[monitor]);
}

TEST(PlacementTest, InlinedTextMultipliesWithSites) {
  const std::size_t base = 5000;
  EXPECT_EQ(MonitorSet::InlinedTextBytes(base, 1), base);
  EXPECT_GT(MonitorSet::InlinedTextBytes(base, 16), 10 * base);
  EXPECT_STREQ(MonitorPlacementName(MonitorPlacement::kSeparate), "separate");
  EXPECT_STREQ(MonitorPlacementName(MonitorPlacement::kInlined), "inlined");
  EXPECT_STREQ(MonitorPlacementName(MonitorPlacement::kRemote), "remote");
}

}  // namespace
}  // namespace artemis
