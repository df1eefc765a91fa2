// Tests for the live monitor hot-swap subsystem (src/swap): versioned
// images, the migrate-block grammar, the state-migration planner and its
// ART015 diagnostics, the ART016 swap-window analysis, and an end-to-end
// kernel-driven swap on the health app.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/apps/health_app.h"
#include "src/core/runtime.h"
#include "src/monitor/builtin.h"
#include "src/monitor/compiled.h"
#include "src/monitor/interp.h"
#include "src/monitor/shared_spec.h"
#include "src/sim/mcu.h"
#include "src/sim/power_model.h"
#include "src/spec/parser.h"
#include "src/swap/hotswap.h"
#include "src/swap/image.h"
#include "src/swap/migration.h"

namespace artemis {
namespace {

// Minimal one-property specs over health-app tasks; both lower to a single
// maxTries machine (states NotStarted/Started, one kCounter slot `i`), so
// they pair only via an explicit machine rule.
constexpr char kSpecMic[] = "micSense: { maxTries: 10 onFail: skipPath; }\n";
constexpr char kSpecAccel[] = "accel: { maxTries: 10 onFail: skipPath; }\n";

MonitorImage MustImage(const std::string& spec, const AppGraph& graph, std::uint32_t epoch) {
  StatusOr<MonitorImage> image = BuildMonitorImage(spec, graph, epoch);
  EXPECT_TRUE(image.ok()) << image.status().ToString();
  return image.value();
}

int StateId(const CompiledMachine& machine, const std::string& name) {
  for (std::size_t i = 0; i < machine.state_names.size(); ++i) {
    if (machine.state_names[i] == name) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

std::size_t CountSeverity(const DiagnosticEngine& engine, DiagSeverity severity) {
  std::size_t n = 0;
  for (const Diagnostic& d : engine.diagnostics()) {
    if (d.severity == severity) {
      ++n;
    }
  }
  return n;
}

// ---------------------------------------------------------------- image --

TEST(SwapImageTest, SpecHashDistinguishesTexts) {
  EXPECT_EQ(SpecHash(HealthAppSpec()), SpecHash(HealthAppSpec()));
  EXPECT_NE(SpecHash(HealthAppSpec()), SpecHash(HealthAppSpec() + "\n"));
  EXPECT_NE(SpecHash(kSpecMic), SpecHash(kSpecAccel));
}

TEST(SwapImageTest, BuildMonitorImageCompilesAndStampsHeader) {
  HealthApp app = BuildHealthApp();
  const MonitorImage image = MustImage(HealthAppSpec(), app.graph, 3);
  EXPECT_EQ(image.header.epoch, 3u);
  EXPECT_EQ(image.header.spec_hash, SpecHash(HealthAppSpec()));
  ASSERT_NE(image.artifact, nullptr);
  EXPECT_EQ(image.artifact->stage, SpecArtifactStage::kCompiled);
  EXPECT_EQ(image.artifact->compiled.size(), 8u);  // Figure 5 lowers to 8 FSMs
}

TEST(SwapImageTest, BuildMonitorImageRejectsBrokenSpec) {
  HealthApp app = BuildHealthApp();
  EXPECT_FALSE(BuildMonitorImage("micSense: { maxTries: ;", app.graph, 1).ok());
}

// --------------------------------------------------------------- parser --

TEST(MigrateParserTest, ParsesAllThreeRuleKindsAndRoundTrips) {
  const std::string source = std::string(kSpecAccel) +
                             "migrate {\n"
                             "  machine maxTries_micSense -> maxTries_accel;\n"
                             "  state maxTries_accel: Started -> initial;\n"
                             "  slot maxTries_accel: i -> i;\n"
                             "}\n";
  StatusOr<SpecAst> spec = SpecParser::Parse(source);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  ASSERT_EQ(spec.value().migration.rules.size(), 3u);
  EXPECT_EQ(spec.value().migration.rules[0].kind, MigrationRuleAst::Kind::kMachine);
  EXPECT_EQ(spec.value().migration.rules[0].from, "maxTries_micSense");
  EXPECT_EQ(spec.value().migration.rules[0].to, "maxTries_accel");
  EXPECT_EQ(spec.value().migration.rules[1].kind, MigrationRuleAst::Kind::kState);
  EXPECT_EQ(spec.value().migration.rules[1].machine, "maxTries_accel");
  EXPECT_EQ(spec.value().migration.rules[2].kind, MigrationRuleAst::Kind::kSlot);

  // Pretty() must round-trip the block through a reparse.
  StatusOr<SpecAst> again = SpecParser::Parse(spec.value().Pretty());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again.value().migration.rules.size(), 3u);
  EXPECT_EQ(again.value().migration.rules[1].to, "initial");
}

TEST(MigrateParserTest, RejectsDuplicateBlockAndUnknownRule) {
  EXPECT_FALSE(
      SpecParser::Parse("migrate { machine a -> b; } migrate { machine c -> d; }").ok());
  EXPECT_FALSE(SpecParser::Parse("migrate { frobnicate a -> b; }").ok());
}

// -------------------------------------------------------------- planner --

TEST(MigrationPlanTest, IdenticalSpecsMigrateOneToOneWithNoFindings) {
  HealthApp app = BuildHealthApp();
  const MonitorImage v1 = MustImage(HealthAppSpec(), app.graph, 1);
  const MonitorImage v2 = MustImage(HealthAppSpec(), app.graph, 2);
  DiagnosticEngine engine;
  const MigrationPlan plan = PlanMigration(v1, v2, app.graph, &engine);
  EXPECT_EQ(engine.diagnostics().size(), 0u) << engine.RenderText("plan");
  ASSERT_EQ(plan.machines.size(), 8u);
  std::size_t slots = 0;
  for (std::size_t j = 0; j < plan.machines.size(); ++j) {
    EXPECT_EQ(plan.machines[j].old_index, static_cast<int>(j));
    // Name-identical machines carry every state and slot over unchanged.
    const CompiledMachine& m = v2.artifact->compiled[j];
    ASSERT_EQ(plan.machines[j].state_map.size(), m.state_names.size());
    for (std::size_t s = 0; s < m.state_names.size(); ++s) {
      EXPECT_EQ(plan.machines[j].state_map[s], s) << m.name;
    }
    for (std::size_t t = 0; t < plan.machines[j].slot_sources.size(); ++t) {
      EXPECT_EQ(plan.machines[j].slot_sources[t], static_cast<int>(t)) << m.name;
    }
    slots += m.initial_slots.size();
  }
  // 2 bytes of state id + 8 per slot per machine (docs/hotswap.md).
  EXPECT_EQ(plan.StagedBytes(), 2 * plan.machines.size() + 8 * slots);
  EXPECT_EQ(plan.StagedBytes(), 80u);  // pinned: the health image stages 80 bytes
}

TEST(MigrationPlanTest, UnpairedMachinesDropAndStartFreshWithWarnings) {
  HealthApp app = BuildHealthApp();
  const MonitorImage v1 = MustImage(kSpecMic, app.graph, 1);
  const MonitorImage v2 = MustImage(kSpecAccel, app.graph, 2);
  DiagnosticEngine engine;
  const MigrationPlan plan = PlanMigration(v1, v2, app.graph, &engine);
  ASSERT_EQ(plan.machines.size(), 1u);
  EXPECT_EQ(plan.machines[0].old_index, -1);  // fresh: no name match
  EXPECT_FALSE(engine.HasErrors()) << engine.RenderText("plan");
  // The old maxTries_micSense machine is dropped — a warning, not an error.
  EXPECT_GE(CountSeverity(engine, DiagSeverity::kWarning), 1u);
}

TEST(MigrationPlanTest, ExplicitMachineRuleCarriesARenamedMachine) {
  HealthApp app = BuildHealthApp();
  const MonitorImage v1 = MustImage(kSpecMic, app.graph, 1);
  const MonitorImage v2 = MustImage(
      std::string(kSpecAccel) + "migrate { machine maxTries_micSense -> maxTries_accel; }\n",
      app.graph, 2);
  DiagnosticEngine engine;
  const MigrationPlan plan = PlanMigration(v1, v2, app.graph, &engine);
  EXPECT_FALSE(engine.HasErrors()) << engine.RenderText("plan");
  ASSERT_EQ(plan.machines.size(), 1u);
  EXPECT_EQ(plan.machines[0].old_index, 0);
  // Same lowering on both sides: states and the counter slot map 1:1.
  const CompiledMachine& m = v2.artifact->compiled[0];
  const int started = StateId(m, "Started");
  ASSERT_GE(started, 0);
  EXPECT_EQ(plan.machines[0].state_map[started], started);
  ASSERT_EQ(plan.machines[0].slot_sources.size(), 1u);
  EXPECT_EQ(plan.machines[0].slot_sources[0], 0);
}

TEST(MigrationPlanTest, ExplicitStateRuleResetsToInitial) {
  HealthApp app = BuildHealthApp();
  const MonitorImage v1 = MustImage(kSpecAccel, app.graph, 1);
  const MonitorImage v2 = MustImage(
      std::string(kSpecAccel) + "migrate { state maxTries_accel: Started -> initial; }\n",
      app.graph, 2);
  DiagnosticEngine engine;
  const MigrationPlan plan = PlanMigration(v1, v2, app.graph, &engine);
  EXPECT_EQ(engine.diagnostics().size(), 0u) << engine.RenderText("plan");
  const CompiledMachine& m = v2.artifact->compiled[0];
  const int started = StateId(m, "Started");
  ASSERT_GE(started, 0);
  EXPECT_EQ(plan.machines[0].state_map[started], m.initial);
}

TEST(MigrationPlanTest, ExplicitCrossTypeSlotCarryIsAnError) {
  HealthApp app = BuildHealthApp();
  const MonitorImage v1 = MustImage(HealthAppSpec(), app.graph, 1);
  // MITD_send_accel has endB (kTime, 8 bytes) and att (kCounter, 4 bytes):
  // carrying a time value into a counter slot narrows it on device.
  const MonitorImage v2 = MustImage(
      HealthAppSpec() + "\nmigrate { slot MITD_send_accel: endB -> att; }\n", app.graph, 2);
  DiagnosticEngine engine;
  PlanMigration(v1, v2, app.graph, &engine);
  EXPECT_TRUE(engine.HasErrors()) << engine.RenderText("plan");
  bool saw_type_error = false;
  for (const Diagnostic& d : engine.diagnostics()) {
    if (d.severity == DiagSeverity::kError && d.code == diag::kMigrationMismatch) {
      saw_type_error = true;
    }
  }
  EXPECT_TRUE(saw_type_error);
}

TEST(MigrationPlanTest, RuleNamesThatResolveToNothingAreErrors) {
  HealthApp app = BuildHealthApp();
  const MonitorImage v1 = MustImage(kSpecAccel, app.graph, 1);
  const MonitorImage v2 = MustImage(std::string(kSpecAccel) +
                                        "migrate {\n"
                                        "  machine bogus -> maxTries_accel;\n"
                                        "  state maxTries_accel: Nowhere -> Started;\n"
                                        "  slot maxTries_accel: zz -> i;\n"
                                        "}\n",
                                    app.graph, 2);
  DiagnosticEngine engine;
  PlanMigration(v1, v2, app.graph, &engine);
  EXPECT_EQ(CountSeverity(engine, DiagSeverity::kError), 3u) << engine.RenderText("plan");
}

TEST(MigrationPlanTest, DuplicateRulesForOneSourceAreErrors) {
  HealthApp app = BuildHealthApp();
  const MonitorImage v1 = MustImage(kSpecAccel, app.graph, 1);
  const MonitorImage v2 = MustImage(std::string(kSpecAccel) +
                                        "migrate {\n"
                                        "  state maxTries_accel: Started -> Started;\n"
                                        "  state maxTries_accel: Started -> initial;\n"
                                        "}\n",
                                    app.graph, 2);
  DiagnosticEngine engine;
  PlanMigration(v1, v2, app.graph, &engine);
  EXPECT_TRUE(engine.HasErrors()) << engine.RenderText("plan");
}

// ------------------------------------------------------------- analysis --

TEST(AnalyzeSwapTest, StaleEpochIsAnError) {
  HealthApp app = BuildHealthApp();
  const MonitorImage v1 = MustImage(HealthAppSpec(), app.graph, 2);
  const MonitorImage v2 = MustImage(HealthAppSpec(), app.graph, 2);
  const DiagnosticEngine engine = AnalyzeSwap(v1, v2, app.graph);
  EXPECT_TRUE(engine.HasErrors());
  EXPECT_EQ(engine.diagnostics()[0].code, diag::kMigrationMismatch);
}

TEST(AnalyzeSwapTest, WindowInfeasibilityScalesWithBudgets) {
  HealthApp app = BuildHealthApp();
  const MonitorImage v1 = MustImage(HealthAppSpec(), app.graph, 1);
  const MonitorImage v2 = MustImage(HealthAppSpec(), app.graph, 2);

  AnalysisOptions options;
  const DiagnosticEngine feasible = AnalyzeSwap(v1, v2, app.graph, options);
  EXPECT_FALSE(feasible.HasErrors()) << feasible.RenderText("swap");

  options.budgets = {1.0};  // 1 uJ cannot even cover the boot restore
  const DiagnosticEngine dead = AnalyzeSwap(v1, v2, app.graph, options);
  EXPECT_TRUE(dead.HasErrors());
  bool saw_016_error = false;
  for (const Diagnostic& d : dead.diagnostics()) {
    saw_016_error |= d.code == diag::kSwapWindowInfeasible && d.severity == DiagSeverity::kError;
  }
  EXPECT_TRUE(saw_016_error) << dead.RenderText("swap");

  options.budgets = {1.0, 19'500.0};  // feasible under the larger budget
  const DiagnosticEngine partial = AnalyzeSwap(v1, v2, app.graph, options);
  EXPECT_FALSE(partial.HasErrors()) << partial.RenderText("swap");
  bool saw_016_warning = false;
  for (const Diagnostic& d : partial.diagnostics()) {
    saw_016_warning |=
        d.code == diag::kSwapWindowInfeasible && d.severity == DiagSeverity::kWarning;
  }
  EXPECT_TRUE(saw_016_warning) << partial.RenderText("swap");
}

// ----------------------------------------------------------- controller --

TEST(HotSwapControllerTest, RefusesStaleEpochsAndBrokenPlans) {
  HealthApp app = BuildHealthApp();
  MonitorImage v1 = MustImage(HealthAppSpec(), app.graph, 2);
  StatusOr<std::unique_ptr<MonitorSet>> set = BuildMonitorSetFromArtifact(
      v1.artifact, app.graph, MonitorBackend::kCompiled);
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  HotSwapController swap(set.value().get(), v1, &app.graph);

  // Same epoch: refused, nothing queued.
  EXPECT_FALSE(swap.RequestSwap(MustImage(HealthAppSpec(), app.graph, 2)).ok());
  EXPECT_FALSE(swap.pending());

  // ART015 error in the plan: refused, old image untouched.
  const MonitorImage bad = MustImage(
      HealthAppSpec() + "\nmigrate { slot MITD_send_accel: endB -> att; }\n", app.graph, 3);
  EXPECT_FALSE(swap.RequestSwap(bad).ok());
  EXPECT_FALSE(swap.pending());
  EXPECT_EQ(swap.installed().epoch, 2u);

  // A clean plan queues.
  EXPECT_TRUE(swap.RequestSwap(MustImage(HealthAppSpec() + "\n", app.graph, 3)).ok());
  EXPECT_TRUE(swap.pending());
}

TEST(HotSwapControllerTest, KernelDrivenSwapOnTheHealthApp) {
  HealthApp app = BuildHealthApp();
  auto mcu = std::make_unique<Mcu>(
      std::make_unique<FixedChargePowerModel>(19'500.0, 6 * kMinute - 1 * kSecond));

  MonitorImage v1 = MustImage(HealthAppSpec(), app.graph, 1);
  const std::string v2_text = HealthAppSpec() + "\n// image v2\n";
  MonitorImage v2 = MustImage(v2_text, app.graph, 2);

  ArtemisConfig config;
  config.backend = MonitorBackend::kCompiled;
  config.kernel.max_wall_time = 12 * kHour;
  StatusOr<std::unique_ptr<ArtemisRuntime>> runtime =
      ArtemisRuntime::CreateFromArtifact(&app.graph, v1.artifact, mcu.get(), config);
  ASSERT_TRUE(runtime.ok()) << runtime.status().ToString();

  HotSwapController swap(&runtime.value()->monitors(), v1, &app.graph);
  ASSERT_TRUE(swap.RequestSwap(v2, /*not_before=*/2 * kMinute).ok());
  runtime.value()->kernel().set_swap_hook(&swap);

  const KernelRunResult result = runtime.value()->Run();
  EXPECT_TRUE(result.completed);
  EXPECT_GT(mcu->stats().reboots, 0u);  // the charge schedule forces outages
  EXPECT_EQ(swap.stats().swaps_applied, 1u);
  EXPECT_FALSE(swap.pending());
  EXPECT_EQ(swap.installed().epoch, 2u);
  EXPECT_EQ(swap.installed().spec_hash, SpecHash(v2_text));
  EXPECT_EQ(swap.stats().bytes_staged % 80, 0u);  // whole attempts only
}

// A verdict's property views a label the monitor (or its artifact) owns.
// A pre-swap event re-delivered after ReplaceMonitors replays the cached
// verdict, whose label lives in the replaced monitors: the set must keep
// them alive until the cache moves on. Only the monitors hold each image's
// artifact here, so a freed label is a use-after-free under ASan.
TEST(HotSwapControllerTest, PreSwapEventRedeliveredAfterReplaceReplaysItsLabel) {
  HealthApp app = BuildHealthApp();
  for (const MonitorBackend backend :
       {MonitorBackend::kBuiltin, MonitorBackend::kInterpreted, MonitorBackend::kCompiled}) {
    const std::string where = MonitorBackendName(backend);
    std::unique_ptr<MonitorSet> set;
    {
      SharedSpecArtifactPtr old_image =
          BuildSpecArtifact(kSpecMic, app.graph, StageForBackend(backend)).value();
      set = BuildMonitorSetFromArtifact(old_image, app.graph, backend).value();
    }
    Mcu mcu(std::make_unique<AlwaysOnPowerModel>(), DefaultCostModel());
    set->HardReset(mcu);
    MonitorEvent event;
    event.kind = EventKind::kStartTask;
    // No old machine reacts to an accel start; after the swap one does, so
    // the set must not keep reacting-machine lists across ReplaceMonitors.
    event.task = app.accel;
    event.path = app.path_resp;
    event.seq = 1;
    (void)set->OnEvent(event, mcu);
    event.task = app.mic_sense;
    event.path = app.path_cough;
    CheckOutcome outcome;
    for (event.seq = 2; event.seq <= 12; ++event.seq) {
      event.timestamp = event.seq * kSecond;
      outcome = set->OnEvent(event, mcu);  // maxTries: 10 fires on the 11th start
    }
    --event.seq;
    ASSERT_TRUE(outcome.verdict.violated()) << where;
    const std::string label(outcome.verdict.property);

    {
      SharedSpecArtifactPtr new_image =
          BuildSpecArtifact(kSpecAccel, app.graph, StageForBackend(backend)).value();
      std::vector<std::unique_ptr<Monitor>> replacement;
      if (backend == MonitorBackend::kCompiled) {
        replacement.push_back(std::make_unique<CompiledMonitor>(
            std::shared_ptr<const CompiledMachine>(new_image, &new_image->compiled[0])));
      } else if (backend == MonitorBackend::kInterpreted) {
        replacement.push_back(std::make_unique<InterpretedMonitor>(
            std::shared_ptr<const StateMachine>(new_image, &new_image->machines[0])));
      } else {
        replacement.push_back(MakeBuiltinMonitor(new_image->ast.blocks[0].properties[0],
                                                 new_image->ast.blocks[0].task, app.graph)
                                  .value());
      }
      ASSERT_TRUE(set->quiescent());
      set->ReplaceMonitors(std::move(replacement));
    }

    // The boundary retry of the pre-swap event: no monitor steps, the
    // cached verdict comes back with the old image's label.
    const CheckOutcome replayed = set->OnEvent(event, mcu);
    EXPECT_EQ(replayed.verdict.action, outcome.verdict.action) << where;
    EXPECT_EQ(std::string(replayed.verdict.property), label) << where;
    EXPECT_NE(label.find("micSense"), std::string::npos) << where << ": " << label;

    // The next event moves the cache on; its verdicts come from the new
    // image.
    event.task = app.accel;
    event.path = app.path_resp;
    for (++event.seq; event.seq <= 23; ++event.seq) {
      event.timestamp = event.seq * kSecond;
      outcome = set->OnEvent(event, mcu);
    }
    ASSERT_TRUE(outcome.verdict.violated()) << where;
    EXPECT_NE(std::string(outcome.verdict.property).find("accel"), std::string::npos) << where;
  }
}

}  // namespace
}  // namespace artemis
