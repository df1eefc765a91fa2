// Tests for the application description language: parsing, graph
// construction, synthetic effects, and end-to-end execution.
#include <gtest/gtest.h>

#include <string>

#include "src/core/runtime.h"
#include "src/sim/mcu.h"
#include "src/sim/power_model.h"
#include "src/spec/app_lang.h"

namespace artemis {
namespace {

constexpr char kSensorApp[] = R"(
app sensornet {
  task sense { duration: 30ms; power: 2mW; value: gaussian(21.0, 0.5); monitors: temp; }
  task pack  { duration: 10ms; power: 660uW; }
  task radio { duration: 120ms; power: 24mW; }
  path 1: sense -> pack -> radio;
  path 2: radio;
}
)";

TEST(AppLangTest, ParsesTasksAndPaths) {
  auto app = ParseAppDescription(kSensorApp);
  ASSERT_TRUE(app.ok()) << app.status().ToString();
  EXPECT_EQ(app.value().name, "sensornet");
  EXPECT_EQ(app.value().graph.task_count(), 3u);
  EXPECT_EQ(app.value().graph.path_count(), 2u);
  const TaskId sense = *app.value().graph.FindTask("sense");
  EXPECT_EQ(app.value().graph.task(sense).work.duration, 30 * kMillisecond);
  EXPECT_DOUBLE_EQ(app.value().graph.task(sense).work.power, 2.0);
  EXPECT_EQ(app.value().graph.task(sense).monitored_var, "temp");
  const TaskId pack = *app.value().graph.FindTask("pack");
  EXPECT_NEAR(app.value().graph.task(pack).work.power, 0.66, 1e-9);
}

TEST(AppLangTest, PathsKeepDeclarationOrder) {
  auto app = ParseAppDescription(kSensorApp);
  ASSERT_TRUE(app.ok());
  const auto& path1 = app.value().graph.path(1);
  EXPECT_EQ(path1.size(), 3u);
  EXPECT_EQ(app.value().graph.TaskName(path1[0]), "sense");
  EXPECT_EQ(app.value().graph.TaskName(path1[2]), "radio");
}

TEST(AppLangTest, RunsEndToEndWithProperties) {
  auto app = ParseAppDescription(kSensorApp);
  ASSERT_TRUE(app.ok());
  auto mcu = std::make_unique<Mcu>(std::make_unique<AlwaysOnPowerModel>());
  auto runtime = ArtemisRuntime::Create(
      &app.value().graph, "radio: { maxTries: 3 onFail: skipPath; }", mcu.get(), {});
  ASSERT_TRUE(runtime.ok()) << runtime.status().ToString();
  const KernelRunResult result = runtime.value()->Run();
  EXPECT_TRUE(result.completed);
  // The sense task pushed its gaussian sample and set the monitored var.
  const TaskId sense = *app.value().graph.FindTask("sense");
  const ChannelStore& channels = runtime.value()->kernel().channels();
  ASSERT_EQ(channels.Samples(sense).size(), 1u);
  EXPECT_NEAR(channels.Samples(sense)[0], 21.0, 3.0);
  ASSERT_TRUE(channels.MonitoredValue(sense).has_value());
  EXPECT_EQ(*channels.MonitoredValue(sense), channels.Samples(sense)[0]);
}

TEST(AppLangTest, ConstantValueTasks) {
  auto app = ParseAppDescription(R"(
app tiny {
  task t { duration: 5ms; power: 1mW; value: 7.5; }
  path 1: t;
}
)");
  ASSERT_TRUE(app.ok());
  auto mcu = std::make_unique<Mcu>(std::make_unique<AlwaysOnPowerModel>());
  NullChecker checker;
  IntermittentKernel kernel(&app.value().graph, &checker, mcu.get(), {});
  ASSERT_TRUE(kernel.Run().completed);
  EXPECT_EQ(kernel.channels().Samples(0), (std::vector<double>{7.5}));
}

struct BadApp {
  std::string source;
  const char* why;
  std::string error;  // The exact Status, code and message.
};

class AppLangRejectTest : public ::testing::TestWithParam<BadApp> {};

TEST_P(AppLangRejectTest, Rejects) {
  auto app = ParseAppDescription(GetParam().source);
  ASSERT_FALSE(app.ok()) << GetParam().why;
  EXPECT_EQ(app.status().ToString(), GetParam().error) << GetParam().why;
}

INSTANTIATE_TEST_SUITE_P(
    Syntax, AppLangRejectTest,
    ::testing::Values(
        BadApp{"task t { }", "missing app header", "INVALID_ARGUMENT: line 1:1: expected 'app'"},
        BadApp{"app x { task t { duration: fast; } path 1: t; }", "bad duration",
               "INVALID_ARGUMENT: line 1:28: expected a duration"},
        BadApp{"app x { task t { power: 5kg; } path 1: t; }", "bad power unit",
               "INVALID_ARGUMENT: lex error at line 1:25: unexpected '5kg'"},
        BadApp{"app x { task t { }; }", "stray semicolon / no path",
               "INVALID_ARGUMENT: line 1:19: expected 'task' or 'path'"},
        BadApp{"app x { task t { } path 2: t; }", "path numbers out of order",
               "INVALID_ARGUMENT: line 1:20: paths must be declared in order; expected path 1"},
        BadApp{"app x { task t { } path 1: ghost; }", "unknown task in path",
               "NOT_FOUND: line 1: no task named 'ghost'"},
        BadApp{"app x { task t { } task t { } path 1: t; }", "duplicate task",
               "INVALID_ARGUMENT: line 1:25: duplicate task 't'"},
        BadApp{"app x { task t { wat: 1; } path 1: t; }", "unknown attribute",
               "INVALID_ARGUMENT: line 1:18: unknown task attribute 'wat'"},
        BadApp{"app x { }", "no paths at all", "FAILED_PRECONDITION: application has no paths"},
        BadApp{"app x { task t { duration: " + std::string(400, '9') + "; } path 1: t; }",
               "literal past double range",
               "INVALID_ARGUMENT: lex error at line 1:28: unexpected '" + std::string(400, '9') +
                   "'"},
        BadApp{"app x { task t { duration: -5; } path 1: t; }", "negative bare duration",
               "INVALID_ARGUMENT: line 1:18: duration must be between 0 and 1.8e16 milliseconds"},
        BadApp{"app x { task t { power: -3; } path 1: t; }", "negative bare power",
               "INVALID_ARGUMENT: line 1:18: power must not be negative"},
        BadApp{"app x { task t { duration: 5ms; power: 1mW; value: gaussian(1, -2); } path 1: t; }",
               "negative gaussian spread",
               "INVALID_ARGUMENT: line 1:64: gaussian stddev must not be negative"},
        BadApp{"app x { task t { } path 4294967297: t; }", "path number past 2^32-1",
               "INVALID_ARGUMENT: line 1:20: path must be at most 4294967295"}));

TEST(AppLangTest, PowerLiteralUnits) {
  auto app = ParseAppDescription(R"(
app units {
  task a { power: 500uW; duration: 1ms; }
  task b { power: 0.5W; duration: 1ms; }
  path 1: a -> b;
}
)");
  ASSERT_TRUE(app.ok());
  EXPECT_NEAR(app.value().graph.task(0).work.power, 0.5, 1e-12);
  EXPECT_NEAR(app.value().graph.task(1).work.power, 500.0, 1e-9);
}

}  // namespace
}  // namespace artemis
