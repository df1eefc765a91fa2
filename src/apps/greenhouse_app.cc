#include "src/apps/greenhouse_app.h"

#include "src/kernel/channel.h"

namespace artemis {

GreenhouseApp BuildGreenhouseApp() {
  GreenhouseApp app;

  app.soil_sense = app.graph.AddTask(TaskDef{
      .name = "soilSense",
      .work = {.duration = 50 * kMillisecond, .power = 3.0},
      .effect =
          [](TaskContext& ctx) {
            const double moisture = 0.35 + ctx.rng().Gaussian(0.0, 0.05);
            ctx.Push(moisture);
            ctx.SetMonitored(moisture);
          },
      .monitored_var = "moisture",
  });

  app.irrigate = app.graph.AddTask(TaskDef{
      .name = "irrigate",
      .work = {.duration = 30 * kMillisecond, .power = 1.2},
      .effect = [](TaskContext& ctx) { ctx.Push(1.0); },
      .monitored_var = std::nullopt,
  });

  app.light_sense = app.graph.AddTask(TaskDef{
      .name = "lightSense",
      .work = {.duration = 25 * kMillisecond, .power = 2.0},
      .effect = [](TaskContext& ctx) { ctx.Push(800.0 + ctx.rng().Gaussian(0.0, 60.0)); },
      .monitored_var = std::nullopt,
  });

  app.aggregate = app.graph.AddTask(TaskDef{
      .name = "aggregate",
      .work = {.duration = 20 * kMillisecond, .power = 0.66},
      .effect =
          [light_sense = app.light_sense](TaskContext& ctx) {
            const auto& lux = ctx.SamplesOf(light_sense);
            ctx.Push(lux.empty() ? 0.0 : lux.back());
          },
      .monitored_var = std::nullopt,
  });

  app.report = app.graph.AddTask(TaskDef{
      .name = "report",
      .work = {.duration = 90 * kMillisecond, .power = 22.0},
      .effect = [](TaskContext& ctx) { ctx.Push(1.0); },
      .monitored_var = std::nullopt,
  });

  app.path_soil = app.graph.AddPath({app.soil_sense, app.irrigate});
  app.path_light = app.graph.AddPath({app.light_sense, app.aggregate, app.report});
  return app;
}

std::string GreenhouseSpec() {
  return R"(// Greenhouse sensing properties: periodicity, energy awareness,
// bounded retries, and a moisture range guard.
soilSense: {
  period: 2s jitter: 500ms onFail: restartTask;
  maxTries: 5 onFail: skipPath;
  dpData: moisture Range: [0.1, 0.8] onFail: completePath;
}

report: {
  minEnergy: 0.9 onFail: skipTask;
  maxDuration: 200ms onFail: skipTask;
  collect: 1 dpTask: lightSense onFail: restartPath Path: 2;
}

aggregate: {
  MITD: 30s dpTask: lightSense onFail: restartPath maxAttempt: 2 onFail: skipPath Path: 2;
}
)";
}

}  // namespace artemis
