#include "src/apps/health_app.h"

#include <numeric>

#include "src/kernel/channel.h"

namespace artemis {

HealthApp BuildHealthApp(const HealthAppOptions& options) {
  const PeripheralCatalog catalog = PeripheralCatalog::ThunderboardDefaults();
  HealthApp app;

  const double temp_mean = options.force_fever ? 39.2 : options.temp_mean;
  const double temp_noise = options.temp_noise;

  // --- Path #1 tasks: body-temperature average ---------------------------
  const PeripheralOp& temp_op = catalog.Get("temp_read");
  app.body_temp = app.graph.AddTask(TaskDef{
      .name = "bodyTemp",
      .work = {.duration = temp_op.duration, .power = temp_op.power},
      .effect =
          [temp_mean, temp_noise](TaskContext& ctx) {
            ctx.Push(ctx.rng().Gaussian(temp_mean, temp_noise));
          },
      .monitored_var = std::nullopt,
  });

  app.calc_avg = app.graph.AddTask(TaskDef{
      .name = "calcAvg",
      .work = {.duration = 40 * kMillisecond, .power = 0.66},
      .effect =
          [body_temp = app.body_temp](TaskContext& ctx) {
            const std::vector<double>& samples = ctx.SamplesOf(body_temp);
            if (samples.empty()) {
              return;
            }
            const double avg = std::accumulate(samples.begin(), samples.end(), 0.0) /
                               static_cast<double>(samples.size());
            ctx.ConsumeAll(body_temp);
            ctx.Push(avg);
            ctx.SetMonitored(avg);  // avgTemp, watched by the dpData property.
          },
      .monitored_var = "avgTemp",
  });

  const PeripheralOp& hr_op = catalog.Get("heart_rate");
  app.heart_rate = app.graph.AddTask(TaskDef{
      .name = "heartRate",
      .work = {.duration = hr_op.duration, .power = hr_op.power},
      .effect = [](TaskContext& ctx) { ctx.Push(60.0 + ctx.rng().Gaussian(10.0, 4.0)); },
      .monitored_var = std::nullopt,
  });

  // --- Path #2 tasks: respiration rate ------------------------------------
  const PeripheralOp& accel_op = catalog.Get("accel_burst");
  app.accel = app.graph.AddTask(TaskDef{
      .name = "accel",
      .work = {.duration = accel_op.duration, .power = accel_op.power},
      .effect = [](TaskContext& ctx) { ctx.Push(ctx.rng().Gaussian(0.0, 1.0)); },
      .monitored_var = std::nullopt,
  });

  app.filter = app.graph.AddTask(TaskDef{
      .name = "filter",
      .work = {.duration = 15 * kMillisecond, .power = 0.66},
      .effect =
          [accel = app.accel](TaskContext& ctx) {
            // Breath rate from the accelerometer burst.
            const std::vector<double>& bursts = ctx.SamplesOf(accel);
            const double raw = bursts.empty() ? 0.0 : bursts.back();
            ctx.Push(14.0 + raw * 2.0);
          },
      .monitored_var = std::nullopt,
  });

  // --- Path #3 tasks: cough detection -------------------------------------
  const PeripheralOp& mic_op = catalog.Get("mic_capture");
  app.mic_sense = app.graph.AddTask(TaskDef{
      .name = "micSense",
      .work = {.duration = mic_op.duration, .power = mic_op.power},
      .effect = [](TaskContext& ctx) { ctx.Push(ctx.rng().NextDouble()); },
      .monitored_var = std::nullopt,
  });

  app.classify = app.graph.AddTask(TaskDef{
      .name = "classify",
      .work = {.duration = 60 * kMillisecond, .power = 0.9},
      .effect =
          [mic_sense = app.mic_sense](TaskContext& ctx) {
            const std::vector<double>& levels = ctx.SamplesOf(mic_sense);
            const double level = levels.empty() ? 0.0 : levels.back();
            ctx.Push(level > 0.92 ? 1.0 : 0.0);  // cough / no cough
          },
      .monitored_var = std::nullopt,
  });

  // --- Shared sink --------------------------------------------------------
  const PeripheralOp& ble_op = catalog.Get("ble_send");
  app.send = app.graph.AddTask(TaskDef{
      .name = "send",
      // 80 ms BLE burst: inside the 100 ms maxDuration budget on continuous
      // power, violated only when a power failure splits the task.
      .work = {.duration = 80 * kMillisecond, .power = ble_op.power},
      .effect = [](TaskContext& ctx) { ctx.Push(1.0); },  // transmission record
      .monitored_var = std::nullopt,
  });

  app.path_temp =
      app.graph.AddPath({app.body_temp, app.calc_avg, app.heart_rate, app.send});
  app.path_resp = app.graph.AddPath({app.accel, app.filter, app.send});
  app.path_cough = app.graph.AddPath({app.mic_sense, app.classify, app.send});
  return app;
}

std::string HealthAppSpec() {
  return R"(// Figure 5: property specification of the health monitoring app.
micSense: {
  maxTries: 10 onFail: skipPath;
}

send: {
  MITD: 5min dpTask: accel onFail: restartPath maxAttempt: 3 onFail: skipPath Path: 2;
  maxDuration: 100ms onFail: skipTask;
  collect: 1 dpTask: accel onFail: restartPath Path: 2;
  collect: 1 dpTask: micSense onFail: restartPath Path: 3;
}

calcAvg: {
  collect: 10 dpTask: bodyTemp onFail: restartPath;
  dpData: avgTemp Range: [36, 38] onFail: completePath;
}

accel: {
  maxTries: 10 onFail: skipPath;
}
)";
}

std::string HealthAppSpecNoMaxAttempt() {
  return R"(// Ablation: ARTEMIS restricted to Mayfly-expressible reactions.
micSense: {
  maxTries: 10 onFail: skipPath;
}

send: {
  MITD: 5min dpTask: accel onFail: restartPath Path: 2;
  maxDuration: 100ms onFail: skipTask;
  collect: 1 dpTask: accel onFail: restartPath Path: 2;
  collect: 1 dpTask: micSense onFail: restartPath Path: 3;
}

calcAvg: {
  collect: 10 dpTask: bodyTemp onFail: restartPath;
  dpData: avgTemp Range: [36, 38] onFail: completePath;
}

accel: {
  maxTries: 10 onFail: skipPath;
}
)";
}

}  // namespace artemis
