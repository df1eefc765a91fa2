#include "src/apps/ar_app.h"

#include <cmath>

#include "src/kernel/channel.h"

namespace artemis {
namespace {

// Nearest-centroid model over (mean-magnitude, stddev) features; constants
// picked so the two synthetic classes separate cleanly.
constexpr double kStillCentroid[2] = {1.0, 0.05};
constexpr double kMovingCentroid[2] = {1.3, 0.45};

double Distance2(const double a[2], double x, double y) {
  const double dx = a[0] - x;
  const double dy = a[1] - y;
  return dx * dx + dy * dy;
}

}  // namespace

ArApp BuildArApp(const ArAppOptions& options) {
  ArApp app;
  const int window = options.window_size;
  const double moving_fraction = options.moving_fraction;

  // Sampling dominates the energy budget: ~0.9 ms at 9 mW per sample.
  app.sample_window = app.graph.AddTask(TaskDef{
      .name = "sampleWindow",
      .work = {.duration = static_cast<SimDuration>(window) * 900, .power = 9.0},
      .effect =
          [window, moving_fraction](TaskContext& ctx) {
            // Emit the window as (mean, stddev) summary samples: the moving
            // class has a larger mean magnitude and much larger variance.
            const bool moving = ctx.rng().NextDouble() < moving_fraction;
            const double mean =
                moving ? ctx.rng().Gaussian(1.3, 0.05) : ctx.rng().Gaussian(1.0, 0.02);
            double m2 = 0.0;
            for (int i = 0; i < window; ++i) {
              const double sample =
                  ctx.rng().Gaussian(mean, moving ? 0.45 : 0.05);
              m2 += (sample - mean) * (sample - mean);
            }
            ctx.Push(mean);
            ctx.Push(std::sqrt(m2 / window));
          },
      .monitored_var = std::nullopt,
  });

  app.featurize = app.graph.AddTask(TaskDef{
      .name = "featurize",
      .work = {.duration = 25 * kMillisecond, .power = 0.9},
      .effect =
          [sample_window = app.sample_window](TaskContext& ctx) {
            const auto& raw = ctx.SamplesOf(sample_window);
            if (raw.size() < 2) {
              return;
            }
            // The last (mean, stddev) pair is this window's feature vector.
            ctx.Push(raw[raw.size() - 2]);
            ctx.Push(raw[raw.size() - 1]);
            ctx.ConsumeAll(sample_window);
          },
      .monitored_var = std::nullopt,
  });

  app.classify = app.graph.AddTask(TaskDef{
      .name = "classify",
      .work = {.duration = 8 * kMillisecond, .power = 0.9},
      .effect =
          [featurize = app.featurize](TaskContext& ctx) {
            const auto& features = ctx.SamplesOf(featurize);
            if (features.size() < 2) {
              return;
            }
            const double mean = features[features.size() - 2];
            const double stddev = features[features.size() - 1];
            const bool moving = Distance2(kMovingCentroid, mean, stddev) <
                                Distance2(kStillCentroid, mean, stddev);
            ctx.Push(moving ? 1.0 : 0.0);
            ctx.ConsumeAll(featurize);
          },
      .monitored_var = std::nullopt,
  });

  app.count = app.graph.AddTask(TaskDef{
      .name = "count",
      .work = {.duration = 3 * kMillisecond, .power = 0.66},
      .effect =
          [classify = app.classify](TaskContext& ctx) {
            const auto& classes = ctx.SamplesOf(classify);
            ctx.Push(classes.empty() ? 0.0 : classes.back());
            ctx.ConsumeAll(classify);
            // Running moving-fraction estimate, exposed for dpData.
            const auto& mine = ctx.SamplesOf(ctx.self());
            double moving = ctx.staged_samples().back();
            for (const double c : mine) {
              moving += c;
            }
            ctx.SetMonitored(moving / static_cast<double>(mine.size() + 1));
          },
      .monitored_var = "movingFraction",
  });

  app.report = app.graph.AddTask(TaskDef{
      .name = "report",
      .work = {.duration = 90 * kMillisecond, .power = 24.0},
      .effect = [count = app.count](TaskContext& ctx) { ctx.ConsumeAll(count); },
      .monitored_var = std::nullopt,
  });

  app.path_window =
      app.graph.AddPath({app.sample_window, app.featurize, app.classify, app.count});
  app.path_report = app.graph.AddPath({app.report});
  return app;
}

std::string ArAppSpec() {
  return R"(// Activity recognition: bounded sampling retries, four counted
// windows per report, freshness between counting and reporting.
sampleWindow: {
  maxTries: 8 onFail: skipPath;
}

report: {
  // Cross-path dependencies: the Path qualifier names the *producing* path
  // to restart (the anchor `report` is not on path 1).
  collect: 4 dpTask: count onFail: restartPath Path: 1;
  MITD: 2min dpTask: count onFail: restartPath maxAttempt: 3 onFail: skipPath Path: 1;
  maxDuration: 150ms onFail: skipTask;
}

count: {
  dpData: movingFraction Range: [0, 0.9] onFail: completePath;
}
)";
}

}  // namespace artemis
