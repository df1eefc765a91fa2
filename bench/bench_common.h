// Shared setup for the experiment binaries: the Section 5 testbed
// parameters and a helper to run the health benchmark under ARTEMIS or
// Mayfly on a given charging schedule.
#ifndef BENCH_BENCH_COMMON_H_
#define BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>

#include "src/apps/health_app.h"
#include "src/base/status.h"
#include "src/core/device.h"
#include "src/core/stats.h"
#include "src/kernel/kernel.h"
#include "src/monitor/shared_spec.h"
#include "src/obs/bus.h"
#include "src/sweep/sweep.h"

namespace artemis::bench {

// Per-on-period energy budget (uJ): finishes `accel` (18 mJ) after a retry
// but never accel+filter+send (~19.95 mJ) in one period, reproducing the
// Section 5.1 failure pattern where outages land between accel and send.
inline constexpr EnergyUj kOnBudgetUj = 19'500.0;

// Nominal charging bins carry a 1 s boot margin (see EXPERIMENTS.md): a
// nominal outage equal to the MITD bound must not spuriously violate it
// through millisecond-scale runtime overhead.
inline SimDuration ChargeTime(int minutes) {
  return static_cast<SimDuration>(minutes) * kMinute - 1 * kSecond;
}

// Runs the health app with its embedded spec under `system` — ARTEMIS with
// builtin monitors, or the Mayfly baseline (MITD/collect subset, no
// maxAttempt) — with kOnBudgetUj per on-period and `charge` recharge time
// (0 = continuous power). When `observer` is set, it becomes the MCU's bus
// and the sim/kernel/monitor layers publish into it (src/obs): fig13 reads
// its timeline off that event stream. A setup failure is a bug in the bench
// itself, not a data point, so it aborts the bench.
inline KernelRunResult RunHealth(MonitorSystem system, SimDuration charge, SimDuration max_wall,
                                 obs::EventBus* observer = nullptr) {
  const auto fail = [](const Status& status) {
    std::fprintf(stderr, "bench setup failed: %s\n", status.ToString().c_str());
    std::exit(1);
  };
  DeviceRecipe recipe;
  recipe.graph = std::make_shared<const AppGraph>(BuildHealthApp().graph);
  StatusOr<SharedSpecArtifactPtr> artifact =
      BuildSpecArtifact(HealthAppSpec(), *recipe.graph, SpecArtifactStage::kAst);
  if (!artifact.ok()) {
    fail(artifact.status());
  }
  recipe.charge = charge;
  recipe.budget = kOnBudgetUj;
  recipe.system = system;
  recipe.artifact = artifact.value();
  recipe.kernel.max_wall_time = max_wall;
  recipe.observer = observer;
  DeviceRun device(std::move(recipe));
  if (!device.status().ok()) {
    fail(device.status());
  }
  return device.Run();
}

// The Figure 12 grid: ARTEMIS and Mayfly across 1..10 minute charging bins
// (20 points).
inline sweep::SweepSpec Fig12Grid() {
  sweep::SweepSpec grid;
  grid.systems = {"artemis", "mayfly"};
  grid.charges.clear();
  for (int minutes = 1; minutes <= 10; ++minutes) {
    grid.charges.push_back(ChargeTime(minutes));
  }
  grid.budgets = {kOnBudgetUj};
  // A Mayfly livelock cycles once per charging delay; 40 cycles of the
  // longest delay is unambiguous non-termination.
  grid.max_wall = 8 * kHour;
  return grid;
}

// Worker count for sweep-engine benches: SWEEP_JOBS env override, default 4
// (the engine's output is byte-identical for any value).
inline int SweepJobs() {
  const char* env = std::getenv("SWEEP_JOBS");
  const int jobs = env != nullptr ? std::atoi(env) : 4;
  return jobs > 0 ? jobs : 1;
}

inline std::string CompletionCell(const KernelRunResult& result) {
  if (result.completed) {
    return FormatDuration(result.finished_at);
  }
  if (result.timed_out) {
    return "DNF (non-termination)";
  }
  if (result.starved) {
    return "DNF (starved)";
  }
  return "DNF";
}

}  // namespace artemis::bench

#endif  // BENCH_BENCH_COMMON_H_
