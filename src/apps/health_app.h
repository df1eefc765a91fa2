// The wearable health-monitoring benchmark application (Figures 4-6).
//
// Eight tasks across three merged paths:
//   Path #1: bodyTemp -> calcAvg -> heartRate -> send   (temperature average)
//   Path #2: accel    -> filter  -> send                (respiration rate)
//   Path #3: micSense -> classify -> send               (cough detection)
// `send` appears on every path (path merging), which is why its properties
// carry explicit Path qualifiers in the Figure 5 spec.
//
// Task work costs come from the Thunderboard peripheral catalogue; `accel`
// and `send` are the expensive ones (Section 5.1), which is what makes power
// failures land between them under a small energy budget.
#ifndef SRC_APPS_HEALTH_APP_H_
#define SRC_APPS_HEALTH_APP_H_

#include <string>

#include "src/kernel/app_graph.h"
#include "src/sim/peripherals.h"

namespace artemis {

struct HealthAppOptions {
  double temp_mean = 36.6;   // deg C; keep inside [36, 38] for normal runs
  double temp_noise = 0.15;  // stddev of simulated body-temperature readings
  // Force a fever so the calcAvg dpData property fires (for tests/examples
  // of completePath).
  bool force_fever = false;
};

struct HealthApp {
  AppGraph graph;
  TaskId body_temp = kInvalidTask;
  TaskId calc_avg = kInvalidTask;
  TaskId heart_rate = kInvalidTask;
  TaskId accel = kInvalidTask;
  TaskId filter = kInvalidTask;
  TaskId mic_sense = kInvalidTask;
  TaskId classify = kInvalidTask;
  TaskId send = kInvalidTask;
  PathId path_temp = kNoPath;   // #1
  PathId path_resp = kNoPath;   // #2
  PathId path_cough = kNoPath;  // #3
};

// Builds the application graph with Thunderboard-calibrated task costs.
HealthApp BuildHealthApp(const HealthAppOptions& options = {});

// The Figure 5 property specification (ARTEMIS surface syntax). Both the
// ARTEMIS runtime and the Mayfly baseline are configured from this text;
// Mayfly keeps only the MITD/collect subset (Section 5.1.1).
std::string HealthAppSpec();

// Spec variant without the maxAttempt escape on the MITD property — i.e.
// what ARTEMIS would do if it only matched Mayfly's semantics. Only tests
// use it.
std::string HealthAppSpecNoMaxAttempt();

}  // namespace artemis

#endif  // SRC_APPS_HEALTH_APP_H_
