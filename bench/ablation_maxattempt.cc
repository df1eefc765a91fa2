// Ablation: the value of the maxAttempt construct (DESIGN.md design-choice
// index). Sweeps maxAttempt = 0 (disabled, Mayfly-equivalent reaction)
// through 6 under a charging delay that violates the MITD window, reporting
// completion, wall time, and energy. Also contrasts the two onFail
// escalation actions.
//
// The nine spec variants run as one sweep grid: the spec axis is the
// ablation variable, and the compiled-spec cache deduplicates the repeated
// maxAttempt-3/skipPath text between the two sections.
#include <cstdio>
#include <string>

#include "bench/bench_common.h"
#include "src/sweep/sweep.h"

using namespace artemis;
using namespace artemis::bench;

namespace {

std::string SpecWithMaxAttempt(int attempts, const std::string& escalation) {
  std::string mitd = "  MITD: 5min dpTask: accel onFail: restartPath";
  if (attempts > 0) {
    mitd += " maxAttempt: " + std::to_string(attempts) + " onFail: " + escalation;
  }
  mitd += " Path: 2;\n";
  return "micSense: {\n  maxTries: 10 onFail: skipPath;\n}\n"
         "send: {\n" +
         mitd +
         "  maxDuration: 100ms onFail: skipTask;\n"
         "  collect: 1 dpTask: accel onFail: restartPath Path: 2;\n"
         "  collect: 1 dpTask: micSense onFail: restartPath Path: 3;\n"
         "}\n"
         "calcAvg: {\n"
         "  collect: 10 dpTask: bodyTemp onFail: restartPath;\n"
         "  dpData: avgTemp Range: [36, 38] onFail: completePath;\n"
         "}\n"
         "accel: {\n  maxTries: 10 onFail: skipPath;\n}\n";
}

}  // namespace

int main() {
  std::printf("=== Ablation: maxAttempt sweep (6 min charging, MITD = 5 min) ===\n\n");
  std::printf("%-24s %-26s %-12s\n", "configuration", "outcome", "energy");

  sweep::SweepSpec grid;
  grid.specs.clear();
  for (int attempts = 0; attempts <= 6; ++attempts) {
    const std::string label =
        attempts == 0 ? "maxAttempt disabled" : "maxAttempt " + std::to_string(attempts);
    grid.specs.push_back({label, SpecWithMaxAttempt(attempts, "skipPath")});
  }
  for (const char* action : {"skipPath", "completePath"}) {
    grid.specs.push_back({action, SpecWithMaxAttempt(3, action)});
  }
  grid.charges = {ChargeTime(6)};
  grid.budgets = {kOnBudgetUj};
  grid.max_wall = 8 * kHour;
  // The maxAttempt 1 variant is degenerate on purpose: its `att < 0` guard
  // is always false, which the analyzer gate refuses as ART003 (the shape of
  // the examples/specs/bad/unsat_guard.prop fixture). The ablation measures
  // that variant, so it runs without the gate.
  grid.analyze = false;
  auto outcome = sweep::RunSweep(grid, SweepJobs());
  if (!outcome.ok() || !outcome.value().AllOk()) {
    std::fprintf(stderr, "ablation sweep failed: %s\n",
                 outcome.ok() ? "error rows" : outcome.status().ToString().c_str());
    return 1;
  }

  const auto& rows = outcome.value().rows;
  for (int i = 0; i < 7; ++i) {
    const sweep::SweepRow& row = rows[i];
    std::printf("%-24s %-26s %-12s\n", row.spec_label.c_str(),
                CompletionCell(row.result).c_str(),
                row.result.completed ? FormatEnergy(row.result.stats.TotalEnergy()).c_str()
                                     : "-");
  }

  std::printf("\nescalation action comparison (maxAttempt 3):\n");
  for (int i = 7; i < 9; ++i) {
    const sweep::SweepRow& row = rows[i];
    std::printf("%-24s %-26s\n", row.spec_label.c_str(), CompletionCell(row.result).c_str());
  }
  std::printf("\nshape: without maxAttempt ARTEMIS degenerates to Mayfly's livelock; any\n"
              "positive bound restores completion, with time/energy growing in the bound.\n");
  return 0;
}
