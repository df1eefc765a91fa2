// The traced run: per-layer metrics of one workload.
//
// Each device (or grid point) is assembled from the same public pieces the
// engines use — app graph, Mcu + power model, monitor set / capture
// checker / Mayfly checker, IntermittentKernel — with two decorators: a
// timing PowerModel handed to the Mcu (layer `sim`) and a timing
// PropertyChecker around the monitors (layer `monitor`). Spans are timed
// from the benchmark's own code at each layer boundary, summed per device
// for the per-call layers, kept in memory and written out at the end.
//
// Parity: the traced devices must reproduce the untraced engine's
// aggregates (energy_nj, commits, aborts, reboots, monitor_events,
// violations) exactly, which proves they are the program the engine runs.
#ifndef PERFBENCH_HARNESS_TRACED_H_
#define PERFBENCH_HARNESS_TRACED_H_

#include <cstdint>
#include <string>

#include "perfbench/harness/host.h"
#include "perfbench/harness/workloads.h"

namespace perfbench {

struct ParityCounts {
  std::uint64_t energy_nj = 0;
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;
  std::uint64_t reboots = 0;
  std::uint64_t monitor_events = 0;
  std::uint64_t violations = 0;
};

// Empty when the counts agree, else the first count that differs.
std::string CheckParity(const ParityCounts& engine, const ParityCounts& traced);

struct TracedRun {
  Result result;
  ParityCounts engine;
  ParityCounts traced;
};

// Writes the spans as CSV to `spans_path` when it is non-empty.
TracedRun RunTraced(const WorkloadInput& input, const std::string& spans_path);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_TRACED_H_
