// The three benchmark workloads, generated from the benchmark seed.
//
// All three are closed batch jobs: the whole input is built up front and
// run through the public engine entry points with two shards / jobs, and
// throughput is reported at the stated input size. The seed picks one of
// kVariants input variants (fleet seed, sweep seed window), so every seed
// has a reference digest for the output check.
#ifndef PERFBENCH_HARNESS_WORKLOADS_H_
#define PERFBENCH_HARNESS_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/fleet/fleet.h"
#include "src/sweep/sweep.h"

namespace perfbench {

inline constexpr int kWorkers = 2;
inline constexpr std::uint64_t kVariants = 16;

// full: the timed size. traced: the per-layer run (fewer devices, enough
// for a p99 with ten samples beyond it). smoke: seconds-long, for the
// self-test.
enum class Size { kFull, kTraced, kSmoke };

const char* SizeName(Size size);
// The sizes a caller picks: full or smoke (traced follows from --trace 1).
artemis::StatusOr<Size> ParseSize(const std::string& text);

struct WorkloadInput {
  std::string name;
  Size size = Size::kFull;
  std::uint64_t variant = 0;
  bool is_fleet = true;
  artemis::fleet::FleetSpec fleet;  // is_fleet
  artemis::sweep::SweepSpec sweep;  // !is_fleet
  std::uint64_t items = 0;          // devices or grid points per engine call
};

const std::vector<std::string>& WorkloadNames();

artemis::StatusOr<WorkloadInput> MakeInput(const std::string& workload, std::uint64_t seed,
                                           Size size);

// One engine call (RunFleet + RenderFleetJson, or RunSweep + RenderJson):
// the deterministic rendering plus the failed-item count.
struct EngineOutput {
  std::string rendering;
  std::uint64_t item_errors = 0;
};

artemis::StatusOr<EngineOutput> RunEngine(const WorkloadInput& input);

// Time of the one-time work before the first device or point runs: the
// spec artifact builds the engine needs (BuildSpecArtifact, or the sweep
// cache's per-stage builds) plus the analyzer gate (PreAnalyzeSpec).
artemis::Status RunSetup(const WorkloadInput& input);

// Reference digests of the rendering, keyed "workload/size/variant".
using DigestTable = std::map<std::string, std::uint64_t>;

std::string DigestKey(const WorkloadInput& input);
artemis::StatusOr<DigestTable> LoadDigests(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_WORKLOADS_H_
