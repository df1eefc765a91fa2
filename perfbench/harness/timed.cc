#include "perfbench/harness/timed.h"

#include <algorithm>
#include <cstdio>
#include <vector>

namespace perfbench {

std::string CheckRendering(const WorkloadInput& input, const DigestTable& digests,
                           const std::string& rendering) {
  const std::string key = DigestKey(input);
  const auto it = digests.find(key);
  if (it == digests.end()) {
    return "no reference digest for " + key;
  }
  const std::uint64_t got = Digest(rendering);
  if (got != it->second) {
    return "rendering digest " + DigestHex(got) + " != reference " + DigestHex(it->second) +
           " for " + key;
  }
  return "";
}

namespace {

// One batch of set-ups, at least 20 and about 0.1 s worth. Batches run
// before every engine call, so setup_s is a median over the same stretch
// of host time as the calls.
artemis::Status SetupBatch(const WorkloadInput& input, std::vector<double>* setups) {
  const Clock::time_point batch_start = Clock::now();
  for (int rep = 0; rep < 20 || SecondsSince(batch_start) < 0.1; ++rep) {
    const Clock::time_point t0 = Clock::now();
    const artemis::Status status = RunSetup(input);
    setups->push_back(SecondsSince(t0));
    if (!status.ok()) {
      return status;
    }
  }
  return artemis::Status::Ok();
}

}  // namespace

Result RunTimed(const WorkloadInput& input, double seconds, const DigestTable& digests) {
  Result result;
  std::vector<double> setups;
  std::vector<double> walls;
  std::vector<double> cpus;
  double peak_rss_mb = 0.0;
  int calls = 0;
  const Clock::time_point run_start = Clock::now();
  while (calls < 6 || SecondsSince(run_start) < seconds) {
    if (const artemis::Status status = SetupBatch(input, &setups); !status.ok()) {
      std::printf("setup failed: %s\n", status.ToString().c_str());
      result.correct = false;
      result.attempted = result.failed = input.items;
      return result;
    }
    const double cpu0 = ProcessCpuSeconds();
    const Clock::time_point t0 = Clock::now();
    artemis::StatusOr<EngineOutput> out = RunEngine(input);
    const double wall = SecondsSince(t0);
    const double cpu = ProcessCpuSeconds() - cpu0;
    ++calls;
    result.attempted += input.items;
    if (!out.ok()) {
      std::printf("call %d: engine error: %s\n", calls, out.status().ToString().c_str());
      result.correct = false;
      result.failed += input.items;
      continue;
    }
    const std::string mismatch = CheckRendering(input, digests, out.value().rendering);
    if (!mismatch.empty()) {
      std::printf("call %d: output check failed: %s\n", calls, mismatch.c_str());
      result.correct = false;
      result.failed += input.items;
    } else {
      result.failed += out.value().item_errors;
    }
    // The first call warms the allocator and page cache and is not timed.
    if (calls == 1) {
      // Read after the first call only: later calls leave freed memory in
      // per-thread allocator arenas, so the high-water mark would grow
      // with the number of calls rather than with the workload.
      peak_rss_mb = PeakRssMb();
    } else {
      walls.push_back(wall);
      cpus.push_back(cpu);
    }
    std::printf("call %d: %.3f s wall, %.3f s cpu, %s\n", calls, wall, cpu,
                calls == 1 ? "warm-up" : "timed");
  }
  result.correct = result.correct && result.failed == 0;
  if (walls.empty()) {
    return result;  // every timed call failed; nothing to report
  }

  const double wall = Median(walls);
  const double items = static_cast<double>(input.items);
  const double error_share =
      static_cast<double>(result.failed) / static_cast<double>(result.attempted);
  std::printf("%s: %llu %s per call, %zu timed calls (median %.3f s, fastest %.3f s), "
              "%zu set-ups\n",
              input.name.c_str(), static_cast<unsigned long long>(input.items),
              input.is_fleet ? "devices" : "points", walls.size(), wall,
              *std::min_element(walls.begin(), walls.end()), setups.size());
  if (!input.is_fleet) {
    std::printf("points_per_s %s 1/s (a grid point simulates one device)\n",
                FormatNumber(items / wall).c_str());
  }
  std::printf("error_share %s ratio (%llu of %llu failed)\n", FormatNumber(error_share).c_str(),
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));
  result.Add("devices_per_s", items / wall, "1/s");
  result.Add("setup_s", Median(setups), "s");
  result.Add("peak_rss_mb", peak_rss_mb, "MiB");
  result.Add("cpu_s", Median(cpus), "s");
  return result;
}

}  // namespace perfbench
