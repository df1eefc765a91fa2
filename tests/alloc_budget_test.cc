// Allocation budget per simulated device.
//
// A device allocates only what it owns: its power model, its kernel's
// channel data, its monitor state. What the cost model, the app graph or
// the spec artifact already fix is shared, and the per-task loop reuses the
// kernel's staging buffers. This suite replaces the global operator new to
// count heap allocations and holds the engines to a budget per device, for
// the three shapes of the repo benchmark (perfbench/):
//
//  * fleet-fresh: a batch fleet on continuous power, one iteration;
//  * fleet-outage: a scalar fleet under 1/3/6/10 min charges, 8 h horizon;
//  * sweep-grid: the sweep grid's axes at a few seeds, per device run.
//
// Each count is marginal: the difference between a run of the shape and a
// larger run of it, divided by the extra devices, so what a fleet or sweep
// allocates once (spec pipeline, analyzer gate, workers, tile buffers)
// cancels out.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/fleet/fleet.h"
#include "src/sweep/sweep.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

// Out of line, so the compiler cannot see a malloc() paired with a delete
// or an inlined standard operator new paired with a free().
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size) { return ::operator new(size); }
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace artemis {
namespace {

// Allocations made while `run` runs.
template <typename Run>
std::uint64_t CountAllocations(Run run) {
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  run();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

// Marginal allocations per device of `spec` between `devices` and
// 2 * `devices` fleet devices.
double FleetAllocationsPerDevice(fleet::FleetSpec spec, std::uint64_t devices) {
  const auto allocations = [&spec](std::uint64_t n) {
    spec.devices = n;
    return CountAllocations([&spec] {
      const StatusOr<fleet::FleetOutcome> outcome = fleet::RunFleet(spec);
      ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
      EXPECT_TRUE(outcome.value().AllOk()) << outcome.value().agg.first_error;
    });
  };
  const std::uint64_t small = allocations(devices);
  const std::uint64_t large = allocations(2 * devices);
  return static_cast<double>(large - small) / static_cast<double>(devices);
}

std::vector<SimDuration> Charges(const std::vector<std::string>& names) {
  std::vector<SimDuration> charges;
  for (const std::string& name : names) {
    charges.push_back(sweep::ParseChargeSchedule(name).value());
  }
  return charges;
}

void Report(const char* shape, double per_device, double budget) {
  std::printf("%s: %.1f allocations per device (budget %.0f)\n", shape, per_device, budget);
}

TEST(AllocBudgetTest, FleetFreshBatchDevice) {
  fleet::FleetSpec spec;
  spec.app = "health";
  spec.monitor = "batch";
  spec.iterations = 1;
  spec.charges = {0};
  spec.shards = 2;
  // Whole tiles on each shard, so every lane's capture buffer is warm
  // before the counted devices run, as it is for nearly all of a large
  // fleet.
  const double per_device = FleetAllocationsPerDevice(spec, 4 * spec.tile);
  Report("fleet-fresh", per_device, 18);
  EXPECT_LE(per_device, 18.0);
}

TEST(AllocBudgetTest, FleetOutageScalarDevice) {
  fleet::FleetSpec spec;
  spec.app = "health";
  spec.monitor = "scalar";
  spec.iterations = 0;  // until the 8 h horizon
  spec.charges = Charges({"1min", "3min", "6min", "10min"});
  spec.shards = 2;
  const double per_device = FleetAllocationsPerDevice(spec, 8);
  Report("fleet-outage", per_device, 110);
  EXPECT_LE(per_device, 110.0);
}

TEST(AllocBudgetTest, SweepGridDeviceRun) {
  sweep::SweepSpec spec;
  spec.app = "health";
  spec.systems = {"artemis", "mayfly"};
  spec.backends = {"builtin", "interpreted", "compiled"};
  spec.charges = Charges({"continuous", "1min", "6min", "10min"});
  spec.timekeepers = {"default", "rtc:0.01"};
  spec.flight = "full";
  const auto run = [&spec](std::uint64_t seeds) {
    spec.seeds.clear();
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
      spec.seeds.push_back(seed);
    }
    std::uint64_t devices_run = 0;
    const std::uint64_t allocations = CountAllocations([&spec, &devices_run] {
      const StatusOr<sweep::SweepOutcome> outcome = sweep::RunSweep(spec, 2);
      ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
      devices_run = outcome.value().devices_run;
    });
    return std::pair<std::uint64_t, std::uint64_t>(allocations, devices_run);
  };
  const auto [small, small_runs] = run(3);
  const auto [large, large_runs] = run(6);
  ASSERT_GT(large_runs, small_runs);
  const double per_device =
      static_cast<double>(large - small) / static_cast<double>(large_runs - small_runs);
  Report("sweep-grid", per_device, 81);
  EXPECT_LE(per_device, 81.0);
}

}  // namespace
}  // namespace artemis
