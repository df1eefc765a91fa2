// Fleet-scale device-twin engine: time-slices N simulated intermittent
// devices (src/fleet/instance.h) across J shard workers and folds their
// results into deterministic fleet aggregates.
//
// Sharding (docs/fleet.md). The cpu-map is blk-mq style: the device index
// space [0, N) is cut into J contiguous ranges at fleet start — shard s
// owns N/J devices plus one spare when s < N%J — and each worker owns its
// range exclusively. Nothing is claimed, locked, or stolen on the hot
// path; the only synchronization is the fork/join around the run
// (src/base/thread_pool.h) and one post-join merge pass.
//
// Determinism contract: the rendered output is byte-identical for any
// --shards value.
//  * a device's behaviour depends only on its index: its RNG seed is
//    DeviceSeed(fleet_seed, index) and its energy axes are index-derived
//    (round-robin over the charge/budget lists);
//  * every aggregate sum is integral (energy folds as nanojoules,
//    histograms count integer samples), so folding is associative;
//  * per-shard partials are merged in shard order after the join, which
//    equals the single-shard fold order because ranges are contiguous.
//
// Monitor modes: "scalar" steps monitors in-loop per device (full verdict
// feedback); "batch" captures each device's event stream and advances all
// devices of a tile together through the SoA batch VM
// (src/monitor/compiled_batch.h), arbitrating per event per lane exactly
// like MonitorSet does per event. See docs/fleet.md for the observe-only
// caveat on batch mode.
#ifndef SRC_FLEET_FLEET_H_
#define SRC_FLEET_FLEET_H_

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/base/units.h"
#include "src/fleet/instance.h"
#include "src/monitor/monitor_set.h"

namespace artemis::fleet {

struct FleetSpec {
  std::string app = "health";  // health | greenhouse | ar
  // Property spec text; absent = the app's embedded default spec, empty =
  // a spec with no properties.
  std::optional<std::string> spec_text;
  std::string spec_label = "default";
  MonitorBackend backend = MonitorBackend::kCompiled;
  // "scalar" (in-loop MonitorSet) or "batch" (captured streams + SoA VM;
  // requires the compiled backend).
  std::string monitor = "batch";
  std::uint64_t devices = 1;
  int shards = 1;
  std::uint64_t seed = 1;
  // Device energy axes, assigned round-robin by device index (device i
  // gets charges[i % charges.size()], budgets[i % budgets.size()]).
  std::vector<SimDuration> charges = {0};
  std::vector<EnergyUj> budgets = {19'500.0};
  // Horizon: iterations > 0 runs that many passes over the path set;
  // iterations == 0 loops until `horizon` simulated time.
  std::uint64_t iterations = 1;
  SimDuration horizon = 8 * kHour;
  // Devices batched per monitor tile in "batch" mode (bounds host memory:
  // one captured event stream per in-flight device).
  std::uint32_t tile = 256;
  // Attach a per-device obs bus + ObsStatsAggregator and fold the counts
  // (zero simulated cycles, like sweep's collect_stats).
  bool collect_obs = false;
  // Batch mode only: count events per dispatch entry while stepping (the
  // measured dispatch-entry mix, vs. the static handler-class histogram)
  // and surface the hot entries through FleetOutcome::traffic. Costs one
  // counter increment per dispatched lane-event.
  bool collect_traffic = false;
  // Sweep-parity fail-fast gate: run the whole-system static analyzer
  // (src/analysis) over the fleet's spec against its charge/budget axes
  // before any device simulates; analyzer errors abort the fleet with a
  // Status (exit 2 from artemisc). `--no-analyze` opts out.
  bool analyze = true;
};

// Contiguous device range owned by one shard; end exclusive.
struct ShardRange {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
};

// The static cpu-map: `shards` contiguous balanced ranges covering
// [0, devices). Ranges never overlap; earlier shards get the spares.
std::vector<ShardRange> BuildCpuMap(std::uint64_t devices, int shards);

// Deterministic integer histogram: power-of-two buckets over uint64
// samples. All state is integral, so MergeFrom in shard order reproduces
// the single-shard fold bit-for-bit.
class FleetHistogram {
 public:
  void Record(std::uint64_t sample);
  void MergeFrom(const FleetHistogram& other);

  std::uint64_t count() const { return count_; }
  std::uint64_t min() const { return count_ == 0 ? 0 : min_; }
  std::uint64_t max() const { return max_; }
  std::uint64_t sum() const { return sum_; }
  // Upper bound of the bucket holding the p-quantile sample (p in [0,1]).
  std::uint64_t Percentile(double p) const;
  std::string Summary() const;  // "n=.. min=.. p50=.. p90=.. p99=.. max=.."

 private:
  static constexpr int kBuckets = 64;
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

// Integral fleet-wide fold of DeviceResults. Fold order = device index
// order (within a shard by construction, across shards via MergeFrom).
struct FleetAggregates {
  std::uint64_t devices = 0;
  std::uint64_t errors = 0;
  std::uint64_t completed = 0;
  std::uint64_t starved = 0;
  std::uint64_t timed_out = 0;
  std::uint64_t iterations = 0;
  std::uint64_t reboots = 0;
  std::uint64_t charging_us = 0;
  std::uint64_t energy_nj = 0;
  std::uint64_t monitor_energy_nj = 0;
  std::uint64_t monitor_events = 0;
  std::uint64_t monitor_events_elided = 0;  // dead-column subset of the above
  std::uint64_t violations = 0;
  std::uint64_t devices_with_violations = 0;
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;
  std::uint64_t skips = 0;

  FleetHistogram energy_uj_hist;      // per-device total energy, in uJ
  FleetHistogram violations_hist;     // per-device violation count
  FleetHistogram attempts_hist;       // per-device worst attempts-per-commit

  bool has_obs = false;
  std::array<std::uint64_t, obs::kNumKinds> obs_counts{};
  std::uint64_t obs_total = 0;
  std::uint64_t obs_completed_paths = 0;
  std::uint64_t obs_committed_bytes = 0;

  // Runtime dispatch-entry traffic (FleetSpec::collect_traffic): events per
  // handler class (kSelfLoop..kGeneral) and per (machine, entry) counter.
  // Pure uint64 sums, so shard merges stay order-independent.
  bool has_traffic = false;
  std::array<std::uint64_t, 5> class_traffic{};
  std::vector<std::vector<std::uint64_t>> entry_traffic;  // [machine][entry]

  std::string first_error;  // first failing device's error, by index

  void Fold(const DeviceResult& result);
  void MergeFrom(const FleetAggregates& other);
};

// One hot dispatch entry from the runtime traffic profile, pre-resolved to
// names so renderers stay pure formatting. kind/task are -1 for a machine's
// shared any-task row.
struct FleetTrafficRow {
  int machine = 0;
  std::string state;
  int kind = 0;
  int task = 0;
  std::string handler_class;
  std::uint64_t events = 0;
};

struct FleetOutcome {
  FleetAggregates agg;
  std::uint64_t devices = 0;
  int shards = 1;  // as run (informational; never affects aggregate bytes)
  // Batch-VM handler-class histogram (kSelfLoop..kGeneral, summed over
  // machines), empty in scalar mode.
  std::vector<std::uint64_t> handler_classes;
  // Dead-column elision facts (batch mode): (kind, task) columns that are
  // kSelfLoop in EVERY machine — events on them are consumed at feed time
  // without ever reaching the batch VM — over the total column count.
  std::uint32_t dead_columns = 0;
  std::uint32_t total_columns = 0;
  // Hottest dispatch entries by measured traffic (collect_traffic only),
  // sorted by events descending; ties broken by (machine, entry) order so
  // the list is deterministic for any shard count.
  std::vector<FleetTrafficRow> traffic;

  bool AllOk() const { return agg.errors == 0; }
};

// Expands per-device configs from the fleet axes. Exposed for the
// equivalence tests (a single-device fleet must match a sweep point).
DeviceConfig ConfigForDevice(const FleetSpec& spec, std::uint64_t index);

// Runs the whole fleet across `spec.shards` workers.
StatusOr<FleetOutcome> RunFleet(const FleetSpec& spec);

// Deterministic renderings: no host timing, no shard count in the
// aggregate body, so bytes depend only on the fleet axes and results.
std::string RenderFleetJson(const FleetSpec& spec, const FleetOutcome& outcome);
std::string RenderFleetTable(const FleetSpec& spec, const FleetOutcome& outcome);

}  // namespace artemis::fleet

#endif  // SRC_FLEET_FLEET_H_
