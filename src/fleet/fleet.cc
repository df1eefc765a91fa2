#include "src/fleet/fleet.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <utility>

#include "src/base/json.h"
#include "src/base/thread_pool.h"
#include "src/monitor/arbitration.h"
#include "src/monitor/compiled_batch.h"
#include "src/sweep/sweep.h"

namespace artemis::fleet {
namespace {

// Batch-VM handler classes, kSelfLoop..kGeneral.
constexpr const char* kClassNames[] = {"self_loop", "commit", "store_field_commit",
                                       "guard_elapsed_commit", "general"};

// Ratio of two integers, rendered with 9 decimals: deterministic for any
// shard count because both operands are shard-order-independent integers.
double Ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / den;
}

// One shard's batch-mode monitor engine: lanes over every compiled
// machine of the artifact, stepped tile by tile.
//
// Skipping rests on the compiler's reacts tables (CompiledMachine::Reacts):
// a machine can only move on the (kind, task) columns it reacts to, and
// only sees events on its path scope. Columns are numbered in one fleet
// layout, bit kind * cols_ + min(task, cols_ - 1) with cols_ taken from the
// widest machine (a narrower machine's any-task column repeats up to the
// edge), and each column set is words_ 64-bit words. Every machine gets
// the set of columns it reacts to, and every path slot the union over the
// machines that see its events: slot 0 holds the unscoped machines and
// serves events on unwatched paths, and each watched path's slot adds the
// machines scoped to it. RunTile consumes an event outside its path's set
// at feed time, and skips a machine's whole pass when none of the columns
// on its lane list is in the machine's set.
class TileStepper {
 public:
  TileStepper(const SharedSpecArtifactPtr& artifact, std::uint32_t lanes,
              ArbitrationPolicy policy)
      : policy_(policy) {
    machines_.reserve(artifact->compiled.size());
    std::size_t paths = 1;
    for (const CompiledMachine& machine : artifact->compiled) {
      // Aliasing share: the batch monitors borrow the artifact's immutable
      // machine storage, exactly like scalar CompiledMonitor instances do.
      machines_.emplace_back(
          std::shared_ptr<const CompiledMachine>(artifact, &machine), lanes);
      cols_ = std::max(cols_, machine.max_task + 2u);
      paths = std::max(paths, static_cast<std::size_t>(machine.path_scope) + 1u);
    }
    failures_.resize(machines_.size());
    high_water_.resize(machines_.size(), 0);
    pending_.resize(lanes);
    cursors_.resize(lanes);
    events_.resize(lanes);

    words_ = (2u * cols_ + 63u) / 64u;
    reacts_.assign(machines_.size() * words_, 0u);
    live_.assign(paths * words_, 0u);
    pass_cols_.assign(paths * words_, 0u);
    watched_.assign(paths, 0u);
    lane_lists_.resize(paths);
    lane_lists_[0].reserve(lanes);
    for (std::size_t m = 0; m < machines_.size(); ++m) {
      const CompiledMachine& machine = machines_[m].machine();
      const auto slot = static_cast<std::size_t>(machine.path_scope);
      for (std::uint32_t bit = 0; bit < 2u * cols_; ++bit) {
        if (machine.Reacts(static_cast<EventKind>(bit / cols_), bit % cols_)) {
          Add(reacts_.data() + m * words_, bit);
        }
      }
      for (std::uint32_t w = 0; w < words_; ++w) {
        live_[slot * words_ + w] |= reacts_[m * words_ + w];
      }
      if (slot != 0) {
        watched_[slot] = 1u;
        lane_lists_[slot].reserve(lanes);
      }
    }
    for (std::size_t slot = 1; slot < paths; ++slot) {
      if (watched_[slot] == 0u) {
        continue;
      }
      for (std::uint32_t w = 0; w < words_; ++w) {
        live_[slot * words_ + w] |= live_[w];
      }
    }
    // A set with no machines proves nothing dead: every event counts as
    // live, and no column is reported dead.
    if (machines_.empty()) {
      std::fill(live_.begin(), live_.end(), ~std::uint64_t{0});
    }
    // Reported static elision facts: the columns no machine reacts to,
    // whatever the event's path. (The runtime elision rate is usually
    // higher, because scoped machines only see events on their own path.)
    for (std::uint32_t bit = 0; bit < 2u * cols_; ++bit) {
      bool dead = true;
      for (std::size_t slot = 0; slot < paths; ++slot) {
        dead = dead && !Has(live_.data() + slot * words_, bit);
      }
      dead_columns_ += dead ? 1u : 0u;
    }
  }

  std::uint32_t dead_columns() const { return dead_columns_; }
  std::uint32_t total_columns() const { return 2u * cols_; }

  void EnableTraffic() {
    traffic_on_ = true;  // disables the machine-pass skip: the measured
                         // dispatch mix must include self-loop dispatches
    for (BatchCompiledMonitor& m : machines_) {
      m.EnableTraffic();
    }
  }

  // Folds this stepper's accumulated traffic counters into `agg` as plain
  // uint64 sums (shard-order independent by commutativity).
  void FoldTraffic(FleetAggregates* agg) const {
    agg->has_traffic = true;
    if (agg->entry_traffic.size() < machines_.size()) {
      agg->entry_traffic.resize(machines_.size());
    }
    for (std::size_t m = 0; m < machines_.size(); ++m) {
      const std::vector<std::uint64_t>& counters = machines_[m].EntryTraffic();
      std::vector<std::uint64_t>& dst = agg->entry_traffic[m];
      if (dst.size() < counters.size()) {
        dst.resize(counters.size(), 0);
      }
      for (std::size_t i = 0; i < counters.size(); ++i) {
        dst[i] += counters[i];
      }
      const std::vector<std::uint64_t> by_class = machines_[m].ClassTraffic();
      for (std::size_t c = 0; c < by_class.size() && c < agg->class_traffic.size(); ++c) {
        agg->class_traffic[c] += by_class[c];
      }
    }
  }

  std::size_t machine_count() const { return machines_.size(); }
  const BatchCompiledMonitor& machine(std::size_t i) const { return machines_[i]; }

  std::vector<std::uint64_t> ClassHistogram() const {
    std::vector<std::uint64_t> counts(5, 0);
    for (const BatchCompiledMonitor& m : machines_) {
      const std::vector<std::uint64_t> h = m.ClassHistogram();
      for (std::size_t i = 0; i < h.size(); ++i) {
        counts[i] += h[i];
      }
    }
    return counts;
  }

  // Advances the tile's first `n` <= lanes devices through their captured
  // streams and fills their monitor_events / violations counters.
  // `streams` and `results` are indexed by lane.
  void RunTile(const std::vector<std::vector<CapturedRecord>>& streams, std::uint32_t n,
               DeviceResult* results) {
    for (std::uint32_t lane = 0; lane < n; ++lane) {
      cursors_[lane] = 0;
      for (BatchCompiledMonitor& m : machines_) {
        m.HardResetLane(lane);
      }
    }
    for (;;) {
      // Feed each lane's cursor: replay path-restart markers in place,
      // consume dead-column events inline (they count as monitor events but
      // provably cannot change any machine's lane state or verdicts), then
      // expose the next live event (or mark the lane exhausted). The same
      // walk builds this pass's lane lists and their column sets — slot 0
      // every live lane, and each watched path the live lanes whose event
      // is on it — so the per-lane liveness and path decode happens ONCE
      // here instead of once per machine inside every step pass.
      for (auto& list : lane_lists_) {
        list.clear();
      }
      std::fill(pass_cols_.begin(), pass_cols_.end(), std::uint64_t{0});
      for (std::uint32_t lane = 0; lane < n; ++lane) {
        const std::vector<CapturedRecord>& stream = streams[lane];
        std::size_t& cur = cursors_[lane];
        std::size_t slot = 0;
        std::uint32_t bit = 0;
        while (cur < stream.size()) {
          const CapturedRecord& rec = stream[cur];
          if (rec.kind == CapturedRecord::Kind::kPathRestart) {
            for (BatchCompiledMonitor& m : machines_) {
              m.OnPathRestartLane(lane, rec.restart_path);
            }
            ++cur;
            continue;
          }
          slot = SlotOf(rec.event.path);
          bit = BitOf(rec.event);
          if (!Has(live_.data() + slot * words_, bit)) {
            ++results[lane].monitor_events;
            ++results[lane].monitor_events_elided;
            ++cur;
            continue;
          }
          break;
        }
        if (cur == stream.size()) {
          events_[lane] = nullptr;
          continue;
        }
        events_[lane] = &stream[cur].event;
        lane_lists_[0].push_back(lane);
        Add(pass_cols_.data(), bit);
        if (slot != 0) {
          lane_lists_[slot].push_back(lane);
          Add(pass_cols_.data() + slot * words_, bit);
        }
      }
      if (lane_lists_[0].empty()) {
        return;
      }
      // One SoA pass per machine over its lane list; failures come back
      // as compact lists, so the common all-clear round writes nothing.
      // Reserving to the run's high-water mark keeps the (rare) appends
      // from reallocating mid-pass once a burst has been seen once.
      for (std::size_t m = 0; m < machines_.size(); ++m) {
        failures_[m].clear();
        const auto slot = static_cast<std::size_t>(machines_[m].machine().path_scope);
        const std::vector<std::uint32_t>& list = lane_lists_[slot];
        if (list.empty()) {
          continue;  // Nothing on this machine's path this pass.
        }
        // Machine-pass elision: if none of the columns present in this
        // machine's lane list is live for it, every listed lane would
        // resolve to kSelfLoop — provably no state change, no failure.
        // Skipped under --stats so the traffic profile stays the true
        // dispatch mix.
        if (!traffic_on_ && !Meets(pass_cols_.data() + slot * words_,
                                   reacts_.data() + m * words_)) {
          continue;
        }
        if (failures_[m].capacity() < high_water_[m]) {
          failures_[m].reserve(high_water_[m]);
        }
        machines_[m].StepBatchLanes(events_.data(), list.data(),
                                    static_cast<std::uint32_t>(list.size()), &failures_[m]);
        high_water_[m] = std::max(high_water_[m], failures_[m].size());
      }
      // Group the (rare) failures per lane — machine-outer iteration keeps
      // each lane's pending list in machine order, mirroring MonitorSet's
      // per-event pending/Arbitrate cycle.
      touched_.clear();
      for (std::size_t m = 0; m < machines_.size(); ++m) {
        for (const BatchFailure& f : failures_[m]) {
          if (pending_[f.lane].empty()) {
            touched_.push_back(f.lane);
          }
          MonitorVerdict verdict;
          verdict.action = f.action;
          verdict.target_path = f.target_path;
          verdict.property = machines_[m].fail_record(f.fail_index).property;
          pending_[f.lane].push_back(std::move(verdict));
        }
      }
      for (std::uint32_t lane = 0; lane < n; ++lane) {
        if (events_[lane] == nullptr) {
          continue;
        }
        ++results[lane].monitor_events;
        ++cursors_[lane];
      }
      for (const std::uint32_t lane : touched_) {
        const MonitorVerdict verdict = Arbitrate(pending_[lane], policy_);
        if (verdict.violated()) {
          ++results[lane].violations;
        }
        pending_[lane].clear();
      }
    }
  }

 private:
  // The slot of an event's path: the path itself when some machine is
  // scoped to it, else 0.
  std::size_t SlotOf(PathId path) const {
    const auto p = static_cast<std::size_t>(path);
    return p < watched_.size() && watched_[p] != 0u ? p : 0;
  }
  std::uint32_t BitOf(const MonitorEvent& e) const {
    return static_cast<std::uint32_t>(e.kind) * cols_ +
           std::min(static_cast<std::uint32_t>(e.task), cols_ - 1u);
  }
  static bool Has(const std::uint64_t* set, std::uint32_t bit) {
    return ((set[bit / 64u] >> (bit % 64u)) & 1u) != 0u;
  }
  static void Add(std::uint64_t* set, std::uint32_t bit) {
    set[bit / 64u] |= std::uint64_t{1} << (bit % 64u);
  }
  bool Meets(const std::uint64_t* a, const std::uint64_t* b) const {
    for (std::uint32_t w = 0; w < words_; ++w) {
      if ((a[w] & b[w]) != 0u) {
        return true;
      }
    }
    return false;
  }

  ArbitrationPolicy policy_;
  std::uint32_t cols_ = 2;   // columns per kind: widest machine's max_task + 2
  std::uint32_t words_ = 0;  // 64-bit words per column set
  std::uint32_t dead_columns_ = 0;  // columns no machine reacts to, for reporting
  std::vector<BatchCompiledMonitor> machines_;
  std::vector<std::uint64_t> reacts_;  // [machine][word]: columns it reacts to
  std::vector<std::uint64_t> live_;    // [slot][word]: columns its machines react to
  std::vector<std::uint8_t> watched_;  // [path]: 1 = some machine's scope
  std::vector<std::vector<BatchFailure>> failures_;   // [machine], reused
  std::vector<std::size_t> high_water_;               // [machine] max failures seen
  std::vector<std::vector<MonitorVerdict>> pending_;  // [lane], cleared after use
  std::vector<std::uint32_t> touched_;                // lanes with pending verdicts
  std::vector<std::size_t> cursors_;                  // [lane]
  std::vector<const MonitorEvent*> events_;           // [lane]
  // Per-pass lane lists (ascending by construction of the feed loop) and
  // the columns present on each: slot 0 holds every live lane, which the
  // unscoped machines step; a watched path's slot holds the live lanes
  // whose current event is on it, so a scoped machine's pass cost tracks
  // the traffic it can actually see instead of the tile width.
  std::vector<std::vector<std::uint32_t>> lane_lists_;  // [slot]
  std::vector<std::uint64_t> pass_cols_;                // [slot][word]
  bool traffic_on_ = false;
};

}  // namespace

std::vector<ShardRange> BuildCpuMap(std::uint64_t devices, int shards) {
  const std::uint64_t j =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(std::max(shards, 1)));
  std::vector<ShardRange> map;
  map.reserve(j);
  const std::uint64_t base = devices / j;
  const std::uint64_t spare = devices % j;
  std::uint64_t begin = 0;
  for (std::uint64_t s = 0; s < j; ++s) {
    const std::uint64_t size = base + (s < spare ? 1 : 0);
    map.push_back(ShardRange{begin, begin + size});
    begin += size;
  }
  return map;
}

void FleetHistogram::Record(std::uint64_t sample) {
  int bucket = 0;
  for (std::uint64_t v = sample; v > 0; v >>= 1) {
    ++bucket;
  }
  // bucket b holds samples in [2^(b-1), 2^b), bucket 0 holds zeros.
  ++buckets_[std::min(bucket, kBuckets - 1)];
  if (count_ == 0 || sample < min_) {
    min_ = sample;
  }
  max_ = std::max(max_, sample);
  sum_ += sample;
  ++count_;
}

void FleetHistogram::MergeFrom(const FleetHistogram& other) {
  if (other.count_ == 0) {
    return;
  }
  for (int i = 0; i < kBuckets; ++i) {
    buckets_[i] += other.buckets_[i];
  }
  if (count_ == 0 || other.min_ < min_) {
    min_ = other.min_;
  }
  max_ = std::max(max_, other.max_);
  sum_ += other.sum_;
  count_ += other.count_;
}

std::uint64_t FleetHistogram::Percentile(double p) const {
  if (count_ == 0) {
    return 0;
  }
  const double clamped = std::min(std::max(p, 0.0), 1.0);
  std::uint64_t rank = static_cast<std::uint64_t>(clamped * static_cast<double>(count_));
  if (rank == 0) {
    rank = 1;
  }
  std::uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen >= rank) {
      if (i == 0) {
        return 0;
      }
      // Upper bound of the bucket, clamped into the observed range.
      const std::uint64_t bound =
          i >= 64 ? std::numeric_limits<std::uint64_t>::max() : (1ull << i) - 1;
      return std::min(bound, max_);
    }
  }
  return max_;
}

std::string FleetHistogram::Summary() const {
  return "n=" + std::to_string(count_) + " min=" + std::to_string(min()) +
         " p50=" + std::to_string(Percentile(0.50)) + " p90=" + std::to_string(Percentile(0.90)) +
         " p99=" + std::to_string(Percentile(0.99)) + " max=" + std::to_string(max_);
}

void FleetAggregates::Fold(const DeviceResult& result) {
  ++devices;
  if (!result.ok) {
    ++errors;
    if (first_error.empty()) {
      first_error = result.error;
    }
    return;
  }
  completed += result.completed ? 1 : 0;
  starved += result.starved ? 1 : 0;
  timed_out += result.timed_out ? 1 : 0;
  iterations += result.iterations;
  reboots += result.reboots;
  charging_us += result.charging_us;
  energy_nj += result.energy_nj;
  monitor_energy_nj += result.monitor_energy_nj;
  monitor_events += result.monitor_events;
  monitor_events_elided += result.monitor_events_elided;
  violations += result.violations;
  devices_with_violations += result.violations > 0 ? 1 : 0;
  commits += result.commits;
  aborts += result.aborts;
  skips += result.skips;
  energy_uj_hist.Record(result.energy_nj / 1000);
  violations_hist.Record(result.violations);
  attempts_hist.Record(result.max_attempts_per_commit);
  if (result.has_obs) {
    has_obs = true;
    for (int k = 0; k < obs::kNumKinds; ++k) {
      obs_counts[static_cast<std::size_t>(k)] += result.obs_counts[static_cast<std::size_t>(k)];
    }
    obs_total += result.obs_total;
    obs_completed_paths += result.obs_completed_paths;
    obs_committed_bytes += result.obs_committed_bytes;
  }
}

void FleetAggregates::MergeFrom(const FleetAggregates& other) {
  devices += other.devices;
  errors += other.errors;
  if (first_error.empty()) {
    first_error = other.first_error;
  }
  completed += other.completed;
  starved += other.starved;
  timed_out += other.timed_out;
  iterations += other.iterations;
  reboots += other.reboots;
  charging_us += other.charging_us;
  energy_nj += other.energy_nj;
  monitor_energy_nj += other.monitor_energy_nj;
  monitor_events += other.monitor_events;
  monitor_events_elided += other.monitor_events_elided;
  violations += other.violations;
  devices_with_violations += other.devices_with_violations;
  commits += other.commits;
  aborts += other.aborts;
  skips += other.skips;
  energy_uj_hist.MergeFrom(other.energy_uj_hist);
  violations_hist.MergeFrom(other.violations_hist);
  attempts_hist.MergeFrom(other.attempts_hist);
  has_obs = has_obs || other.has_obs;
  for (int k = 0; k < obs::kNumKinds; ++k) {
    obs_counts[static_cast<std::size_t>(k)] += other.obs_counts[static_cast<std::size_t>(k)];
  }
  obs_total += other.obs_total;
  obs_completed_paths += other.obs_completed_paths;
  obs_committed_bytes += other.obs_committed_bytes;
  has_traffic = has_traffic || other.has_traffic;
  for (std::size_t c = 0; c < class_traffic.size(); ++c) {
    class_traffic[c] += other.class_traffic[c];
  }
  if (entry_traffic.size() < other.entry_traffic.size()) {
    entry_traffic.resize(other.entry_traffic.size());
  }
  for (std::size_t m = 0; m < other.entry_traffic.size(); ++m) {
    std::vector<std::uint64_t>& dst = entry_traffic[m];
    const std::vector<std::uint64_t>& src = other.entry_traffic[m];
    if (dst.size() < src.size()) {
      dst.resize(src.size(), 0);
    }
    for (std::size_t i = 0; i < src.size(); ++i) {
      dst[i] += src[i];
    }
  }
}

DeviceConfig ConfigForDevice(const FleetSpec& spec, std::uint64_t index) {
  DeviceConfig config;
  config.index = index;
  config.seed = DeviceSeed(spec.seed, index);
  config.charge = spec.charges.empty() ? 0 : spec.charges[index % spec.charges.size()];
  config.budget = spec.budgets.empty() ? 19'500.0 : spec.budgets[index % spec.budgets.size()];
  config.backend = spec.backend;
  config.iterations = spec.iterations;
  config.horizon = spec.horizon;
  // Sweep-parity step valve for finite runs; horizon mode is bounded by
  // simulated time, so the valve moves out of the way.
  config.max_steps = spec.iterations == 0 ? (1ull << 62) : 2'000'000;
  config.collect_obs = spec.collect_obs;
  return config;
}

StatusOr<FleetOutcome> RunFleet(const FleetSpec& spec) {
  if (spec.devices == 0) {
    return Status::Invalid("fleet: need at least one device");
  }
  if (spec.monitor != "scalar" && spec.monitor != "batch") {
    return Status::Invalid("fleet: unknown monitor mode '" + spec.monitor +
                           "' (scalar|batch)");
  }
  if (spec.monitor == "batch" && spec.backend != MonitorBackend::kCompiled) {
    return Status::Invalid("fleet: batch monitor mode requires the compiled backend");
  }
  if (spec.charges.empty() || spec.budgets.empty()) {
    return Status::Invalid("fleet: charges/budgets axes must be non-empty");
  }
  if (spec.tile == 0) {
    return Status::Invalid("fleet: tile must be >= 1");
  }

  // The app's template graph, shared read-only by the artifact build, the
  // analyzer gate and every device (through FleetContext::app). An unknown
  // app is refused here, before any device runs.
  StatusOr<std::shared_ptr<const AppGraph>> app = sweep::AppTemplate(spec.app);
  if (!app.ok()) {
    return app.status();
  }
  const AppGraph& template_graph = *app.value();

  std::string spec_text = spec.spec_text.value_or("");
  if (!spec.spec_text.has_value()) {
    StatusOr<std::string> fallback = sweep::DefaultSpecForApp(spec.app);
    if (!fallback.ok()) {
      return fallback.status();
    }
    spec_text = std::move(fallback).value();
  }

  // One pipeline run for the whole fleet: parse/validate/lower/compile
  // against the template graph, shared read-only across every shard.
  const SpecArtifactStage stage = spec.monitor == "batch"
                                      ? SpecArtifactStage::kCompiled
                                      : StageForBackend(spec.backend);
  StatusOr<SharedSpecArtifactPtr> artifact = BuildSpecArtifact(spec_text, template_graph, stage);
  if (!artifact.ok()) {
    return artifact.status();
  }

  // Analyzer gate (sweep parity): one analysis of the fleet's single spec
  // against its energy axes before any of the N devices burns time. A
  // deployment whose properties are statically infeasible fails here with
  // the rendered diagnostics, identically for any --shards value.
  if (spec.analyze) {
    const Status gate = sweep::PreAnalyzeSpec(
        "fleet", spec.spec_label, spec_text, template_graph, spec.budgets,
        spec.charges, /*flight=*/"off", /*flight_bytes=*/1024);
    if (!gate.ok()) {
      return gate;
    }
  }

  FleetContext ctx;
  ctx.app = spec.app;
  ctx.artifact = artifact.value();

  const int shards = ClampWorkers(spec.shards, static_cast<std::size_t>(std::min<std::uint64_t>(
                                                   spec.devices, 64)));
  const std::vector<ShardRange> cpu_map = BuildCpuMap(spec.devices, shards);
  std::vector<FleetAggregates> partials(cpu_map.size());

  RunWorkers(shards, [&](int worker) {
    const ShardRange range = cpu_map[static_cast<std::size_t>(worker)];
    FleetAggregates& agg = partials[static_cast<std::size_t>(worker)];
    if (spec.monitor == "scalar") {
      for (std::uint64_t i = range.begin; i < range.end; ++i) {
        DeviceInstance instance(ctx, ConfigForDevice(spec, i));
        agg.Fold(instance.RunScalar());
      }
      return;
    }
    // Batch mode: simulate a tile of devices (capturing their monitor
    // traffic), advance all their monitors together, fold, reuse the
    // tile buffers for the next slice of the range. Each lane keeps its
    // capture stream across tiles: a device's run clears it and appends
    // into the capacity the lane's earlier devices grew.
    TileStepper stepper(ctx.artifact, spec.tile, ArbitrationPolicy::kSeverity);
    if (spec.collect_traffic) {
      stepper.EnableTraffic();
    }
    std::vector<DeviceResult> results(spec.tile);
    std::vector<std::vector<CapturedRecord>> streams(spec.tile);
    for (std::uint64_t begin = range.begin; begin < range.end; begin += spec.tile) {
      const std::uint64_t end = std::min<std::uint64_t>(begin + spec.tile, range.end);
      const std::uint32_t n = static_cast<std::uint32_t>(end - begin);
      for (std::uint32_t lane = 0; lane < n; ++lane) {
        DeviceInstance instance(ctx, ConfigForDevice(spec, begin + lane));
        results[lane] = instance.RunCapture(&streams[lane]);
      }
      stepper.RunTile(streams, n, results.data());
      for (std::uint32_t lane = 0; lane < n; ++lane) {
        agg.Fold(results[lane]);
      }
    }
    if (spec.collect_traffic) {
      stepper.FoldTraffic(&agg);
    }
  });

  FleetOutcome outcome;
  outcome.devices = spec.devices;
  outcome.shards = shards;
  for (const FleetAggregates& partial : partials) {
    outcome.agg.MergeFrom(partial);
  }
  if (spec.monitor == "batch") {
    TileStepper probe(ctx.artifact, 1, ArbitrationPolicy::kSeverity);
    outcome.handler_classes = probe.ClassHistogram();
    outcome.dead_columns = probe.dead_columns();
    outcome.total_columns = probe.total_columns();
    if (outcome.agg.has_traffic) {
      // Resolve every non-zero entry counter to names via a probe machine
      // (the counters come from the shard workers; the layout is identical
      // because every stepper compiles the same artifact), sort hottest
      // first with a (machine, entry) tie-break, and keep the head — the
      // tail is a long flat list of cold entries.
      struct RawRow {
        std::size_t machine;
        std::uint32_t entry;
        std::uint64_t events;
      };
      std::vector<RawRow> rows;
      for (std::size_t m = 0;
           m < outcome.agg.entry_traffic.size() && m < probe.machine_count(); ++m) {
        const std::vector<std::uint64_t>& counters = outcome.agg.entry_traffic[m];
        for (std::uint32_t e = 0; e < counters.size(); ++e) {
          if (counters[e] > 0) {
            rows.push_back(RawRow{m, e, counters[e]});
          }
        }
      }
      std::sort(rows.begin(), rows.end(), [](const RawRow& a, const RawRow& b) {
        if (a.events != b.events) {
          return a.events > b.events;
        }
        if (a.machine != b.machine) {
          return a.machine < b.machine;
        }
        return a.entry < b.entry;
      });
      constexpr std::size_t kMaxTrafficRows = 16;
      if (rows.size() > kMaxTrafficRows) {
        rows.resize(kMaxTrafficRows);
      }
      for (const RawRow& raw : rows) {
        const BatchCompiledMonitor& m = probe.machine(raw.machine);
        const BatchCompiledMonitor::EntryInfo info = m.DecodeEntry(raw.entry);
        FleetTrafficRow row;
        row.machine = static_cast<int>(raw.machine);
        row.state = m.machine().state_names[info.state];
        row.kind = info.kind;
        row.task = info.task;
        row.handler_class =
            kClassNames[static_cast<std::size_t>(m.EntryClass(raw.entry))];
        row.events = raw.events;
        outcome.traffic.push_back(std::move(row));
      }
    }
  }
  return outcome;
}

std::string RenderFleetJson(const FleetSpec& spec, const FleetOutcome& outcome) {
  const FleetAggregates& a = outcome.agg;
  std::string out;
  JsonWriter w(&out);
  w.BeginObject(JsonLayout::kBlock);
  w.Key("schema").String("artemis-fleet/1");
  w.Key("app").String(spec.app);
  w.Key("spec").String(spec.spec_label);
  w.Key("backend").String(MonitorBackendName(spec.backend));
  w.Key("monitor_mode").String(spec.monitor);
  w.Key("devices").Int(spec.devices);
  w.Key("seed").Int(spec.seed);
  w.Key("iterations").Int(spec.iterations);
  w.Key("horizon_us").Int(spec.horizon);
  w.Key("charges_us").BeginArray(JsonLayout::kInline);
  for (const SimDuration charge : spec.charges) {
    w.Int(charge);
  }
  w.End();
  w.Key("aggregates").BeginObject(JsonLayout::kBlock);
  w.Key("devices").Int(a.devices);
  w.Key("errors").Int(a.errors);
  w.Key("completed").Int(a.completed);
  w.Key("starved").Int(a.starved);
  w.Key("timed_out").Int(a.timed_out);
  w.Key("iterations").Int(a.iterations);
  w.Key("reboots").Int(a.reboots);
  w.Key("charging_us").Int(a.charging_us);
  w.Key("energy_nj").Int(a.energy_nj);
  w.Key("monitor_energy_nj").Int(a.monitor_energy_nj);
  w.Key("monitor_share").Fixed(Ratio(a.monitor_energy_nj, a.energy_nj), 9);
  w.Key("monitor_events").Int(a.monitor_events);
  w.Key("monitor_events_elided").Int(a.monitor_events_elided);
  w.Key("elision_rate").Fixed(Ratio(a.monitor_events_elided, a.monitor_events), 9);
  w.Key("violations").Int(a.violations);
  w.Key("violation_rate").Fixed(Ratio(a.violations, a.monitor_events), 9);
  w.Key("devices_with_violations").Int(a.devices_with_violations);
  w.Key("commits").Int(a.commits);
  w.Key("aborts").Int(a.aborts);
  w.Key("skips").Int(a.skips);
  w.End();
  w.Key("energy_uj").String(a.energy_uj_hist.Summary());
  w.Key("violations_per_device").String(a.violations_hist.Summary());
  w.Key("attempts_per_commit").String(a.attempts_hist.Summary());
  if (!outcome.handler_classes.empty()) {
    w.Key("batch").BeginObject(JsonLayout::kBlock);
    w.Key("handler_classes").BeginArray(JsonLayout::kInline);
    for (const std::uint64_t count : outcome.handler_classes) {
      w.Int(count);
    }
    w.End();
    w.Key("dead_columns").Int(outcome.dead_columns);
    w.Key("columns").Int(outcome.total_columns);
    w.End();
  }
  if (a.has_traffic) {
    w.Key("class_traffic").BeginObject(JsonLayout::kInline);
    for (std::size_t c = 0; c < a.class_traffic.size(); ++c) {
      w.Key(kClassNames[c]).Int(a.class_traffic[c]);
    }
    w.End();
    w.Key("traffic").BeginArray(JsonLayout::kBlock);
    for (const FleetTrafficRow& row : outcome.traffic) {
      w.BeginObject(JsonLayout::kInline).Key("machine").Int(row.machine);
      w.Key("state").String(row.state);
      w.Key("kind").String(row.kind < 0 ? "any" : row.kind == 0 ? "start" : "end");
      w.Key("task").Int(row.task < 0 ? -1 : row.task).Key("class").String(row.handler_class);
      w.Key("events").Int(row.events).End();
    }
    w.End();
  }
  if (a.has_obs) {
    w.Key("obs").BeginObject(JsonLayout::kBlock);
    w.Key("total_events").Int(a.obs_total);
    w.Key("completed_paths").Int(a.obs_completed_paths);
    w.Key("committed_bytes").Int(a.obs_committed_bytes);
    w.Key("counts").BeginObject(JsonLayout::kInline);
    for (int k = 0; k < obs::kNumKinds; ++k) {
      if (const std::uint64_t count = a.obs_counts[static_cast<std::size_t>(k)]; count != 0) {
        w.Key(obs::KindName(static_cast<obs::Kind>(k))).Int(count);
      }
    }
    w.End().End();
  }
  if (!a.first_error.empty()) {
    w.Key("first_error").String(a.first_error);
  }
  w.Key("ok").Bool(outcome.AllOk());
  w.End();
  out += '\n';
  return out;
}

std::string RenderFleetTable(const FleetSpec& spec, const FleetOutcome& outcome) {
  const FleetAggregates& a = outcome.agg;
  std::string out;
  out += "fleet: app=" + spec.app + " spec=" + spec.spec_label +
         " backend=" + MonitorBackendName(spec.backend) + " monitor=" + spec.monitor +
         " devices=" + std::to_string(spec.devices) + " seed=" + std::to_string(spec.seed) + "\n";
  out += "outcomes: completed=" + std::to_string(a.completed) +
         " timed_out=" + std::to_string(a.timed_out) + " starved=" + std::to_string(a.starved) +
         " errors=" + std::to_string(a.errors) + "\n";
  out += "kernel: iterations=" + std::to_string(a.iterations) +
         " reboots=" + std::to_string(a.reboots) + " commits=" + std::to_string(a.commits) +
         " aborts=" + std::to_string(a.aborts) + " skips=" + std::to_string(a.skips) + "\n";
  out += "monitor: events=" + std::to_string(a.monitor_events) +
         " elided=" + std::to_string(a.monitor_events_elided) +
         " elision_rate=" + FormatFixed(Ratio(a.monitor_events_elided, a.monitor_events), 9) +
         " violations=" + std::to_string(a.violations) +
         " violation_rate=" + FormatFixed(Ratio(a.violations, a.monitor_events), 9) +
         " devices_with_violations=" + std::to_string(a.devices_with_violations) + "\n";
  out += "energy: total_nj=" + std::to_string(a.energy_nj) +
         " monitor_nj=" + std::to_string(a.monitor_energy_nj) +
         " monitor_share=" + FormatFixed(Ratio(a.monitor_energy_nj, a.energy_nj), 9) + "\n";
  out += "energy_uj: " + a.energy_uj_hist.Summary() + "\n";
  out += "violations_per_device: " + a.violations_hist.Summary() + "\n";
  out += "attempts_per_commit: " + a.attempts_hist.Summary() + "\n";
  if (!outcome.handler_classes.empty()) {
    out += "batch: handler_classes=[";
    for (std::size_t i = 0; i < outcome.handler_classes.size(); ++i) {
      out += (i == 0 ? "" : ",") + std::to_string(outcome.handler_classes[i]);
    }
    out += "] dead_columns=" + std::to_string(outcome.dead_columns) + "/" +
           std::to_string(outcome.total_columns) + "\n";
  }
  for (const FleetTrafficRow& row : outcome.traffic) {
    out += "traffic: machine=" + std::to_string(row.machine) + " state=" + row.state +
           " kind=" + (row.kind < 0 ? "any" : row.kind == 0 ? "start" : "end") +
           " task=" + (row.task < 0 ? std::string("any") : std::to_string(row.task)) +
           " class=" + row.handler_class + " events=" + std::to_string(row.events) + "\n";
  }
  if (!a.first_error.empty()) {
    out += "first_error: " + a.first_error + "\n";
  }
  return out;
}

}  // namespace artemis::fleet
