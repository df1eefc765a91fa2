// Flight-recorder overhead: the health app under the canonical 6-minute
// charging schedule at every recorder level (off / verdicts / full), run
// through the sweep engine. Reports the cycles and energy charged to
// CostTag::kFlight, per sealed record and as end-to-end overhead against
// the detached baseline, and checks the whole measurement is deterministic
// (two runs per level must render identical rows). Writes BENCH_flight.json;
// docs/forensics.md records a reference run.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "src/base/json.h"
#include "src/sim/mcu.h"
#include "src/sweep/sweep.h"

using namespace artemis;

namespace {

struct LevelResult {
  std::string level;
  bool completed = false;
  SimTime finished_at = 0;
  EnergyUj total_energy = 0.0;
  std::uint64_t reboots = 0;
  std::uint64_t sealed = 0;
  std::uint64_t dropped = 0;
  std::uint64_t bytes = 0;
  SimDuration flight_cycles = 0;  // 1 cycle = 1 us on the simulated MCU
  EnergyUj flight_energy = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_flight.json";
  constexpr std::size_t kRingBytes = 1024;

  StatusOr<SimDuration> charge = sweep::ParseChargeSchedule("6min");
  if (!charge.ok()) {
    std::fprintf(stderr, "flight_overhead: %s\n", charge.status().ToString().c_str());
    return 1;
  }

  std::printf("=== Flight recorder overhead (health app, 6min schedule, %zu B ring) ===\n\n",
              kRingBytes);
  std::printf("%-10s %-10s %-12s %-9s %-8s %-10s %-14s %-12s\n", "level", "finished",
              "energy_uj", "reboots", "sealed", "fl_cycles", "fl_energy_uj", "uJ/record");

  std::vector<LevelResult> results;
  bool deterministic = true;
  for (const char* level : {"off", "verdicts", "full"}) {
    sweep::SweepSpec spec;
    spec.app = "health";
    spec.charges = {charge.value()};
    spec.flight = level;
    spec.flight_bytes = kRingBytes;

    std::string first_render;
    LevelResult result;
    for (int rep = 0; rep < 2; ++rep) {
      StatusOr<sweep::SweepOutcome> outcome = sweep::RunSweep(spec, 1);
      if (!outcome.ok() || !outcome.value().AllOk()) {
        std::fprintf(stderr, "flight_overhead: sweep failed at level=%s\n", level);
        return 1;
      }
      const std::string render = sweep::RenderJson(spec, outcome.value());
      if (rep == 0) {
        first_render = render;
        const sweep::SweepRow& row = outcome.value().rows.front();
        result.level = level;
        result.completed = row.result.completed;
        result.finished_at = row.result.finished_at;
        result.total_energy = row.result.stats.TotalEnergy();
        result.reboots = row.result.stats.reboots;
        result.sealed = row.flight_sealed;
        result.dropped = row.flight_dropped;
        result.bytes = row.flight_bytes;
        result.flight_cycles =
            row.result.stats.busy_time[static_cast<int>(CostTag::kFlight)];
        result.flight_energy = row.result.stats.energy[static_cast<int>(CostTag::kFlight)];
      } else if (render != first_render) {
        deterministic = false;
      }
    }
    const double per_record =
        result.sealed == 0 ? 0.0 : result.flight_energy / static_cast<double>(result.sealed);
    std::printf("%-10s %-10llu %-12.1f %-9llu %-8llu %-10llu %-14.3f %-12.4f\n",
                result.level.c_str(), static_cast<unsigned long long>(result.finished_at),
                result.total_energy, static_cast<unsigned long long>(result.reboots),
                static_cast<unsigned long long>(result.sealed),
                static_cast<unsigned long long>(result.flight_cycles), result.flight_energy,
                per_record);
    results.push_back(result);
  }

  const LevelResult& off = results.front();
  std::printf("\nend-to-end energy overhead vs off: ");
  for (const LevelResult& r : results) {
    std::printf("%s=%+.3f%% ", r.level.c_str(),
                (r.total_energy - off.total_energy) / off.total_energy * 100.0);
  }
  std::printf("\ndeterministic across repeat runs: %s\n", deterministic ? "yes" : "NO");

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "flight_overhead: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::string json;
  JsonWriter w(&json);
  w.BeginObject(JsonLayout::kBlock).Key("bench").String("flight_overhead");
  w.Key("app").String("health").Key("schedule").String("6min").Key("ring_bytes").Int(kRingBytes);
  w.Key("deterministic").Bool(deterministic).Key("levels").BeginArray(JsonLayout::kBlock);
  for (const LevelResult& r : results) {
    const double sealed = static_cast<double>(r.sealed);
    const double off_time = static_cast<double>(off.finished_at);
    w.BeginObject(JsonLayout::kInline).Key("level").String(r.level);
    w.Key("completed").Bool(r.completed).Key("finished_at_us").Int(r.finished_at);
    w.Key("energy_uj").Fixed(r.total_energy, 3).Key("reboots").Int(r.reboots);
    w.Key("records_sealed").Int(r.sealed).Key("records_dropped").Int(r.dropped);
    w.Key("bytes_sealed").Int(r.bytes).Key("flight_cycles").Int(r.flight_cycles);
    w.Key("flight_energy_uj").Fixed(r.flight_energy, 3);
    w.Key("cycles_per_record").Fixed(r.sealed == 0 ? 0.0 : r.flight_cycles / sealed, 2);
    w.Key("energy_uj_per_record").Fixed(r.sealed == 0 ? 0.0 : r.flight_energy / sealed, 4);
    const double energy_overhead = (r.total_energy - off.total_energy) / off.total_energy;
    w.Key("energy_overhead_vs_off").Fixed(energy_overhead, 5);
    w.Key("time_overhead_vs_off").Fixed((r.finished_at - off_time) / off_time, 5).End();
  }
  w.End().End();
  out << json << '\n';
  std::printf("wrote %s\n", out_path.c_str());
  return deterministic ? 0 : 1;
}
