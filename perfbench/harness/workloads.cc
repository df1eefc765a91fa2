#include "perfbench/harness/workloads.h"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <sstream>
#include <system_error>

#include "src/apps/health_app.h"
#include "src/monitor/shared_spec.h"
#include "src/sweep/spec_cache.h"

namespace perfbench {

using artemis::Status;
using artemis::StatusOr;

const char* SizeName(Size size) {
  switch (size) {
    case Size::kFull:
      return "full";
    case Size::kTraced:
      return "traced";
    case Size::kSmoke:
      return "smoke";
  }
  return "?";
}

StatusOr<Size> ParseSize(const std::string& text) {
  for (const Size size : {Size::kFull, Size::kSmoke}) {
    if (text == SizeName(size)) {
      return size;
    }
  }
  return Status::Invalid("unknown size '" + text + "' (full|smoke)");
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"fleet-outage", "fleet-fresh", "sweep-grid"};
  return kNames;
}

namespace {

// Devices (fleets) or seeds per grid cell (sweep) for each size.
std::uint64_t Count(const std::string& workload, Size size) {
  struct Sizes {
    std::uint64_t full, traced, smoke;
  };
  static const std::map<std::string, Sizes> kSizes = {
      {"fleet-outage", {3'000, 1'000, 40}},
      {"fleet-fresh", {500'000, 100'000, 20'000}},
      {"sweep-grid", {1'000, 100, 10}},
  };
  const Sizes& s = kSizes.at(workload);
  return size == Size::kFull ? s.full : size == Size::kTraced ? s.traced : s.smoke;
}

StatusOr<std::vector<artemis::SimDuration>> Charges(const std::vector<std::string>& names) {
  std::vector<artemis::SimDuration> charges;
  for (const std::string& name : names) {
    StatusOr<artemis::SimDuration> charge = artemis::sweep::ParseChargeSchedule(name);
    if (!charge.ok()) {
      return charge.status();
    }
    charges.push_back(charge.value());
  }
  return charges;
}

}  // namespace

StatusOr<WorkloadInput> MakeInput(const std::string& workload, std::uint64_t seed, Size size) {
  const std::vector<std::string>& names = WorkloadNames();
  if (std::find(names.begin(), names.end(), workload) == names.end()) {
    return Status::Invalid("unknown workload '" + workload +
                           "' (fleet-outage|fleet-fresh|sweep-grid)");
  }
  WorkloadInput in;
  in.name = workload;
  in.size = size;
  in.variant = seed % kVariants;
  const std::uint64_t n = Count(workload, size);
  if (workload == "fleet-outage" || workload == "fleet-fresh") {
    artemis::fleet::FleetSpec& f = in.fleet;
    f.app = "health";
    f.shards = kWorkers;
    f.devices = n;
    f.seed = 1 + in.variant;
    f.budgets = {19'500.0};
    if (workload == "fleet-outage") {
      f.monitor = "scalar";
      f.iterations = 0;  // loop until the 8 h horizon
      StatusOr<std::vector<artemis::SimDuration>> charges =
          Charges({"1min", "3min", "6min", "10min"});
      if (!charges.ok()) {
        return charges.status();
      }
      f.charges = charges.value();
    } else {
      f.monitor = "batch";
      f.iterations = 1;
      f.charges = {0};
    }
    in.items = n;
    return in;
  }
  in.is_fleet = false;
  artemis::sweep::SweepSpec& s = in.sweep;
  s.app = "health";
  s.systems = {"artemis", "mayfly"};
  s.backends = {"builtin", "interpreted", "compiled"};
  StatusOr<std::vector<artemis::SimDuration>> charges =
      Charges({"continuous", "1min", "6min", "10min"});
  if (!charges.ok()) {
    return charges.status();
  }
  s.charges = charges.value();
  s.timekeepers = {"default", "rtc:0.01"};
  s.flight = "full";
  s.seeds.clear();
  const std::uint64_t base = 1 + in.variant * 1'000;
  for (std::uint64_t i = 0; i < n; ++i) {
    s.seeds.push_back(base + i);
  }
  in.items = s.systems.size() * s.backends.size() * s.charges.size() * s.timekeepers.size() *
             s.seeds.size();
  return in;
}

StatusOr<EngineOutput> RunEngine(const WorkloadInput& input) {
  EngineOutput out;
  if (input.is_fleet) {
    StatusOr<artemis::fleet::FleetOutcome> outcome = artemis::fleet::RunFleet(input.fleet);
    if (!outcome.ok()) {
      return outcome.status();
    }
    out.rendering = artemis::fleet::RenderFleetJson(input.fleet, outcome.value());
    out.item_errors = outcome.value().agg.errors;
    return out;
  }
  StatusOr<artemis::sweep::SweepOutcome> outcome =
      artemis::sweep::RunSweep(input.sweep, kWorkers);
  if (!outcome.ok()) {
    return outcome.status();
  }
  out.rendering = artemis::sweep::RenderJson(input.sweep, outcome.value());
  for (const artemis::sweep::SweepRow& row : outcome.value().rows) {
    out.item_errors += row.ok ? 0 : 1;
  }
  return out;
}

Status RunSetup(const WorkloadInput& input) {
  const std::string spec_text = artemis::HealthAppSpec();
  const artemis::AppGraph graph = artemis::sweep::BuildAppGraphByName("health");
  if (input.is_fleet) {
    const artemis::fleet::FleetSpec& f = input.fleet;
    const artemis::SpecArtifactStage stage = f.monitor == "batch"
                                                 ? artemis::SpecArtifactStage::kCompiled
                                                 : artemis::StageForBackend(f.backend);
    StatusOr<artemis::SharedSpecArtifactPtr> artifact =
        artemis::BuildSpecArtifact(spec_text, graph, stage);
    if (!artifact.ok()) {
      return artifact.status();
    }
    return artemis::sweep::PreAnalyzeSpec("fleet", f.spec_label, spec_text, graph, f.budgets,
                                          f.charges, "off", 1024);
  }
  const artemis::sweep::SweepSpec& s = input.sweep;
  artemis::CompiledSpecCache cache;
  for (const artemis::SpecArtifactStage stage :
       {artemis::SpecArtifactStage::kAst, artemis::SpecArtifactStage::kLowered,
        artemis::SpecArtifactStage::kCompiled}) {
    StatusOr<artemis::SharedSpecArtifactPtr> artifact =
        cache.Get(s.app, spec_text, graph, stage);
    if (!artifact.ok()) {
      return artifact.status();
    }
  }
  return artemis::sweep::PreAnalyzeSpec("sweep", "default", spec_text, graph, s.budgets,
                                        s.charges, s.flight, s.flight_bytes);
}

std::string DigestKey(const WorkloadInput& input) {
  return input.name + "/" + SizeName(input.size) + "/" + std::to_string(input.variant);
}

StatusOr<DigestTable> LoadDigests(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    return Status::NotFound("cannot read reference digests '" + path + "'");
  }
  DigestTable table;
  std::string line;
  while (std::getline(file, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream fields(line);
    std::string key;
    std::string hex;
    std::uint64_t digest = 0;
    if (!(fields >> key >> hex) ||
        std::from_chars(hex.data(), hex.data() + hex.size(), digest, 16).ec != std::errc()) {
      return Status::Invalid("bad digest line '" + line + "'");
    }
    table[key] = digest;
  }
  return table;
}

}  // namespace perfbench
