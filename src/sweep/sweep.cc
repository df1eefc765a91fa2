#include "src/sweep/sweep.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <initializer_list>
#include <limits>
#include <memory>
#include <optional>
#include <string_view>
#include <system_error>

#include "src/analysis/analyzer.h"
#include "src/apps/ar_app.h"
#include "src/apps/greenhouse_app.h"
#include "src/apps/health_app.h"
#include "src/base/json.h"
#include "src/base/thread_pool.h"
#include "src/base/units.h"
#include "src/core/device.h"
#include "src/flight/recorder.h"
#include "src/obs/bus.h"
#include "src/sim/timekeeper.h"
#include "src/swap/hotswap.h"
#include "src/swap/image.h"
#include "src/sweep/grid_json.h"

namespace artemis::sweep {

AppGraph BuildAppGraphByName(const std::string& app) {
  if (app == "greenhouse") {
    return std::move(BuildGreenhouseApp().graph);
  }
  if (app == "ar") {
    return std::move(BuildArApp().graph);
  }
  return std::move(BuildHealthApp().graph);
}

namespace {

Status UnknownApp(const std::string& app) {
  return Status::Invalid("unknown app '" + app + "' (health|greenhouse|ar)");
}

StatusOr<std::shared_ptr<const AppGraph>> FreezeTemplate(const std::string& app) {
  auto graph = std::make_shared<const AppGraph>(BuildAppGraphByName(app));
  if (Status valid = graph->Validate(); !valid.ok()) {
    return valid;
  }
  return graph;
}

}  // namespace

StatusOr<std::shared_ptr<const AppGraph>> AppTemplate(const std::string& app) {
  // One frozen template per app; a function-local static's first use is
  // the only build, and C++ makes it thread-safe.
  if (app == "health") {
    static const StatusOr<std::shared_ptr<const AppGraph>> health = FreezeTemplate(app);
    return health;
  }
  if (app == "greenhouse") {
    static const StatusOr<std::shared_ptr<const AppGraph>> greenhouse = FreezeTemplate(app);
    return greenhouse;
  }
  if (app == "ar") {
    static const StatusOr<std::shared_ptr<const AppGraph>> ar = FreezeTemplate(app);
    return ar;
  }
  return UnknownApp(app);
}

StatusOr<std::string> DefaultSpecForApp(const std::string& app) {
  if (app == "health") {
    return HealthAppSpec();
  }
  if (app == "greenhouse") {
    return GreenhouseSpec();
  }
  if (app == "ar") {
    return ArAppSpec();
  }
  return UnknownApp(app);
}

namespace {

StatusOr<MonitorBackend> ParseBackend(const std::string& name) {
  if (name == "builtin") {
    return MonitorBackend::kBuiltin;
  }
  if (name == "interpreted") {
    return MonitorBackend::kInterpreted;
  }
  if (name == "compiled") {
    return MonitorBackend::kCompiled;
  }
  return Status::Invalid("sweep: unknown backend '" + name +
                         "' (builtin|interpreted|compiled)");
}

StatusOr<flight::FlightLevel> ParseFlightAxis(const std::string& text) {
  flight::FlightLevel level = flight::FlightLevel::kOff;
  if (!flight::ParseFlightLevel(text, &level)) {
    return Status::Invalid("sweep: unknown flight level '" + text +
                           "' (off|verdicts|full)");
  }
  return level;
}

// A relative clock error: the whole token must be a finite number in
// [0, 1].
StatusOr<double> ParseFraction(const std::string& text, const std::string& what) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const std::from_chars_result parsed = std::from_chars(text.data(), end, value);
  if (parsed.ec != std::errc() || parsed.ptr != end || !(value >= 0.0 && value <= 1.0)) {
    return Status::Invalid("sweep: bad " + what + " '" + text + "' (a number in [0, 1])");
  }
  return value;
}

// nullptr result = "default": leave the platform's implicit ideal clock.
StatusOr<std::unique_ptr<OutageTimekeeper>> MakeTimekeeper(const std::string& text) {
  if (text == "default") {
    return std::unique_ptr<OutageTimekeeper>();
  }
  if (text == "ideal") {
    return std::unique_ptr<OutageTimekeeper>(new IdealTimekeeper());
  }
  if (text.rfind("rtc:", 0) == 0) {
    StatusOr<double> error = ParseFraction(text.substr(4), "rtc error");
    if (!error.ok()) {
      return error.status();
    }
    return std::unique_ptr<OutageTimekeeper>(new RtcTimekeeper(error.value()));
  }
  if (text.rfind("remanence:", 0) == 0) {
    const std::string rest = text.substr(10);
    const std::size_t colon = rest.find(':');
    if (colon == std::string::npos) {
      return Status::Invalid("sweep: timekeeper '" + text +
                             "' wants remanence:<max-duration>:<error>");
    }
    const std::optional<SimDuration> max = ParseDuration(rest.substr(0, colon));
    if (!max.has_value() || *max == 0) {
      return Status::Invalid("sweep: bad remanence range in '" + text + "'");
    }
    StatusOr<double> error = ParseFraction(rest.substr(colon + 1), "remanence error");
    if (!error.ok()) {
      return error.status();
    }
    return std::unique_ptr<OutageTimekeeper>(new RemanenceTimekeeper(*max, error.value()));
  }
  return Status::Invalid("sweep: unknown timekeeper '" + text +
                         "' (default|ideal|rtc:<err>|remanence:<max>:<err>)");
}

// printf into a string sized to the text, so no cell is cut short.
[[gnu::format(printf, 1, 2)]] std::string Printf(const char* format, ...) {
  std::va_list args;
  va_start(args, format);
  std::va_list measure;
  va_copy(measure, args);
  const int size = std::vsnprintf(nullptr, 0, format, measure);
  va_end(measure);
  std::string out(size > 0 ? static_cast<std::size_t>(size) : 0, '\0');
  std::vsnprintf(out.data(), out.size() + 1, format, args);
  va_end(args);
  return out;
}

std::string ChargeCell(SimDuration charge) {
  return charge == 0 ? "continuous" : FormatDuration(charge);
}

std::string OutcomeCell(const SweepRow& row) {
  if (!row.ok) {
    return "ERROR";
  }
  if (row.result.completed) {
    return FormatDuration(row.result.finished_at);
  }
  if (row.result.timed_out) {
    return "DNF (non-termination)";
  }
  if (row.result.starved) {
    return "DNF (starved)";
  }
  return "DNF";
}

std::string CsvQuote(const std::string& text) {
  if (text.find_first_of(",\"\n") == std::string::npos) {
    return text;
  }
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"') {
      out += "\"\"";
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

std::string MetricsCell(const SweepRow& row) {
  std::string out;
  for (const auto& [key, value] : row.metrics) {
    if (!out.empty()) {
      out += ';';
    }
    out += key;
    out += '=';
    out += FormatFixed(value, 6);
  }
  return out;
}

}  // namespace

bool SweepOutcome::AllOk() const {
  for (const SweepRow& row : rows) {
    if (!row.ok) {
      return false;
    }
  }
  return true;
}

StatusOr<SimDuration> ParseChargeSchedule(const std::string& text) {
  if (text == "continuous") {
    return static_cast<SimDuration>(0);
  }
  const std::optional<SimDuration> period = ParseDuration(text);
  if (!period.has_value()) {
    return Status::Invalid("bad charge schedule '" + text +
                           "' (continuous or a duration like 6min)");
  }
  if (*period <= 1 * kSecond) {
    return Status::Invalid("charge schedule '" + text +
                           "' must exceed the 1s boot margin");
  }
  return *period - 1 * kSecond;
}

namespace {

// ExpandGrid's axis order, outermost first.
enum Axis : std::size_t {
  kSpecAxis,
  kSystemAxis,
  kBackendAxis,
  kTimekeeperAxis,
  kBudgetAxis,
  kChargeAxis,
  kSeedAxis,
  kAxes
};

// A validated grid that maps a grid index to its point: the index's
// coordinate on an axis is (index / stride) % size, and the strides follow
// the axis order above. It reads the SweepSpec it was made from, which must
// outlive it.
class GridDecoder {
 public:
  // Validates the axes: the one check ExpandGrid and RunSweep share.
  static StatusOr<GridDecoder> Make(const SweepSpec& spec);

  std::size_t points() const { return points_; }
  std::size_t stride(Axis axis) const { return strides_[axis]; }
  // Grid point `index`'s coordinate on `axis`.
  std::size_t Coordinate(std::size_t index, Axis axis) const {
    return index / strides_[axis] % sizes_[axis];
  }
  // The text spec source `source` resolves to: its own, or the app's default.
  const std::string& SpecText(std::size_t source) const {
    const std::optional<std::string>& text = spec_->specs[source].text;
    return text.has_value() ? *text : default_text_;
  }
  // Overwrites `point` with grid point `index`, reusing its string buffers.
  void Decode(std::size_t index, SweepPoint* point) const;

 private:
  explicit GridDecoder(const SweepSpec& spec) : spec_(&spec) {}

  const SweepSpec* spec_;
  std::string default_text_;
  std::vector<MonitorBackend> backends_;  // parsed spec_->backends
  std::array<std::size_t, kAxes> sizes_{};
  std::array<std::size_t, kAxes> strides_{};
  std::size_t points_ = 0;
};

StatusOr<GridDecoder> GridDecoder::Make(const SweepSpec& spec) {
  GridDecoder grid(spec);
  StatusOr<std::string> default_spec = DefaultSpecForApp(spec.app);
  if (!default_spec.ok()) {
    return default_spec.status();
  }
  grid.default_text_ = std::move(default_spec).value();
  if (spec.systems.empty() || spec.specs.empty() || spec.charges.empty() ||
      spec.budgets.empty() || spec.backends.empty() || spec.timekeepers.empty() ||
      spec.seeds.empty()) {
    return Status::Invalid("sweep: every axis needs at least one value");
  }
  for (const std::string& system : spec.systems) {
    if (system != "artemis" && system != "mayfly") {
      return Status::Invalid("sweep: unknown system '" + system + "' (artemis|mayfly)");
    }
  }
  for (const EnergyUj budget : spec.budgets) {
    if (!(std::isfinite(budget) && budget > 0.0)) {
      return Status::Invalid("sweep: budget " + FormatFixed(budget, 3) +
                             " uJ is not a positive finite number");
    }
  }
  for (const std::string& name : spec.timekeepers) {
    StatusOr<std::unique_ptr<OutageTimekeeper>> probe = MakeTimekeeper(name);
    if (!probe.ok()) {
      return probe.status();
    }
  }
  if (StatusOr<flight::FlightLevel> level = ParseFlightAxis(spec.flight); !level.ok()) {
    return level.status();
  }
  for (const std::string& name : spec.backends) {
    StatusOr<MonitorBackend> backend = ParseBackend(name);
    if (!backend.ok()) {
      return backend.status();
    }
    grid.backends_.push_back(backend.value());
  }
  for (const SpecSource& source : spec.specs) {
    if (source.label.empty()) {
      return Status::Invalid("sweep: every spec source needs a label");
    }
  }
  if (spec.spec2.text.has_value()) {
    // The swap axis needs a versioned on-device image: the artemis system
    // with the compiled backend is the only pairing that has one.
    for (const std::string& system : spec.systems) {
      if (system != "artemis") {
        return Status::Invalid("sweep: spec2 (hot swap) requires system 'artemis', got '" +
                               system + "'");
      }
    }
    for (const std::string& name : spec.backends) {
      if (name != "compiled") {
        return Status::Invalid("sweep: spec2 (hot swap) requires backend 'compiled', got '" +
                               name + "'");
      }
    }
  }

  grid.sizes_ = {spec.specs.size(),       spec.systems.size(), spec.backends.size(),
                 spec.timekeepers.size(), spec.budgets.size(), spec.charges.size(),
                 spec.seeds.size()};
  std::size_t stride = 1;
  for (std::size_t axis = kAxes; axis-- > 0;) {
    grid.strides_[axis] = stride;
    if (stride > std::numeric_limits<std::size_t>::max() / grid.sizes_[axis]) {
      return Status::Invalid("sweep: the grid has more points than a size_t can count");
    }
    stride *= grid.sizes_[axis];
  }
  grid.points_ = stride;
  return grid;
}

void GridDecoder::Decode(std::size_t index, SweepPoint* point) const {
  const std::size_t source = Coordinate(index, kSpecAxis);
  const std::size_t backend = Coordinate(index, kBackendAxis);
  point->index = index;
  point->app = spec_->app;
  point->system = spec_->systems[Coordinate(index, kSystemAxis)];
  point->spec_label = spec_->specs[source].label;
  point->spec_text = SpecText(source);
  point->backend_name = spec_->backends[backend];
  point->backend = backends_[backend];
  point->timekeeper = spec_->timekeepers[Coordinate(index, kTimekeeperAxis)];
  point->budget = spec_->budgets[Coordinate(index, kBudgetAxis)];
  point->charge = spec_->charges[Coordinate(index, kChargeAxis)];
  point->seed = spec_->seeds[Coordinate(index, kSeedAxis)];
}

}  // namespace

StatusOr<std::vector<SweepPoint>> ExpandGrid(const SweepSpec& spec) {
  StatusOr<GridDecoder> grid = GridDecoder::Make(spec);
  if (!grid.ok()) {
    return grid.status();
  }
  std::vector<SweepPoint> points(grid.value().points());
  for (std::size_t index = 0; index < points.size(); ++index) {
    grid.value().Decode(index, &points[index]);
  }
  return points;
}

namespace {

// A point's row before anything runs: its coordinates only.
SweepRow PointRow(const SweepPoint& point) {
  SweepRow row;
  row.index = point.index;
  row.system = point.system;
  row.spec_label = point.spec_label;
  row.backend = point.backend_name;
  row.timekeeper = point.timekeeper;
  row.charge = point.charge;
  row.budget = point.budget;
  row.seed = point.seed;
  return row;
}

// The setup half of a point: the template lookup, the timekeeper parse and
// the point's cache requests (two with spec2), written into `recipe`. A
// failure becomes the point's error row.
Status SetUpDevice(const SweepPoint& point, const SweepSpec& spec, CompiledSpecCache& cache,
                   DeviceRecipe* recipe) {
  StatusOr<std::shared_ptr<const AppGraph>> graph = AppTemplate(point.app);
  if (!graph.ok()) {
    return graph.status();
  }
  recipe->graph = std::move(graph).value();
  recipe->charge = point.charge;
  recipe->budget = point.budget;
  StatusOr<std::unique_ptr<OutageTimekeeper>> timekeeper = MakeTimekeeper(point.timekeeper);
  if (!timekeeper.ok()) {
    return timekeeper.status();
  }
  recipe->timekeeper = std::move(timekeeper).value();

  // A non-"off" flight axis attaches a per-point recorder: the ring lives in
  // this point's NVM arena and every append is charged to this point's MCU,
  // so the footprint numbers are isolated per row.
  StatusOr<flight::FlightLevel> flight_level = ParseFlightAxis(spec.flight);
  if (!flight_level.ok()) {
    return flight_level.status();
  }
  recipe->flight = flight_level.value();
  recipe->flight_bytes = spec.flight_bytes;

  // Mayfly derives its rules from the AST, so it shares kAst-stage cache
  // entries with the builtin backend.
  const bool mayfly = point.system == "mayfly";
  StatusOr<SharedSpecArtifactPtr> artifact =
      cache.Get(point.app, point.spec_text, *recipe->graph,
                mayfly ? SpecArtifactStage::kAst : StageForBackend(point.backend));
  if (!artifact.ok()) {
    return artifact.status();
  }
  recipe->system = mayfly ? MonitorSystem::kMayfly : MonitorSystem::kArtemis;
  recipe->artifact = artifact.value();
  recipe->backend = point.backend;
  recipe->kernel.seed = point.seed;
  recipe->kernel.max_wall_time = spec.max_wall;
  recipe->kernel.record_trace = spec.record_trace;

  // Hot-swap axis: queue spec2 as the epoch-2 replacement image before the
  // first boot; the kernel delivers it at quiescence (docs/hotswap.md).
  if (spec.spec2.text.has_value()) {
    StatusOr<SharedSpecArtifactPtr> next = cache.Get(point.app, *spec.spec2.text, *recipe->graph,
                                                     SpecArtifactStage::kCompiled);
    if (!next.ok()) {
      return next.status();
    }
    recipe->swap_image = MonitorImage{{SpecHash(*spec.spec2.text), 2}, next.value()};
    recipe->swap_at = spec.swap_at;
  }
  return Status::Ok();
}

// The simulation half of a point: assembles and runs its device, then fills
// in the row's simulated fields. Returns whether the device ran.
bool SimulateDevice(const SweepPoint& point, const SweepSpec& spec, DeviceRecipe recipe,
                    SweepRow* row) {
  // Per-point bus + aggregator: attaching costs zero simulated cycles, so
  // collect_stats never perturbs the simulated results.
  obs::EventBus bus;
  std::shared_ptr<ObsStatsAggregator> aggregator;
  if (spec.collect_stats) {
    aggregator = std::make_shared<ObsStatsAggregator>();
    bus.AddSink(aggregator.get());
    recipe.observer = &bus;
  }
  DeviceRun device(std::move(recipe));
  if (!device.status().ok()) {
    row->error = device.status().ToString();
    return false;
  }
  row->result = device.Run();
  row->ok = true;
  if (device.artemis() != nullptr) {
    row->monitor_events = device.artemis()->monitors().events_processed();
    row->violations = device.artemis()->monitors().violations_reported();
  }
  if (const HotSwapController* swap = device.swap(); swap != nullptr) {
    const SwapStats& ss = swap->stats();
    row->metrics.emplace_back("swap_applied", static_cast<double>(ss.swaps_applied));
    row->metrics.emplace_back("swap_attempts", static_cast<double>(ss.attempts_started));
    row->metrics.emplace_back("swap_staged_bytes", static_cast<double>(ss.bytes_staged));
    row->metrics.emplace_back("swap_epoch", static_cast<double>(swap->installed().epoch));
  }
  row->stats = std::move(aggregator);
  if (spec.post_run) {
    spec.post_run(point, SweepRunArtifacts{device.artemis(), device.mayfly(), &device.graph()},
                  row);
  }
  if (const flight::FlightRecorder* recorder = device.flight(); recorder != nullptr) {
    const flight::FlightStats& fs = recorder->stats();
    row->flight_enabled = true;
    row->flight_sealed = fs.records_sealed;
    row->flight_dropped = fs.appends_aborted + fs.records_evicted + fs.records_dropped;
    row->flight_bytes = fs.bytes_sealed;
    const double total = row->result.stats.TotalEnergy();
    if (total > 0.0) {
      row->flight_energy_share =
          row->result.stats.energy[static_cast<int>(CostTag::kFlight)] / total;
    }
  }
  std::sort(row->metrics.begin(), row->metrics.end());
  return true;
}

// A folded member takes the simulated fields of its class's run; its
// coordinates and its setup stay its own.
void ShareRun(const SweepRow& run, SweepRow* row) {
  row->ok = run.ok;
  row->error = run.error;
  row->result = run.result;
  row->monitor_events = run.monitor_events;
  row->violations = run.violations;
  row->stats = run.stats;
  row->flight_enabled = run.flight_enabled;
  row->flight_sealed = run.flight_sealed;
  row->flight_dropped = run.flight_dropped;
  row->flight_bytes = run.flight_bytes;
  row->flight_energy_share = run.flight_energy_share;
  row->metrics = run.metrics;
}

// A device class: the points that differ only in coordinates their device
// never reads. Its members are `first` moved along each folded axis.
struct DeviceClass {
  std::size_t first = 0;  // grid index of the class's first point
  std::size_t backends = 1;
  std::size_t timekeepers = 1;
  std::size_t budgets = 1;
  std::size_t backend_stride = 0;
  std::size_t timekeeper_stride = 0;
  std::size_t budget_stride = 0;

  std::size_t Member(std::size_t backend, std::size_t timekeeper, std::size_t budget) const {
    return first + backend * backend_stride + timekeeper * timekeeper_stride +
           budget * budget_stride;
  }
};

// The device class grid point `index` leads, or nullopt when the point is
// a member of another point's class (docs/sweep.md, "Device classes"):
//  * Mayfly ignores the backend: DeviceRecipe::backend is read only for the
//    ARTEMIS system, and every Mayfly point requests the same kAst artifact.
//  * Continuous power ignores the budget: DeviceRun passes the budget only to
//    fixed-charge power.
//  * A run with no outage ignores its timekeeper: its one reader,
//    PersistentClock::NotifyOutage, runs only on the MCU's power-failure
//    path. A class folds every timekeeper, and RunClass splits it per
//    timekeeper when its first run had an outage.
// Seeds never fold (the seed reaches the kernel's Rng), and a post_run grid
// folds nothing: the hook reads each point's own device. A point leads its
// class when it sits at coordinate 0 on every axis the class folds.
std::optional<DeviceClass> ClassLedBy(std::size_t index, const GridDecoder& grid,
                                      const SweepSpec& spec) {
  DeviceClass cls;
  cls.first = index;
  cls.backend_stride = grid.stride(kBackendAxis);
  cls.timekeeper_stride = grid.stride(kTimekeeperAxis);
  cls.budget_stride = grid.stride(kBudgetAxis);
  if (!spec.post_run) {
    if (spec.systems[grid.Coordinate(index, kSystemAxis)] == "mayfly") {
      cls.backends = spec.backends.size();
    }
    cls.timekeepers = spec.timekeepers.size();
    if (spec.charges[grid.Coordinate(index, kChargeAxis)] == 0) {
      cls.budgets = spec.budgets.size();
    }
  }
  const auto leads = [&](Axis axis, std::size_t folded) {
    return folded == 1 || grid.Coordinate(index, axis) == 0;
  };
  if (leads(kBackendAxis, cls.backends) && leads(kTimekeeperAxis, cls.timekeepers) &&
      leads(kBudgetAxis, cls.budgets)) {
    return cls;
  }
  return std::nullopt;
}

// Runs one device class into its members' rows and returns how many
// devices ran. Every member does its own setup. The first run serves every
// timekeeper if it had no outage; otherwise each timekeeper runs its own
// device, still shared across the class's backends and budgets.
std::uint64_t RunClass(const DeviceClass& cls, const GridDecoder& grid, const SweepSpec& spec,
                       CompiledSpecCache& cache, std::vector<SweepRow>& rows) {
  std::uint64_t devices = 0;
  const SweepRow* first_run = nullptr;
  SweepPoint point;  // each member decoded in turn into the same buffers
  for (std::size_t timekeeper = 0; timekeeper < cls.timekeepers; ++timekeeper) {
    const bool outage_free =
        first_run != nullptr && first_run->ok && first_run->result.stats.reboots == 0;
    const SweepRow* run = outage_free ? first_run : nullptr;
    for (std::size_t backend = 0; backend < cls.backends; ++backend) {
      for (std::size_t budget = 0; budget < cls.budgets; ++budget) {
        grid.Decode(cls.Member(backend, timekeeper, budget), &point);
        SweepRow& row = rows[point.index];
        row = PointRow(point);
        DeviceRecipe recipe;
        if (const Status setup = SetUpDevice(point, spec, cache, &recipe); !setup.ok()) {
          row.error = setup.ToString();
        } else if (run != nullptr) {
          ShareRun(*run, &row);
        } else {
          devices += SimulateDevice(point, spec, std::move(recipe), &row) ? 1 : 0;
          run = &row;
          if (first_run == nullptr) {
            first_run = &row;
          }
        }
      }
    }
  }
  return devices;
}

// The analyzer's deployment axes for a grid's gate: its budgets and charges
// (the analyzer's defaults when a list is empty) and its flight sizing.
AnalysisOptions GateOptions(const std::vector<EnergyUj>& budgets,
                            const std::vector<SimDuration>& charges, const std::string& flight,
                            std::size_t flight_bytes) {
  AnalysisOptions options;
  if (!budgets.empty()) {
    options.budgets = budgets;
  }
  if (!charges.empty()) {
    options.charges = charges;
  }
  options.flight_enabled = flight != "off";
  options.flight_bytes = flight_bytes;
  return options;
}

}  // namespace

SweepRow RunSweepPoint(const SweepPoint& point, const SweepSpec& spec,
                       CompiledSpecCache& cache) {
  SweepRow row = PointRow(point);
  DeviceRecipe recipe;
  if (const Status setup = SetUpDevice(point, spec, cache, &recipe); !setup.ok()) {
    row.error = setup.ToString();
  } else {
    SimulateDevice(point, spec, std::move(recipe), &row);
  }
  return row;
}

Status PreAnalyzeSpec(const std::string& engine_name, const std::string& label,
                      const std::string& text, const AppGraph& graph,
                      const std::vector<EnergyUj>& budgets,
                      const std::vector<SimDuration>& charges,
                      const std::string& flight, std::size_t flight_bytes) {
  StatusOr<SharedSpecArtifactPtr> artifact =
      BuildSpecArtifact(text, graph, SpecArtifactStage::kLowered);
  if (!artifact.ok()) {
    // Unparseable / unlowerable specs are a per-point concern: they become
    // error rows with the frontend's message, the established contract
    // (SweepEngineTest.BadSpecBecomesErrorRowsNotProcessDeath).
    return Status::Ok();
  }
  const DiagnosticEngine engine = AnalyzeMachines(
      artifact.value()->machines, graph, GateOptions(budgets, charges, flight, flight_bytes));
  if (engine.HasErrors()) {
    return Status::Invalid(engine_name + ": static analysis of spec '" + label +
                           "' found " + std::to_string(engine.ErrorCount()) +
                           " error(s); fix the spec or pass --no-analyze\n" +
                           engine.RenderText(label));
  }
  return Status::Ok();
}

StatusOr<SweepOutcome> RunSweep(const SweepSpec& spec, int jobs, CompiledSpecCache* cache) {
  StatusOr<GridDecoder> decoder = GridDecoder::Make(spec);
  if (!decoder.ok()) {
    return decoder.status();
  }
  const GridDecoder& grid = decoder.value();

  // Analyzer gate: one serial pass over the unique specs of the grid (in
  // first-appearance order, so the failing spec is deterministic for any
  // job count), before a single point has burned simulation time. Spec is
  // the outermost axis, so the spec sources in order are the grid's first
  // appearances.
  if (spec.analyze) {
    StatusOr<std::shared_ptr<const AppGraph>> app = AppTemplate(spec.app);
    if (!app.ok()) {
      return app.status();
    }
    const AppGraph& graph = *app.value();
    std::vector<const std::string*> seen;
    for (std::size_t source = 0; source < spec.specs.size(); ++source) {
      const std::string& text = grid.SpecText(source);
      if (std::any_of(seen.begin(), seen.end(),
                      [&](const std::string* other) { return *other == text; })) {
        continue;
      }
      seen.push_back(&text);
      const Status gate =
          PreAnalyzeSpec("sweep", spec.specs[source].label, text, graph, spec.budgets,
                         spec.charges, spec.flight, spec.flight_bytes);
      if (!gate.ok()) {
        return gate;
      }
    }
    // Swap gate: the replacement spec must analyze clean on its own, and
    // every (running spec -> spec2) migration must pass ART015/ART016.
    if (spec.spec2.text.has_value()) {
      const Status gate =
          PreAnalyzeSpec("sweep", spec.spec2.label, *spec.spec2.text, graph,
                         spec.budgets, spec.charges, spec.flight, spec.flight_bytes);
      if (!gate.ok()) {
        return gate;
      }
      const AnalysisOptions options =
          GateOptions(spec.budgets, spec.charges, spec.flight, spec.flight_bytes);
      for (const std::string* text : seen) {
        StatusOr<MonitorImage> old_image = BuildMonitorImage(*text, graph, 1);
        StatusOr<MonitorImage> new_image = BuildMonitorImage(*spec.spec2.text, graph, 2);
        if (!old_image.ok() || !new_image.ok()) {
          continue;  // Unbuildable specs become per-point error rows.
        }
        const DiagnosticEngine engine =
            AnalyzeSwap(old_image.value(), new_image.value(), graph, options);
        if (engine.HasErrors()) {
          return Status::Invalid(
              "sweep: hot swap to spec '" + spec.spec2.label + "' found " +
              std::to_string(engine.ErrorCount()) +
              " error(s); fix the migrate block or pass --no-analyze\n" +
              engine.RenderText(spec.spec2.label));
        }
      }
    }
  }

  CompiledSpecCache local_cache;
  CompiledSpecCache& shared = cache != nullptr ? *cache : local_cache;
  const std::uint64_t requests0 = shared.requests();
  const std::uint64_t builds0 = shared.builds();
  const std::uint64_t parses0 = shared.parses();
  const std::uint64_t lowerings0 = shared.lowerings();
  const std::uint64_t compilations0 = shared.compilations();

  SweepOutcome outcome;
  outcome.rows.resize(grid.points());

  jobs = ClampWorkers(jobs, grid.points());
  std::atomic<std::uint64_t> devices_run{0};
  // Each worker claims the next unclaimed grid point; a point that leads a
  // device class runs it and writes each member's row into the slot owned
  // by that member's index: no two workers touch the same row, and the
  // collected table is independent of claim order.
  ParallelFor(jobs, grid.points(), [&](std::size_t index) {
    if (const std::optional<DeviceClass> cls = ClassLedBy(index, grid, spec)) {
      devices_run += RunClass(*cls, grid, spec, shared, outcome.rows);
    }
  });
  outcome.devices_run = devices_run;

  outcome.cache_requests = shared.requests() - requests0;
  outcome.cache_builds = shared.builds() - builds0;
  outcome.cache_parses = shared.parses() - parses0;
  outcome.cache_lowerings = shared.lowerings() - lowerings0;
  outcome.cache_compilations = shared.compilations() - compilations0;
  return outcome;
}

namespace {

// Upper bounds on what RenderJson writes, so it can size its string once.
// Capacity it never writes costs no resident memory, and an underestimate
// costs one reallocation, never a byte.

// `"key": ` and the `, ` before it, for each key.
constexpr std::size_t KeyBytes(std::initializer_list<std::string_view> keys) {
  std::size_t bytes = 0;
  for (const std::string_view key : keys) {
    bytes += key.size() + 6;
  }
  return bytes;
}

// A string at worst-case escaping (\u00xx per byte), with its quotes.
constexpr std::size_t StringBytes(std::string_view text) { return 6 * text.size() + 2; }

constexpr std::size_t kIntBytes = 20;  // the widest 64-bit integer, sign included

// FormatFixed(value, digits): a sign, the integer digits |value| < 2^exponent
// allows plus one for a rounding carry, the point and the decimals.
std::size_t FixedBytes(double value, int digits) {
  int exponent = 0;
  std::frexp(value, &exponent);
  const std::size_t integer =
      exponent > 0 ? static_cast<std::size_t>(exponent) * 30103 / 100000 + 2 : 1;
  return 2 + integer + static_cast<std::size_t>(digits);
}

std::size_t RowBytes(const SweepRow& row) {
  // Indentation, braces and the `,` and newline after the row; then the
  // members every row has, with their nine integers, three booleans and
  // "error" as the widest status.
  constexpr std::size_t kFrame =
      8 +
      KeyBytes({"index", "system", "spec", "backend", "timekeeper", "charge_us", "budget_uj",
                "seed", "status", "completed", "timed_out", "starved", "iterations",
                "finished_at_us", "energy_uj", "reboots", "charging_us", "monitor_events",
                "violations"}) +
      9 * kIntBytes + 3 * 5 + StringBytes("error");
  std::size_t bytes = kFrame + StringBytes(row.system) + StringBytes(row.spec_label) +
                      StringBytes(row.backend) + StringBytes(row.timekeeper) +
                      FixedBytes(row.budget, 3) + FixedBytes(row.result.stats.TotalEnergy(), 3);
  if (!row.ok) {
    bytes += KeyBytes({"error"}) + StringBytes(row.error);
  }
  if (row.stats != nullptr) {
    bytes += KeyBytes({"obs", "events", "completed_paths", "committed_bytes"}) + 2 +
             3 * kIntBytes;
  }
  if (row.flight_enabled) {
    bytes += KeyBytes({"flight", "sealed", "dropped", "bytes", "energy_share"}) + 2 +
             3 * kIntBytes + FixedBytes(row.flight_energy_share, 6);
  }
  if (!row.metrics.empty()) {
    bytes += KeyBytes({"metrics"}) + 2;
    for (const auto& [key, value] : row.metrics) {
      bytes += StringBytes(key) + 4 + FixedBytes(value, 6);
    }
  }
  return bytes;
}

}  // namespace

std::string RenderJson(const SweepSpec& spec, const SweepOutcome& outcome) {
  // The header's braces, newlines and indentation, its keys, the schema
  // string, the app and eight integers.
  std::size_t bytes =
      32 +
      KeyBytes({"schema", "app", "max_wall_us", "points", "cache", "requests", "builds", "hits",
                "parses", "lowerings", "compilations", "rows"}) +
      StringBytes("artemis-sweep/1") + StringBytes(spec.app) + 8 * kIntBytes;
  for (const SweepRow& row : outcome.rows) {
    bytes += RowBytes(row);
  }
  std::string out;
  out.reserve(bytes);
  JsonWriter w(&out);
  w.BeginObject(JsonLayout::kBlock);
  w.Key("schema").String("artemis-sweep/1");
  w.Key("app").String(spec.app);
  w.Key("max_wall_us").Int(spec.max_wall);
  w.Key("points").Int(outcome.rows.size());
  w.Key("cache").BeginObject(JsonLayout::kInline);
  w.Key("requests").Int(outcome.cache_requests).Key("builds").Int(outcome.cache_builds);
  w.Key("hits").Int(outcome.cache_requests - outcome.cache_builds);
  w.Key("parses").Int(outcome.cache_parses).Key("lowerings").Int(outcome.cache_lowerings);
  w.Key("compilations").Int(outcome.cache_compilations).End();
  w.Key("rows").BeginArray(JsonLayout::kBlock);
  for (const SweepRow& row : outcome.rows) {
    w.BeginObject(JsonLayout::kInline);
    w.Key("index").Int(row.index);
    w.Key("system").String(row.system);
    w.Key("spec").String(row.spec_label);
    w.Key("backend").String(row.backend);
    w.Key("timekeeper").String(row.timekeeper);
    w.Key("charge_us").Int(row.charge);
    w.Key("budget_uj").Fixed(row.budget, 3);
    w.Key("seed").Int(row.seed);
    w.Key("status").String(row.ok ? "ok" : "error");
    if (!row.ok) {
      w.Key("error").String(row.error);
    }
    w.Key("completed").Bool(row.result.completed);
    w.Key("timed_out").Bool(row.result.timed_out);
    w.Key("starved").Bool(row.result.starved);
    w.Key("iterations").Int(row.result.iterations_completed);
    w.Key("finished_at_us").Int(row.result.finished_at);
    w.Key("energy_uj").Fixed(row.result.stats.TotalEnergy(), 3);
    w.Key("reboots").Int(row.result.stats.reboots);
    w.Key("charging_us").Int(row.result.stats.charging_time);
    w.Key("monitor_events").Int(row.monitor_events);
    w.Key("violations").Int(row.violations);
    if (row.stats != nullptr) {
      w.Key("obs").BeginObject(JsonLayout::kInline).Key("events").Int(row.stats->total_events());
      w.Key("completed_paths").Int(row.stats->completed_paths());
      w.Key("committed_bytes").Int(row.stats->committed_bytes()).End();
    }
    if (row.flight_enabled) {
      w.Key("flight").BeginObject(JsonLayout::kInline).Key("sealed").Int(row.flight_sealed);
      w.Key("dropped").Int(row.flight_dropped).Key("bytes").Int(row.flight_bytes);
      w.Key("energy_share").Fixed(row.flight_energy_share, 6).End();
    }
    if (!row.metrics.empty()) {
      w.Key("metrics").BeginObject(JsonLayout::kInline);
      for (const auto& [key, value] : row.metrics) {
        w.Key(key).Fixed(value, 6);
      }
      w.End();
    }
    w.End();
  }
  w.End().End();
  out += '\n';
  return out;
}

std::string RenderCsv(const SweepOutcome& outcome) {
  // Flight columns appear only when the sweep ran with a recorder attached:
  // existing consumers of the base schema keep byte-identical output.
  bool any_flight = false;
  for (const SweepRow& row : outcome.rows) {
    any_flight = any_flight || row.flight_enabled;
  }
  std::string out =
      "index,system,spec,backend,timekeeper,charge_us,budget_uj,seed,status,"
      "completed,timed_out,starved,iterations,finished_at_us,energy_uj,reboots,"
      "charging_us,monitor_events,violations,error,metrics";
  if (any_flight) {
    out += ",flight_sealed,flight_dropped,flight_bytes,flight_energy_share";
  }
  out += '\n';
  for (const SweepRow& row : outcome.rows) {
    out += std::to_string(row.index);
    out += ',' + CsvQuote(row.system);
    out += ',' + CsvQuote(row.spec_label);
    out += ',' + CsvQuote(row.backend);
    out += ',' + CsvQuote(row.timekeeper);
    out += ',' + std::to_string(row.charge);
    out += ',' + FormatFixed(row.budget, 3);
    out += ',' + std::to_string(row.seed);
    out += ',' + std::string(row.ok ? "ok" : "error");
    out += ',' + std::string(row.result.completed ? "1" : "0");
    out += ',' + std::string(row.result.timed_out ? "1" : "0");
    out += ',' + std::string(row.result.starved ? "1" : "0");
    out += ',' + std::to_string(row.result.iterations_completed);
    out += ',' + std::to_string(row.result.finished_at);
    out += ',' + FormatFixed(row.result.stats.TotalEnergy(), 3);
    out += ',' + std::to_string(row.result.stats.reboots);
    out += ',' + std::to_string(row.result.stats.charging_time);
    out += ',' + std::to_string(row.monitor_events);
    out += ',' + std::to_string(row.violations);
    out += ',' + CsvQuote(row.error);
    out += ',' + CsvQuote(MetricsCell(row));
    if (any_flight) {
      out += ',' + std::to_string(row.flight_sealed);
      out += ',' + std::to_string(row.flight_dropped);
      out += ',' + std::to_string(row.flight_bytes);
      out += ',' + FormatFixed(row.flight_energy_share, 6);
    }
    out += '\n';
  }
  return out;
}

std::string RenderTable(const SweepOutcome& outcome) {
  std::string out = Printf("%5s  %-8s %-10s %-12s %-18s %-11s %-22s %12s %8s %6s\n", "index",
                           "system", "spec", "backend", "timekeeper", "charge", "outcome",
                           "energy_uj", "events", "viol");
  for (const SweepRow& row : outcome.rows) {
    out += Printf("%5zu  %-8s %-10s %-12s %-18s %-11s %-22s %12s %8llu %6llu\n", row.index,
                  row.system.c_str(), row.spec_label.c_str(), row.backend.c_str(),
                  row.timekeeper.c_str(), ChargeCell(row.charge).c_str(),
                  OutcomeCell(row).c_str(), FormatFixed(row.result.stats.TotalEnergy(), 1).c_str(),
                  static_cast<unsigned long long>(row.monitor_events),
                  static_cast<unsigned long long>(row.violations));
    if (row.flight_enabled) {
      out += Printf("       flight: %llu sealed, %llu dropped, %llu B, %s%% energy\n",
                    static_cast<unsigned long long>(row.flight_sealed),
                    static_cast<unsigned long long>(row.flight_dropped),
                    static_cast<unsigned long long>(row.flight_bytes),
                    FormatFixed(row.flight_energy_share * 100.0, 2).c_str());
    }
    if (!row.ok) {
      out += "       error: " + row.error + "\n";
    }
  }
  return out;
}

namespace {

Status TypeError(const std::string& key, const std::string& want) {
  return Status::Invalid("sweep grid: \"" + key + "\" must be " + want);
}

// JSON numbers are doubles, so integers above 2^53 are not exact: a seed
// or a byte count must be a whole number in [lo, 2^53].
std::optional<std::uint64_t> WholeNumber(const JsonValue& value, std::uint64_t lo) {
  constexpr double kMaxExact = 9007199254740992.0;  // 2^53
  if (!value.is_number()) {
    return std::nullopt;
  }
  const double number = value.number();
  if (!(number >= static_cast<double>(lo) && number <= kMaxExact) ||
      std::trunc(number) != number) {
    return std::nullopt;
  }
  return static_cast<std::uint64_t>(number);
}

StatusOr<std::vector<std::string>> StringArray(const JsonValuePtr& value,
                                               const std::string& key) {
  if (!value->is_array()) {
    return TypeError(key, "an array of strings");
  }
  std::vector<std::string> out;
  for (const JsonValuePtr& item : value->array()) {
    if (!item->is_string()) {
      return TypeError(key, "an array of strings");
    }
    out.push_back(item->string());
  }
  return out;
}

}  // namespace

StatusOr<SweepSpec> ParseGridJson(
    const std::string& text,
    const std::function<StatusOr<std::string>(const std::string&)>& read_file) {
  StatusOr<JsonValuePtr> parsed = ParseJson(text);
  if (!parsed.ok()) {
    return parsed.status();
  }
  const JsonValuePtr root = parsed.value();
  if (!root->is_object()) {
    return Status::Invalid("sweep grid: top level must be a JSON object");
  }

  SweepSpec spec;
  for (const auto& [key, value] : root->object()) {
    if (key == "app") {
      if (!value->is_string()) {
        return TypeError(key, "a string");
      }
      spec.app = value->string();
    } else if (key == "systems") {
      StatusOr<std::vector<std::string>> systems = StringArray(value, key);
      if (!systems.ok()) {
        return systems.status();
      }
      spec.systems = std::move(systems).value();
    } else if (key == "backends") {
      StatusOr<std::vector<std::string>> backends = StringArray(value, key);
      if (!backends.ok()) {
        return backends.status();
      }
      spec.backends = std::move(backends).value();
    } else if (key == "timekeepers") {
      StatusOr<std::vector<std::string>> timekeepers = StringArray(value, key);
      if (!timekeepers.ok()) {
        return timekeepers.status();
      }
      spec.timekeepers = std::move(timekeepers).value();
    } else if (key == "charges") {
      StatusOr<std::vector<std::string>> charges = StringArray(value, key);
      if (!charges.ok()) {
        return charges.status();
      }
      spec.charges.clear();
      for (const std::string& schedule : charges.value()) {
        StatusOr<SimDuration> charge = ParseChargeSchedule(schedule);
        if (!charge.ok()) {
          return charge.status();
        }
        spec.charges.push_back(charge.value());
      }
    } else if (key == "budgets") {
      if (!value->is_array()) {
        return TypeError(key, "an array of numbers (uJ)");
      }
      spec.budgets.clear();
      for (const JsonValuePtr& item : value->array()) {
        if (!item->is_number()) {
          return TypeError(key, "an array of numbers (uJ)");
        }
        spec.budgets.push_back(item->number());
      }
    } else if (key == "seeds") {
      if (!value->is_array()) {
        return TypeError(key, "an array of integers");
      }
      spec.seeds.clear();
      for (const JsonValuePtr& item : value->array()) {
        const std::optional<std::uint64_t> seed = WholeNumber(*item, 0);
        if (!seed.has_value()) {
          return TypeError(key, "an array of integers in [0, 2^53]");
        }
        spec.seeds.push_back(*seed);
      }
    } else if (key == "specs") {
      if (!value->is_array()) {
        return TypeError(key, "an array of {label, text|file} objects");
      }
      spec.specs.clear();
      for (const JsonValuePtr& item : value->array()) {
        if (!item->is_object()) {
          return TypeError(key, "an array of {label, text|file} objects");
        }
        SpecSource source;
        const JsonValuePtr label = item->Find("label");
        if (label == nullptr || !label->is_string() || label->string().empty()) {
          return Status::Invalid("sweep grid: every spec needs a non-empty \"label\"");
        }
        source.label = label->string();
        const JsonValuePtr inline_text = item->Find("text");
        const JsonValuePtr file = item->Find("file");
        if (inline_text != nullptr && file != nullptr) {
          return Status::Invalid("sweep grid: spec \"" + source.label +
                                 "\" has both \"text\" and \"file\"");
        }
        if (inline_text != nullptr) {
          if (!inline_text->is_string()) {
            return TypeError("text", "a string");
          }
          source.text = inline_text->string();
        } else if (file != nullptr) {
          if (!file->is_string()) {
            return TypeError("file", "a string");
          }
          if (read_file == nullptr) {
            return Status::Invalid("sweep grid: spec \"" + source.label +
                                   "\" references a file but file loading is disabled");
          }
          StatusOr<std::string> loaded = read_file(file->string());
          if (!loaded.ok()) {
            return loaded.status();
          }
          source.text = std::move(loaded).value();
        }
        // Neither key: the app's default spec (source.text stays absent).
        spec.specs.push_back(std::move(source));
      }
    } else if (key == "max_wall") {
      if (!value->is_string()) {
        return TypeError(key, "a duration string like \"8h\"");
      }
      const std::optional<SimDuration> wall = ParseDuration(value->string());
      if (!wall.has_value()) {
        return TypeError(key, "a duration string like \"8h\"");
      }
      spec.max_wall = *wall;
    } else if (key == "collect_stats") {
      if (!value->is_bool()) {
        return TypeError(key, "a boolean");
      }
      spec.collect_stats = value->boolean();
    } else if (key == "record_trace") {
      if (!value->is_bool()) {
        return TypeError(key, "a boolean");
      }
      spec.record_trace = value->boolean();
    } else if (key == "flight") {
      if (!value->is_string()) {
        return TypeError(key, "a string (off|verdicts|full)");
      }
      StatusOr<flight::FlightLevel> level = ParseFlightAxis(value->string());
      if (!level.ok()) {
        return level.status();
      }
      spec.flight = value->string();
    } else if (key == "flight_bytes") {
      const std::optional<std::uint64_t> bytes = WholeNumber(*value, 1);
      if (!bytes.has_value()) {
        return TypeError(key, "an integer in [1, 2^53] (ring capacity in bytes)");
      }
      spec.flight_bytes = static_cast<std::size_t>(*bytes);
    } else if (key == "spec2") {
      if (!value->is_object()) {
        return TypeError(key, "a {label?, text|file} object (the replacement spec)");
      }
      SpecSource source;
      source.label = "v2";
      const JsonValuePtr label = value->Find("label");
      if (label != nullptr) {
        if (!label->is_string() || label->string().empty()) {
          return Status::Invalid("sweep grid: \"spec2\" label must be a non-empty string");
        }
        source.label = label->string();
      }
      const JsonValuePtr inline_text = value->Find("text");
      const JsonValuePtr file = value->Find("file");
      if ((inline_text == nullptr) == (file == nullptr)) {
        return Status::Invalid(
            "sweep grid: \"spec2\" needs exactly one of \"text\" or \"file\"");
      }
      if (inline_text != nullptr) {
        if (!inline_text->is_string()) {
          return TypeError("text", "a string");
        }
        source.text = inline_text->string();
      } else {
        if (!file->is_string()) {
          return TypeError("file", "a string");
        }
        if (read_file == nullptr) {
          return Status::Invalid(
              "sweep grid: \"spec2\" references a file but file loading is disabled");
        }
        StatusOr<std::string> loaded = read_file(file->string());
        if (!loaded.ok()) {
          return loaded.status();
        }
        source.text = std::move(loaded).value();
      }
      if (source.text->empty()) {
        return Status::Invalid("sweep grid: \"spec2\" spec text must be non-empty");
      }
      spec.spec2 = std::move(source);
    } else if (key == "swap_at") {
      if (!value->is_string()) {
        return TypeError(key, "a duration string like \"10min\"");
      }
      const std::optional<SimDuration> at = ParseDuration(value->string());
      if (!at.has_value()) {
        return TypeError(key, "a duration string like \"10min\"");
      }
      spec.swap_at = *at;
    } else if (key == "analyze") {
      if (!value->is_bool()) {
        return TypeError(key, "a boolean");
      }
      spec.analyze = value->boolean();
    } else {
      return Status::Invalid("sweep grid: unknown key \"" + key + "\"");
    }
  }
  return spec;
}

}  // namespace artemis::sweep
