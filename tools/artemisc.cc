// artemisc — the ARTEMIS command-line toolchain, the CLI counterpart of the
// paper's Xtext/Eclipse workbench (Figure 3).
//
// `check`, `codegen` and `dot` share one front half: parse -> validate ->
// lower -> the static analyzer (src/analysis, skipped with --no-analyze).
// `check` reports the analyzer's diagnostics, `codegen` refuses to emit on
// error-severity findings, and `dot` shades dead states/transitions.
// `simulate` executes the chosen demo app on the simulated platform; with
// --trace it writes the run's event stream as artemis-trace/1 JSONL (the
// `trace` format) and moves its summary to stderr. `profile` runs the app
// on continuous power and ranks its tasks by energy (Section 5.1). Spec
// files may use the native Figure 5 syntax or, with --mayfly-lang, the
// Mayfly-style edge-annotation frontend. `trace` runs the app under the
// observability bus (src/obs) and exports the event stream as deterministic
// JSONL, a Perfetto-loadable Chrome trace, or an aggregate report; `trace
// diff` compares two JSONL traces line by line (docs/tracing.md). `sweep`
// expands a declarative grid of independent simulations (from a grid JSON
// file and/or axis flags) and executes it on the parallel deterministic
// sweep engine (src/sweep, docs/sweep.md): output bytes are identical for
// any --jobs value. `fleet` runs N independent device twins of one app on
// the sharded fleet engine (src/fleet, docs/fleet.md) and reports
// fleet-wide aggregates; output bytes are identical for any --shards
// value. `forensics` runs the app with the on-device flight
// recorder attached (src/flight, docs/forensics.md), then decodes the
// recovered ring: `dump` exports deterministic JSONL, `timeline` stitches
// boot epochs into a human-readable reconstruction, `audit` cross-validates
// the flight log against the omniscient obs-bus capture of the same run,
// and `detect` scans for failure signatures (non-termination, restart
// without progress, silence gaps); with --spec2 the instrumented run also
// hot-swaps to the replacement image at --swap-at, so the recovered ring
// spans a swap epoch (the timeline stitches the cross-version history
// through the sealed swap record). `swap` runs the app with <spec-v1>
// installed as the epoch-1 monitor image, delivers <spec-v2> over the air as
// epoch 2 (after the ART015/ART016 swap analyzer gate), and hot-swaps it at
// a task-boundary quiescence point via the crash-consistent two-phase
// protocol (src/swap, docs/hotswap.md); `check --spec2 <file>` runs the same
// static gate without simulating.
//
// Each subcommand takes only the flags it reads. kSubcommands and kFlags at
// the bottom of this file declare every operand and flag once; parsing, the
// per-subcommand flag sets and the usage text (`artemisc` with no
// arguments) all come from them.
//
// Exit codes: 0 = clean, 1 = findings / failures, 2 = usage or I/O error.
#include <algorithm>
#include <array>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/analysis/analyzer.h"
#include "src/base/units.h"
#include "src/core/device.h"
#include "src/core/obs_stats.h"
#include "src/core/stats.h"
#include "src/flight/decoder.h"
#include "src/flight/forensics.h"
#include "src/flight/recorder.h"
#include "src/ir/codegen_c.h"
#include "src/ir/codegen_dot.h"
#include "src/ir/lowering.h"
#include "src/obs/bus.h"
#include "src/obs/jsonl_sink.h"
#include "src/obs/perfetto_sink.h"
#include "src/obs/trace_diff.h"
#include "src/spec/app_lang.h"
#include "src/spec/mayfly_frontend.h"
#include "src/spec/parser.h"
#include "src/spec/validator.h"
#include "src/swap/hotswap.h"
#include "src/fleet/fleet.h"
#include "src/sweep/sweep.h"

namespace artemis {
namespace {

// Exit codes, also part of the CLI contract for CI scripts (tools/ci.sh):
// kExitClean when no error-severity findings, kExitFindings when the spec
// has errors (parse, validation, or analyzer), kExitUsage for bad
// invocations and unreadable files.
constexpr int kExitClean = 0;
constexpr int kExitFindings = 1;
constexpr int kExitUsage = 2;

std::optional<std::string> ReadFileQuietly(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Reads an input file named on the command line; nullopt (after a message)
// when it cannot be read, which the caller reports as a usage error.
std::optional<std::string> ReadFile(const std::string& path) {
  std::optional<std::string> text = ReadFileQuietly(path);
  if (!text.has_value()) {
    std::fprintf(stderr, "artemisc: cannot read '%s'\n", path.c_str());
  }
  return text;
}

// Everything a subcommand reads from its command line. Each field is set
// by an operand or a flag declared in the tables at the bottom of the file.
struct Args {
  // Operands (and --spec / --spec2).
  std::string spec_path;
  std::string spec2_path;  // the hot-swap replacement spec (docs/hotswap.md)
  std::string grid_path;
  std::string forensics_mode;  // dump | timeline | audit | detect
  std::string diff_left;       // trace diff operands
  std::string diff_right;
  // The app and its monitors.
  std::string app = "health";
  std::string app_file;  // --app-file: app-description-language source
  std::string system = "artemis";
  MonitorBackend backend = MonitorBackend::kBuiltin;
  bool backend_set = false;  // fleet defaults to compiled unless --backend given
  bool mayfly_lang = false;
  // Deployment. Empty lists and unset optionals keep the grid file's, the
  // engine's or the subcommand's default.
  SimDuration charge = 0;
  std::string schedule = "6min";  // charge-bin name or "continuous"
  EnergyUj budget = 19'500.0;
  std::vector<SimDuration> charges;
  std::vector<EnergyUj> budgets;
  std::optional<SimDuration> swap_at;  // earliest swap delivery time
  std::optional<flight::FlightLevel> flight;
  std::size_t flight_bytes = 1024;  // flight ring capacity
  // Static analyzer.
  bool immortal = true;  // two-phase commit (--no-immortal turns it off)
  ArbitrationPolicy policy = ArbitrationPolicy::kSeverity;
  bool no_analyze = false;
  bool werror = false;
  bool json = false;  // check/swap: machine-readable diagnostics on stdout
  // Output.
  bool trace = false;
  bool stats = false;
  std::string format;    // the default depends on the subcommand
  std::string out_path;  // empty = stdout
  // sweep: comma-separated axis lists.
  std::string sweep_systems;
  std::string sweep_backends;
  std::string sweep_timekeepers;
  std::vector<std::uint64_t> seeds;
  std::optional<SimDuration> max_wall;
  int jobs = 1;
  // fleet.
  std::uint64_t fleet_devices = 1000;
  int fleet_shards = 1;
  std::uint64_t fleet_minutes = 0;     // horizon mode (0 = unset)
  std::uint64_t fleet_iterations = 0;  // fixed-pass mode (0 = unset)
  std::string fleet_monitor = "batch";
  std::uint32_t fleet_tile = 256;
  std::uint64_t fleet_seed = 1;
  // forensics detect.
  SimDuration detect_gap = 5 * kMinute;
  std::uint32_t min_attempts = 3;
};

// Writes a subcommand's rendered output to --out, or to stdout; false
// (after a message) when --out cannot be written.
bool WriteOutput(const Args& args, const std::string& rendered) {
  if (args.out_path.empty()) {
    std::fwrite(rendered.data(), 1, rendered.size(), stdout);
    return true;
  }
  std::ofstream out(args.out_path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "artemisc: cannot write '%s'\n", args.out_path.c_str());
    return false;
  }
  out << rendered;
  return true;
}

std::vector<std::string> SplitCommaList(const std::string& text) {
  std::vector<std::string> out;
  std::string current;
  for (const char c : text) {
    if (c == ',') {
      out.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  out.push_back(current);
  return out;
}

// The one parser behind every numeric flag: `text` is a comma-separated
// list (exactly one token unless `list`), and each token must be a whole,
// finite number in [lo, hi]. Otherwise it prints what `flag` wants, and the
// invocation is a usage error.
template <typename T>
bool ParseNumbers(const char* flag, const char* text, T lo, T hi, const char* wants, bool list,
                  std::vector<T>* out) {
  out->clear();
  bool ok = true;
  for (const std::string& token : SplitCommaList(text)) {
    T value{};
    const char* end = token.data() + token.size();
    const std::from_chars_result parsed = std::from_chars(token.data(), end, value);
    ok = ok && parsed.ec == std::errc() && parsed.ptr == end && value >= lo && value <= hi;
    out->push_back(value);
  }
  ok = ok && (list || out->size() == 1);
  if (!ok) {
    std::fprintf(stderr, "artemisc: %s wants %s, got '%s'\n", flag, wants, text);
  }
  return ok;
}

template <typename T, typename Out>
bool ParseNumber(const char* flag, const char* text, T lo, T hi, const char* wants, Out* out) {
  std::vector<T> values;
  if (!ParseNumbers(flag, text, lo, hi, wants, /*list=*/false, &values)) {
    return false;
  }
  *out = static_cast<Out>(values.front());
  return true;
}

// --charges: comma-separated charge schedules, through the sweep's
// charge-bin convention (sweep::ParseChargeSchedule).
bool ParseCharges(const char* text, std::vector<SimDuration>* out) {
  out->clear();
  for (const std::string& schedule : SplitCommaList(text)) {
    StatusOr<SimDuration> charge = sweep::ParseChargeSchedule(schedule);
    if (!charge.ok()) {
      std::fprintf(stderr, "artemisc: %s\n", charge.status().ToString().c_str());
      return false;
    }
    out->push_back(charge.value());
  }
  return true;
}

// An enum-valued flag: `text` must be the name of one of `values`.
template <typename E>
bool ParseNamed(const char* what, const char* text, std::initializer_list<E> values,
                const char* (*name)(E), E* out) {
  std::string names;
  for (const E value : values) {
    if (std::strcmp(text, name(value)) == 0) {
      *out = value;
      return true;
    }
    names += names.empty() ? "" : "|";
    names += name(value);
  }
  std::fprintf(stderr, "artemisc: unknown %s '%s' (%s)\n", what, text, names.c_str());
  return false;
}

struct DemoApp {
  std::shared_ptr<const AppGraph> graph;  // Never null.
  std::string default_spec;
};

std::optional<DemoApp> MakeApp(const Args& args) {
  DemoApp app;
  if (!args.app_file.empty()) {
    const std::optional<std::string> source = ReadFile(args.app_file);
    if (!source.has_value()) {
      return std::nullopt;
    }
    StatusOr<AppDescription> parsed = ParseAppDescription(*source);
    if (!parsed.ok()) {
      std::fprintf(stderr, "app-file error: %s\n", parsed.status().ToString().c_str());
      return std::nullopt;
    }
    app.graph = std::make_shared<const AppGraph>(std::move(parsed.value().graph));
    app.default_spec = "";  // Properties must come from --spec / the argument.
    return app;
  }
  StatusOr<std::shared_ptr<const AppGraph>> graph = sweep::AppTemplate(args.app);
  if (!graph.ok()) {
    std::fprintf(stderr, "artemisc: %s\n", graph.status().message().c_str());
    return std::nullopt;
  }
  app.graph = std::move(graph).value();
  app.default_spec = sweep::DefaultSpecForApp(args.app).value();
  return app;
}

StatusOr<SpecAst> ParseSpec(const Args& args, const std::string& source) {
  if (args.mayfly_lang) {
    return MayflyFrontend::Parse(source);
  }
  return SpecParser::Parse(source);
}

// Deployment axes for the whole-system analyzer passes (ART009-ART014),
// from the shared --charges/--budgets/--flight/--no-immortal flags.
// Defaults: the single --budget value, continuous power, two-phase commit
// on, flight recorder off.
AnalysisOptions AnalysisOptionsFor(const Args& args) {
  AnalysisOptions options;
  options.policy = args.policy;
  options.werror = args.werror;
  options.budgets = args.budgets.empty() ? std::vector<EnergyUj>{args.budget} : args.budgets;
  if (!args.charges.empty()) {
    options.charges = args.charges;
  }
  options.two_phase_commit = args.immortal;
  options.flight_enabled = args.flight.has_value() && *args.flight != flight::FlightLevel::kOff;
  options.flight_bytes = args.flight_bytes;
  return options;
}

// A spec through the front half that `check`, `codegen` and `dot` share.
struct FrontHalf {
  std::string source;
  DemoApp app;
  SpecAst spec;
  std::vector<StateMachine> machines;
  DiagnosticEngine engine;  // Empty with --no-analyze.
};

// Prints a failed stage's message to stderr as "<stage> error: <status>"
// and returns that line for `check --json` and `swap --json` (an ART000
// entry).
std::string StageFailure(const char* stage, const Status& status) {
  std::string line = std::string(stage) + " error: " + status.ToString();
  std::fprintf(stderr, "%s\n", line.c_str());
  return line;
}

// The `--json` entry for a stage that failed before any analyzer pass
// ran; its message is the stage's stderr line.
Diagnostic FrontHalfFailure(std::string message) {
  Diagnostic d;
  d.code = diag::kFrontHalfFailure;
  d.severity = DiagSeverity::kError;
  d.message = std::move(message);
  return d;
}

// read <spec> -> parse -> validate -> lower -> analyze (unless
// --no-analyze). The validator's warnings go to `warnings` unless it is
// null. A failing stage prints its message and leaves the exit code in
// `*exit_code`; a parse, validation or lowering failure also leaves its
// message in `*failure` when that is non-null.
std::optional<FrontHalf> RunFrontHalf(const Args& args, FILE* warnings, int* exit_code,
                                      std::string* failure = nullptr) {
  *exit_code = kExitUsage;
  std::optional<std::string> source = ReadFile(args.spec_path);
  if (!source.has_value()) {
    return std::nullopt;
  }
  auto app = MakeApp(args);
  if (!app.has_value()) {
    return std::nullopt;
  }
  *exit_code = kExitFindings;
  const auto fail = [failure](const char* stage, const Status& status) {
    std::string line = StageFailure(stage, status);
    if (failure != nullptr) {
      *failure = std::move(line);
    }
    return std::nullopt;
  };
  auto parsed = ParseSpec(args, *source);
  if (!parsed.ok()) {
    return fail("parse", parsed.status());
  }
  const ValidationResult validation = SpecValidator::Validate(parsed.value(), *app->graph);
  if (!validation.ok()) {
    return fail("validation", validation.status);
  }
  if (warnings != nullptr) {
    for (const std::string& warning : validation.warnings) {
      std::fprintf(warnings, "warning: %s\n", warning.c_str());
    }
  }
  auto machines = LowerSpec(parsed.value(), *app->graph, {});
  if (!machines.ok()) {
    return fail("lowering", machines.status());
  }
  FrontHalf front{std::move(*source), std::move(*app), std::move(parsed).value(),
                  std::move(machines).value(), DiagnosticEngine()};
  if (!args.no_analyze) {
    front.engine = AnalyzeMachines(front.machines, *front.app.graph, AnalysisOptionsFor(args));
  }
  return front;
}

int RunCheck(const Args& args) {
  // With --json, stdout carries exactly one diagnostics array and the human
  // summary moves to stderr. The array holds the analyzer's findings, then
  // the swap gate's; a stage that fails before them is an ART000 entry.
  FILE* chatter = args.json ? stderr : stdout;
  std::vector<Diagnostic> findings;
  const auto print_json = [&] {
    if (args.json) {
      std::printf("%s", RenderDiagnosticsJson(findings).c_str());
    }
  };
  int exit_code = kExitClean;
  std::string failure;
  std::optional<FrontHalf> front = RunFrontHalf(args, chatter, &exit_code, &failure);
  if (!front.has_value()) {
    if (!failure.empty()) {
      findings.push_back(FrontHalfFailure(std::move(failure)));
      print_json();
    }
    return exit_code;
  }
  std::size_t errors = 0;
  const auto report = [&](const DiagnosticEngine& engine, const std::string& file) {
    if (args.json) {
      findings.insert(findings.end(), engine.diagnostics().begin(), engine.diagnostics().end());
    } else {
      std::printf("%s", engine.RenderText(file).c_str());
    }
    errors += engine.ErrorCount();
  };
  if (!args.no_analyze) {
    const DiagnosticEngine& engine = front->engine;
    report(engine, args.spec_path);
    std::fprintf(chatter, "analyzer: %zu error(s), %zu warning(s) across %zu machine(s)\n",
                 engine.ErrorCount(), engine.WarningCount(), front->machines.size());
  }
  // --spec2: the hot-swap gate. Treats this spec as the installed epoch-1
  // image and --spec2 as the epoch-2 replacement, then runs the migration
  // planner (ART015) and swap-window feasibility pass (ART016).
  if (!args.spec2_path.empty()) {
    const std::optional<std::string> spec2 = ReadFile(args.spec2_path);
    if (!spec2.has_value()) {
      print_json();
      return kExitUsage;
    }
    const AppGraph& graph = *front->app.graph;
    StatusOr<MonitorImage> old_image = BuildMonitorImage(front->source, graph, 1);
    StatusOr<MonitorImage> new_image = BuildMonitorImage(*spec2, graph, 2);
    if (!old_image.ok() || !new_image.ok()) {
      const Status& bad = !old_image.ok() ? old_image.status() : new_image.status();
      findings.push_back(FrontHalfFailure(StageFailure("swap gate", bad)));
      print_json();
      return kExitFindings;
    }
    const DiagnosticEngine engine =
        AnalyzeSwap(old_image.value(), new_image.value(), graph, AnalysisOptionsFor(args));
    report(engine, args.spec2_path);
    std::fprintf(chatter, "swap analyzer: %zu error(s), %zu warning(s) migrating to '%s'\n",
                 engine.ErrorCount(), engine.WarningCount(), args.spec2_path.c_str());
  }
  print_json();
  std::fprintf(chatter, "%zu properties across %zu task blocks: %s\n",
               front->spec.PropertyCount(), front->spec.blocks.size(),
               errors == 0 ? "OK" : "INCONSISTENT");
  return errors == 0 ? kExitClean : kExitFindings;
}

int RunPretty(const Args& args) {
  const std::optional<std::string> source = ReadFile(args.spec_path);
  if (!source.has_value()) {
    return kExitUsage;
  }
  auto parsed = ParseSpec(args, *source);
  if (!parsed.ok()) {
    std::fprintf(stderr, "parse error: %s\n", parsed.status().ToString().c_str());
    return kExitFindings;
  }
  std::printf("%s", parsed.value().Pretty().c_str());
  return kExitClean;
}

int RunCodegen(const Args& args, bool dot) {
  int exit_code = kExitClean;
  std::optional<FrontHalf> front = RunFrontHalf(args, nullptr, &exit_code);
  if (!front.has_value()) {
    return exit_code;
  }
  // The analyzer gates code generation: diagnostics go to stderr, and
  // error-severity findings block C emission (override with --no-analyze).
  // The DOT backend still emits, shading dead states/transitions gray.
  std::fprintf(stderr, "%s", front->engine.RenderText(args.spec_path).c_str());
  const bool analyzer_errors = front->engine.HasErrors();
  if (dot) {
    const DotAnnotations annotations = AnnotationsFromDiagnostics(front->engine.diagnostics());
    std::printf("%s", MachinesToDot(front->machines, *front->app.graph, &annotations).c_str());
    return analyzer_errors ? kExitFindings : kExitClean;
  }
  if (analyzer_errors) {
    std::fprintf(stderr,
                 "artemisc: refusing to emit C code: the analyzer reported errors "
                 "(use --no-analyze to override)\n");
    return kExitFindings;
  }
  CodegenOptions options;
  options.immortal_macros = args.immortal;
  std::printf("%s",
              CCodeGenerator(options).Generate(front->machines, *front->app.graph).c_str());
  return kExitClean;
}

// Reports a device that failed to assemble: an NVM arena too small for the
// flight ring is a usage error, anything else (spec, validation, swap plan)
// a setup finding.
int SetupFailure(const Status& status, std::string* line = nullptr) {
  const bool exhausted = status.code() == StatusCode::kResourceExhausted;
  const std::string message =
      std::string(exhausted ? "artemisc: " : "setup error: ") + status.ToString();
  std::fprintf(stderr, "%s\n", message.c_str());
  if (line != nullptr) {
    *line = message;
  }
  return exhausted ? kExitUsage : kExitFindings;
}

// The spec a run-style subcommand monitors: --spec when given, else the
// app's embedded spec; nullopt (after a message) when the file is
// unreadable.
std::optional<std::string> RunSpecSource(const Args& args, const DemoApp& app) {
  if (args.spec_path.empty()) {
    return app.default_spec;
  }
  return ReadFile(args.spec_path);
}

// --schedule through the shared charge-bin convention
// (sweep::ParseChargeSchedule); nullopt (after a message) on a bad value.
std::optional<SimDuration> ScheduleCharge(const Args& args) {
  StatusOr<SimDuration> charge = sweep::ParseChargeSchedule(args.schedule);
  if (!charge.ok()) {
    std::fprintf(stderr, "artemisc: %s\n", charge.status().ToString().c_str());
    return std::nullopt;
  }
  return charge.value();
}

std::vector<std::string> TaskNames(const AppGraph& graph) {
  std::vector<std::string> names;
  for (TaskId t = 0; t < graph.task_count(); ++t) {
    names.push_back(graph.TaskName(t));
  }
  return names;
}

// The run fields of a run's artemis-trace/1 JSONL header (`trace`,
// `simulate --trace`) and of its artemis-flight/1 dump header (`forensics`,
// naming the backend the device ran); an empty `schedule` is left out.
obs::JsonlOptions TraceHeader(const Args& args, MonitorBackend backend, SimDuration charge,
                              std::string schedule, const AppGraph& graph) {
  obs::JsonlOptions options;
  options.app = args.app_file.empty() ? args.app : args.app_file;
  options.power = charge != 0 ? "fixed-charge" : "always-on";
  options.schedule = std::move(schedule);
  options.backend = MonitorBackendName(backend);
  options.task_names = TaskNames(graph);
  return options;
}

// The device every run-style subcommand simulates: the app on --budget
// microjoules per on-period with `charge` recharge time (0 = continuous
// power), monitored by `artifact` under --backend, and given up as
// non-terminating after 12 h of simulated time.
DeviceRecipe AppDevice(const DemoApp& app, const Args& args, SimDuration charge,
                       SharedSpecArtifactPtr artifact) {
  DeviceRecipe recipe;
  recipe.graph = app.graph;
  recipe.charge = charge;
  recipe.budget = args.budget;
  recipe.artifact = std::move(artifact);
  recipe.backend = args.backend;
  recipe.kernel.max_wall_time = 12 * kHour;
  return recipe;
}

// Per-task energy/time profile on continuous power — the Section 5.1
// measurement methodology ("According to our measurements, the accel task
// is the highest power-consuming among other tasks").
int RunProfile(const Args& args) {
  auto app = MakeApp(args);
  if (!app.has_value()) {
    return 2;
  }
  StatusOr<SharedSpecArtifactPtr> artifact =
      BuildSpecArtifact(app->default_spec, *app->graph, StageForBackend(args.backend));
  if (!artifact.ok()) {
    return SetupFailure(artifact.status());
  }
  DeviceRun device(AppDevice(*app, args, 0, artifact.value()));
  if (!device.status().ok()) {
    return SetupFailure(device.status());
  }
  const KernelRunResult result = device.Run();
  const std::vector<TaskProfile>& profiles = device.kernel().profiles();

  std::vector<TaskId> order;
  for (TaskId t = 0; t < device.graph().task_count(); ++t) {
    order.push_back(t);
  }
  std::sort(order.begin(), order.end(), [&profiles](TaskId a, TaskId b) {
    return profiles[a].energy > profiles[b].energy;
  });
  std::printf("%-12s %10s %8s %8s %12s %12s\n", "task", "commits", "aborts", "skips",
              "busy", "energy");
  for (const TaskId t : order) {
    const TaskProfile& p = profiles[t];
    std::printf("%-12s %10llu %8llu %8llu %12s %12s\n", device.graph().TaskName(t).c_str(),
                static_cast<unsigned long long>(p.commits),
                static_cast<unsigned long long>(p.aborts),
                static_cast<unsigned long long>(p.skips), FormatDuration(p.busy_time).c_str(),
                FormatEnergy(p.energy).c_str());
  }
  return result.completed ? 0 : 1;
}

int RunSimulate(const Args& args) {
  auto app = MakeApp(args);
  if (!app.has_value()) {
    return 2;
  }
  const std::optional<std::string> source = RunSpecSource(args, *app);
  if (!source.has_value()) {
    return 2;
  }
  StatusOr<SharedSpecArtifactPtr> artifact = Status::Internal("unset");
  if (args.system == "artemis") {
    artifact = BuildSpecArtifact(*source, *app->graph, StageForBackend(args.backend));
  } else if (args.system == "mayfly") {
    auto parsed = ParseSpec(args, *source);
    if (!parsed.ok()) {
      std::fprintf(stderr, "parse error: %s\n", parsed.status().ToString().c_str());
      return 1;
    }
    artifact = BuildSpecArtifactFromAst(parsed.value(), *app->graph, SpecArtifactStage::kAst);
  } else {
    std::fprintf(stderr, "artemisc: unknown system '%s'\n", args.system.c_str());
    return 2;
  }
  if (!artifact.ok()) {
    return SetupFailure(artifact.status());
  }
  obs::EventBus bus;
  DeviceRecipe recipe = AppDevice(*app, args, args.charge, artifact.value());
  recipe.system = args.system == "mayfly" ? MonitorSystem::kMayfly : MonitorSystem::kArtemis;
  recipe.observer = args.trace ? &bus : nullptr;
  DeviceRun device(std::move(recipe));
  if (!device.status().ok()) {
    return SetupFailure(device.status());
  }
  // --trace: the run's event stream as artemis-trace/1 JSONL on stdout (no
  // schedule in the header: --charge is not a charge bin). The summary then
  // goes to stderr, so stdout stays one JSON object per line.
  std::optional<obs::JsonlSink> jsonl;
  if (args.trace) {
    obs::JsonlOptions header =
        TraceHeader(args, args.backend, args.charge, "", device.graph());
    if (args.system == "mayfly") {
      header.backend.clear();  // Mayfly runs no monitor backend.
    }
    bus.AddSink(&jsonl.emplace(std::cout, std::move(header)));
  }
  const KernelRunResult result = device.Run();
  bus.Flush();

  FILE* summary = args.trace ? stderr : stdout;
  std::fprintf(summary, "system=%s app=%s completed=%s wall=%s reboots=%llu energy=%s\n",
               args.system.c_str(),
               (args.app_file.empty() ? args.app : args.app_file).c_str(),
               result.completed ? "yes" : (result.timed_out ? "NO(non-termination)" : "NO"),
               FormatDuration(result.finished_at).c_str(),
               static_cast<unsigned long long>(result.stats.reboots),
               FormatEnergy(result.stats.TotalEnergy()).c_str());
  std::fprintf(summary, "%s\n",
               FormatOverheadRow("overheads:", BreakdownFromStats(result.stats)).c_str());
  return result.completed ? 0 : 1;
}

// Runs the app under the observability bus and exports the event stream.
// The JSONL output is deterministic (docs/tracing.md), so two runs with the
// same arguments are byte-identical — the property `trace diff` and the
// golden-trace CI gate build on.
int RunTrace(const Args& args) {
  auto app = MakeApp(args);
  if (!app.has_value()) {
    return kExitUsage;
  }
  const std::optional<std::string> source = RunSpecSource(args, *app);
  if (!source.has_value()) {
    return kExitUsage;
  }
  const std::optional<SimDuration> charge = ScheduleCharge(args);
  if (!charge.has_value()) {
    return kExitUsage;
  }
  std::ostringstream trace_out;
  obs::EventBus bus;
  std::unique_ptr<obs::JsonlSink> jsonl;
  std::unique_ptr<obs::PerfettoSink> perfetto;
  ObsStatsAggregator stats;
  if (args.format == "jsonl") {
    jsonl = std::make_unique<obs::JsonlSink>(
        trace_out, TraceHeader(args, args.backend, *charge, args.schedule, *app->graph));
    bus.AddSink(jsonl.get());
  } else if (args.format == "perfetto") {
    perfetto = std::make_unique<obs::PerfettoSink>(trace_out, TaskNames(*app->graph));
    bus.AddSink(perfetto.get());
  } else if (args.format == "stats") {
    bus.AddSink(&stats);
  } else {
    std::fprintf(stderr, "artemisc: unknown format '%s' (jsonl|perfetto|stats)\n",
                 args.format.c_str());
    return kExitUsage;
  }

  StatusOr<SharedSpecArtifactPtr> artifact =
      BuildSpecArtifact(*source, *app->graph, StageForBackend(args.backend));
  if (!artifact.ok()) {
    return SetupFailure(artifact.status());
  }
  DeviceRecipe recipe = AppDevice(*app, args, *charge, artifact.value());
  recipe.observer = &bus;
  DeviceRun device(std::move(recipe));
  if (!device.status().ok()) {
    return SetupFailure(device.status());
  }
  const KernelRunResult result = device.Run();
  bus.Flush();
  if (args.format == "stats") {
    trace_out << stats.Render();
  }

  if (!WriteOutput(args, trace_out.str())) {
    return kExitUsage;
  }
  std::fprintf(stderr, "trace: app=%s schedule=%s format=%s completed=%s reboots=%llu\n",
               (args.app_file.empty() ? args.app : args.app_file).c_str(),
               args.schedule.c_str(), args.format.c_str(), result.completed ? "yes" : "no",
               static_cast<unsigned long long>(result.stats.reboots));
  return result.completed ? kExitClean : kExitFindings;
}

int RunTraceDiff(const Args& args) {
  const std::optional<std::string> left = ReadFile(args.diff_left);
  if (!left.has_value()) {
    return kExitUsage;
  }
  const std::optional<std::string> right = ReadFile(args.diff_right);
  if (!right.has_value()) {
    return kExitUsage;
  }
  const obs::TraceDiffResult result = obs::DiffJsonlTraces(*left, *right);
  std::printf("%s", obs::RenderTraceDiff(result, args.diff_left, args.diff_right).c_str());
  return result.identical() ? kExitClean : kExitFindings;
}

// Runs the app with the flight recorder attached, recovers the ring image,
// and analyzes it. Unlike `trace`, the recorder costs simulated cycles
// (every appended byte is charged through the cost model), so the run here
// is the instrumented run — the obs bus rides along for free and gives
// `audit` its ground truth.
int RunForensics(const Args& args) {
  auto app = MakeApp(args);
  if (!app.has_value()) {
    return kExitUsage;
  }
  const std::optional<std::string> source = RunSpecSource(args, *app);
  if (!source.has_value()) {
    return kExitUsage;
  }
  const flight::FlightLevel level = args.flight.value_or(flight::FlightLevel::kFull);
  if (level == flight::FlightLevel::kOff) {
    std::fprintf(stderr, "artemisc: forensics needs the recorder on (--flight verdicts|full)\n");
    return kExitUsage;
  }
  // --spec2: deliver a hot-swap replacement image mid-run (src/swap,
  // docs/hotswap.md) so the recovered ring spans a swap epoch: `timeline`
  // renders the stitched image-epoch line at the commit point, and `audit`
  // cross-validates records from both images against one obs-bus capture.
  std::string source2;
  if (!args.spec2_path.empty()) {
    const std::optional<std::string> file = ReadFile(args.spec2_path);
    if (!file.has_value()) {
      return kExitUsage;
    }
    source2 = *file;
  }
  const std::optional<SimDuration> charge = ScheduleCharge(args);
  if (!charge.has_value()) {
    return kExitUsage;
  }

  // The swap path needs the versioned on-device image, i.e. the compiled
  // backend; without --spec2 the user's --backend choice stands.
  const MonitorBackend backend =
      args.spec2_path.empty() ? args.backend : MonitorBackend::kCompiled;
  StatusOr<SharedSpecArtifactPtr> artifact = Status::Internal("unset");
  std::optional<MonitorImage> swap_image;
  if (args.spec2_path.empty()) {
    artifact = BuildSpecArtifact(*source, *app->graph, StageForBackend(backend));
    if (!artifact.ok()) {
      return SetupFailure(artifact.status());
    }
  } else {
    StatusOr<MonitorImage> old_image = BuildMonitorImage(*source, *app->graph, 1);
    if (!old_image.ok()) {
      std::fprintf(stderr, "spec error: %s\n", old_image.status().ToString().c_str());
      return kExitFindings;
    }
    StatusOr<MonitorImage> new_image = BuildMonitorImage(source2, *app->graph, 2);
    if (!new_image.ok()) {
      std::fprintf(stderr, "spec2 error: %s\n", new_image.status().ToString().c_str());
      return kExitFindings;
    }
    artifact = old_image.value().artifact;
    swap_image = std::move(new_image).value();
  }

  obs::EventBus bus;
  obs::CollectingSink capture;
  bus.AddSink(&capture);
  DeviceRecipe recipe = AppDevice(*app, args, *charge, artifact.value());
  recipe.backend = backend;
  recipe.observer = &bus;
  recipe.flight = level;
  recipe.flight_bytes = args.flight_bytes;
  recipe.swap_image = std::move(swap_image);
  recipe.swap_at = args.swap_at.value_or(0);
  DeviceRun device(std::move(recipe));
  if (!device.status().ok()) {
    return SetupFailure(device.status());
  }
  const KernelRunResult result = device.Run();
  bus.Flush();

  const flight::FlightRecorder& recorder = *device.flight();
  StatusOr<std::vector<flight::FlightRecord>> records = flight::DecodeRing(recorder.Image());
  if (!records.ok()) {
    std::fprintf(stderr, "artemisc: flight log corrupt: %s\n",
                 records.status().ToString().c_str());
    return kExitFindings;
  }

  flight::FlightMeta meta = flight::MetaFromRecorder(recorder);
  meta.run = TraceHeader(args, backend, *charge, args.schedule, device.graph());

  std::string rendered;
  bool clean = true;
  if (args.forensics_mode == "dump") {
    rendered = flight::RenderDumpJsonl(records.value(), meta);
  } else if (args.forensics_mode == "timeline") {
    rendered = flight::RenderTimeline(records.value(), meta);
  } else if (args.forensics_mode == "audit") {
    const flight::AuditReport report = flight::Audit(records.value(), capture.events());
    rendered = flight::RenderAudit(report, meta);
    clean = report.ok();
  } else {
    flight::DetectOptions options;
    options.min_attempts = args.min_attempts;
    options.max_gap = args.detect_gap;
    const std::vector<flight::Finding> findings = flight::Detect(records.value(), options);
    rendered = flight::RenderDetect(findings, meta);
    clean = findings.empty();
  }

  if (!WriteOutput(args, rendered)) {
    return kExitUsage;
  }
  std::fprintf(stderr,
               "forensics: app=%s schedule=%s level=%s completed=%s reboots=%llu "
               "sealed=%llu decoded=%zu\n",
               meta.run.app.c_str(), args.schedule.c_str(), flight::FlightLevelName(level),
               result.completed ? "yes" : "no",
               static_cast<unsigned long long>(result.stats.reboots),
               static_cast<unsigned long long>(recorder.stats().records_sealed),
               records.value().size());
  if (const HotSwapController* controller = device.swap(); controller != nullptr) {
    const SwapStats& swap_stats = controller->stats();
    std::fprintf(stderr, "forensics: swap epoch=%u %s attempts=%llu failed=%llu\n",
                 controller->installed().epoch,
                 swap_stats.swaps_applied > 0 ? "APPLIED" : "NOT APPLIED",
                 static_cast<unsigned long long>(swap_stats.attempts_started),
                 static_cast<unsigned long long>(swap_stats.attempts_failed));
    if (swap_stats.swaps_applied == 0) {
      clean = false;
    }
  }
  return clean ? kExitClean : kExitFindings;
}

// Over-the-air monitor replacement on the simulated device (src/swap,
// docs/hotswap.md): installs <spec-v1> as the epoch-1 monitor image, queues
// <spec-v2> as the epoch-2 replacement, and runs the app while the kernel
// delivers the swap at the first task-boundary quiescence point at or after
// --swap-at. The ART015/ART016 gate runs first and refuses un-migratable
// images unless --no-analyze.
int RunSwapCmd(const Args& args) {
  auto app = MakeApp(args);
  if (!app.has_value()) {
    return kExitUsage;
  }
  const std::optional<std::string> source1 = ReadFile(args.spec_path);
  if (!source1.has_value()) {
    return kExitUsage;
  }
  const std::optional<std::string> source2 = ReadFile(args.spec2_path);
  if (!source2.has_value()) {
    return kExitUsage;
  }
  // With --json, stdout carries exactly one diagnostics array, as for
  // `check --json`: the swap analyzer's findings (none under --no-analyze),
  // then one ART000 entry when an image fails to build or the device
  // refuses the plan. The human summary moves to stderr.
  FILE* chatter = args.json ? stderr : stdout;
  std::vector<Diagnostic> findings;
  const auto print_json = [&] {
    if (args.json) {
      std::printf("%s", RenderDiagnosticsJson(findings).c_str());
    }
  };
  StatusOr<MonitorImage> old_image = BuildMonitorImage(*source1, *app->graph, 1);
  if (!old_image.ok()) {
    findings.push_back(FrontHalfFailure(StageFailure("spec-v1", old_image.status())));
    print_json();
    return kExitFindings;
  }
  StatusOr<MonitorImage> new_image = BuildMonitorImage(*source2, *app->graph, 2);
  if (!new_image.ok()) {
    findings.push_back(FrontHalfFailure(StageFailure("spec-v2", new_image.status())));
    print_json();
    return kExitFindings;
  }

  if (!args.no_analyze) {
    const DiagnosticEngine engine =
        AnalyzeSwap(old_image.value(), new_image.value(), *app->graph, AnalysisOptionsFor(args));
    if (args.json) {
      findings = engine.diagnostics();
    } else {
      std::printf("%s", engine.RenderText(args.spec2_path).c_str());
    }
    std::fprintf(chatter, "swap analyzer: %zu error(s), %zu warning(s)\n",
                 engine.ErrorCount(), engine.WarningCount());
    if (engine.HasErrors()) {
      print_json();
      std::fprintf(stderr,
                   "artemisc: refusing to deliver the image: the swap analyzer reported "
                   "errors (use --no-analyze to override)\n");
      return kExitFindings;
    }
  }

  const std::optional<SimDuration> charge = ScheduleCharge(args);
  if (!charge.has_value()) {
    print_json();
    return kExitUsage;
  }

  const std::uint64_t old_hash = old_image.value().header.spec_hash;
  const std::uint64_t new_hash = new_image.value().header.spec_hash;
  DeviceRecipe recipe = AppDevice(*app, args, *charge, old_image.value().artifact);
  recipe.backend = MonitorBackend::kCompiled;  // The only versioned backend.
  recipe.flight = args.flight.value_or(flight::FlightLevel::kOff);
  recipe.flight_bytes = args.flight_bytes;
  recipe.swap_image = std::move(new_image).value();
  recipe.swap_at = args.swap_at.value_or(0);
  DeviceRun device(std::move(recipe));
  if (!device.status().ok()) {
    std::string line;
    const int exit_code = SetupFailure(device.status(), &line);
    findings.push_back(FrontHalfFailure(std::move(line)));
    print_json();
    return exit_code;
  }
  print_json();
  const KernelRunResult result = device.Run();

  const HotSwapController& controller = *device.swap();
  const SwapStats& stats = controller.stats();
  std::fprintf(chatter, "swap: %016llx (epoch 1) -> %016llx (epoch %u): %s\n",
               static_cast<unsigned long long>(old_hash),
               static_cast<unsigned long long>(new_hash), controller.installed().epoch,
               stats.swaps_applied > 0 ? "APPLIED" : "NOT APPLIED");
  std::fprintf(chatter,
               "swap: attempts=%llu failed=%llu staged_bytes=%llu fallback_commits=%llu\n",
               static_cast<unsigned long long>(stats.attempts_started),
               static_cast<unsigned long long>(stats.attempts_failed),
               static_cast<unsigned long long>(stats.bytes_staged),
               static_cast<unsigned long long>(stats.fallback_commits));
  std::fprintf(chatter, "app=%s completed=%s wall=%s reboots=%llu energy=%s\n",
               (args.app_file.empty() ? args.app : args.app_file).c_str(),
               result.completed ? "yes" : (result.timed_out ? "NO(non-termination)" : "NO"),
               FormatDuration(result.finished_at).c_str(),
               static_cast<unsigned long long>(result.stats.reboots),
               FormatEnergy(result.stats.TotalEnergy()).c_str());
  return result.completed && stats.swaps_applied > 0 ? kExitClean : kExitFindings;
}

int RunSweepCmd(const Args& args) {
  sweep::SweepSpec grid;
  if (!args.grid_path.empty()) {
    const std::optional<std::string> source = ReadFile(args.grid_path);
    if (!source.has_value()) {
      return kExitUsage;
    }
    StatusOr<sweep::SweepSpec> parsed =
        sweep::ParseGridJson(*source, [](const std::string& path) -> StatusOr<std::string> {
          const std::optional<std::string> text = ReadFileQuietly(path);
          if (!text.has_value()) {
            return Status::Invalid("sweep grid: cannot read spec file '" + path + "'");
          }
          return *text;
        });
    if (!parsed.ok()) {
      std::fprintf(stderr, "artemisc: %s\n", parsed.status().ToString().c_str());
      return kExitUsage;
    }
    grid = std::move(parsed).value();
  }

  // Axis flags override the grid file (and the engine defaults).
  if (args.app != "health" || args.grid_path.empty()) {
    grid.app = args.app;
  }
  if (!args.spec_path.empty()) {
    const std::optional<std::string> text = ReadFile(args.spec_path);
    if (!text.has_value()) {
      return kExitUsage;
    }
    grid.specs = {{args.spec_path, *text}};
  }
  if (!args.sweep_systems.empty()) {
    grid.systems = SplitCommaList(args.sweep_systems);
  }
  if (!args.sweep_backends.empty()) {
    grid.backends = SplitCommaList(args.sweep_backends);
  }
  if (!args.sweep_timekeepers.empty()) {
    grid.timekeepers = SplitCommaList(args.sweep_timekeepers);
  }
  if (!args.charges.empty()) {
    grid.charges = args.charges;
  }
  if (!args.budgets.empty()) {
    grid.budgets = args.budgets;
  }
  if (!args.seeds.empty()) {
    grid.seeds = args.seeds;
  }
  if (args.max_wall.has_value()) {
    grid.max_wall = *args.max_wall;
  }
  if (args.stats) {
    grid.collect_stats = true;
  }
  if (args.flight.has_value()) {
    grid.flight = flight::FlightLevelName(*args.flight);
    grid.flight_bytes = args.flight_bytes;
  }
  if (!args.spec2_path.empty()) {
    const std::optional<std::string> text = ReadFile(args.spec2_path);
    if (!text.has_value()) {
      return kExitUsage;
    }
    grid.spec2 = {args.spec2_path, *text};
  }
  if (args.swap_at.has_value()) {
    grid.swap_at = *args.swap_at;
  }
  if (args.no_analyze) {
    grid.analyze = false;
  }

  StatusOr<sweep::SweepOutcome> outcome = sweep::RunSweep(grid, args.jobs);
  if (!outcome.ok()) {
    std::fprintf(stderr, "artemisc: %s\n", outcome.status().ToString().c_str());
    return kExitUsage;
  }

  std::string rendered;
  if (args.format == "json") {
    rendered = sweep::RenderJson(grid, outcome.value());
  } else if (args.format == "csv") {
    rendered = sweep::RenderCsv(outcome.value());
  } else if (args.format == "table") {
    rendered = sweep::RenderTable(outcome.value());
  } else {
    std::fprintf(stderr, "artemisc: unknown sweep format '%s' (json|csv|table)\n",
                 args.format.c_str());
    return kExitUsage;
  }

  if (!WriteOutput(args, rendered)) {
    return kExitUsage;
  }
  // A point that failed setup is a finding, not a usage error: the sweep
  // itself executed and the row carries the diagnosis.
  return outcome.value().AllOk() ? kExitClean : kExitFindings;
}

int RunFleetCmd(const Args& args) {
  fleet::FleetSpec spec;
  spec.app = args.app;
  if (!args.spec_path.empty()) {
    const std::optional<std::string> text = ReadFile(args.spec_path);
    if (!text.has_value()) {
      return kExitUsage;
    }
    spec.spec_text = *text;
    spec.spec_label = args.spec_path;
  }
  // The fleet default backend is compiled (batch mode requires it); an
  // explicit --backend still wins for scalar-mode comparisons.
  if (args.backend_set) {
    spec.backend = args.backend;
  }
  spec.monitor = args.fleet_monitor;
  spec.devices = args.fleet_devices;
  spec.shards = args.fleet_shards;
  spec.seed = args.fleet_seed;
  spec.tile = args.fleet_tile;
  spec.collect_obs = args.stats;
  // --stats in batch mode also profiles the dispatch-entry traffic (which
  // (state, kind, task) entries the fleet's events actually hit).
  spec.collect_traffic = args.stats && spec.monitor == "batch";
  if (!args.charges.empty()) {
    spec.charges = args.charges;
  }
  if (!args.budgets.empty()) {
    spec.budgets = args.budgets;
  }
  if (args.fleet_minutes != 0) {
    // Horizon mode: every device loops its app until M simulated minutes.
    spec.iterations = 0;
    spec.horizon = args.fleet_minutes * kMinute;
  } else if (args.fleet_iterations != 0) {
    spec.iterations = args.fleet_iterations;
  }
  if (args.no_analyze) {
    spec.analyze = false;
  }

  StatusOr<fleet::FleetOutcome> outcome = fleet::RunFleet(spec);
  if (!outcome.ok()) {
    std::fprintf(stderr, "artemisc: %s\n", outcome.status().ToString().c_str());
    return kExitUsage;
  }

  std::string rendered;
  if (args.format == "json") {
    rendered = fleet::RenderFleetJson(spec, outcome.value());
  } else if (args.format == "table") {
    rendered = fleet::RenderFleetTable(spec, outcome.value());
  } else {
    std::fprintf(stderr, "artemisc: unknown fleet format '%s' (json|table)\n",
                 args.format.c_str());
    return kExitUsage;
  }

  if (!WriteOutput(args, rendered)) {
    return kExitUsage;
  }
  // A failing device is a finding, not a usage error: the fleet ran and the
  // aggregates carry the first failing device's diagnosis.
  return outcome.value().AllOk() ? kExitClean : kExitFindings;
}

// Subcommands, one bit each: a flag names the subcommands that read it.
enum SubcommandBit : std::uint32_t {
  kCheck = 1u << 0,
  kPretty = 1u << 1,
  kCodegen = 1u << 2,
  kDot = 1u << 3,
  kSimulate = 1u << 4,
  kProfile = 1u << 5,
  kTrace = 1u << 6,
  kTraceDiff = 1u << 7,
  kSweep = 1u << 8,
  kFleet = 1u << 9,
  kForensics = 1u << 10,
  kSwap = 1u << 11,
  // Groups: the subcommands that run the spec front half and analyzer,
  // those plus swap's analyzer gate, and all that build the app from
  // --app / --app-file.
  kFrontHalf = kCheck | kCodegen | kDot,
  kAnalyzers = kFrontHalf | kSwap,
  kApps = kAnalyzers | kSimulate | kProfile | kTrace | kForensics,
};

struct Subcommand {
  const char* name;
  // Operand synopsis: "<x>" is required, "[<x>]" optional (absent when the
  // next argument is a flag), and "<a|b>" must be one of the listed words.
  // Each operand is stored in the matching `slots` field.
  const char* operands;
  std::array<std::string Args::*, 2> slots;
  std::uint32_t bit;
  int (*run)(const Args&);
};

constexpr Subcommand kSubcommands[] = {
    {"check", "<spec>", {&Args::spec_path}, kCheck, RunCheck},
    {"pretty", "<spec>", {&Args::spec_path}, kPretty, RunPretty},
    {"codegen", "<spec>", {&Args::spec_path}, kCodegen,
     [](const Args& args) { return RunCodegen(args, /*dot=*/false); }},
    {"dot", "<spec>", {&Args::spec_path}, kDot,
     [](const Args& args) { return RunCodegen(args, /*dot=*/true); }},
    {"simulate", "", {}, kSimulate, RunSimulate},
    {"profile", "", {}, kProfile, RunProfile},
    {"trace", "[<spec>]", {&Args::spec_path}, kTrace, RunTrace},
    {"trace diff", "<a.jsonl> <b.jsonl>", {&Args::diff_left, &Args::diff_right}, kTraceDiff,
     RunTraceDiff},
    {"sweep", "[<grid.json>]", {&Args::grid_path}, kSweep, RunSweepCmd},
    {"fleet", "", {}, kFleet, RunFleetCmd},
    {"forensics", "<dump|timeline|audit|detect>", {&Args::forensics_mode}, kForensics,
     RunForensics},
    {"swap", "<spec-v1> <spec-v2>", {&Args::spec_path, &Args::spec2_path}, kSwap, RunSwapCmd},
};

// A flag's parser gets its name and value (nullptr for a switch) and
// prints what is wrong before returning false.
using FlagParser = bool (*)(const char* flag, const char* value, Args* args);

template <auto field>
bool SetText(const char*, const char* value, Args* args) {
  args->*field = value;
  return true;
}

template <auto field, bool on>
bool SetSwitch(const char*, const char*, Args* args) {
  args->*field = on;
  return true;
}

template <auto field, std::uint64_t max>
bool SetCount(const char* flag, const char* value, Args* args) {
  return ParseNumber<std::uint64_t>(flag, value, 1, max, "a positive integer", &(args->*field));
}

template <auto field>
bool SetDuration(const char* flag, const char* value, Args* args) {
  const std::optional<SimDuration> duration = ParseDuration(value);
  if (!duration.has_value()) {
    std::fprintf(stderr, "artemisc: %s wants a duration like 10min, got '%s'\n", flag, value);
    return false;
  }
  args->*field = *duration;
  return true;
}

constexpr std::uint64_t kMaxU64 = std::numeric_limits<std::uint64_t>::max();
constexpr std::uint64_t kMaxU32 = std::numeric_limits<std::uint32_t>::max();
constexpr std::uint64_t kMaxInt = std::numeric_limits<int>::max();
constexpr double kMinBudget = std::numeric_limits<double>::denorm_min();
constexpr double kMaxBudget = std::numeric_limits<double>::max();

struct Flag {
  const char* name;
  const char* value;  // the value's shape in the usage text; nullptr for a switch
  std::uint32_t takers;  // the subcommands that read it
  FlagParser parse;
};

// Every flag, declared once, in usage order.
constexpr Flag kFlags[] = {
    {"--app", "health|greenhouse|ar", kApps | kSweep | kFleet, SetText<&Args::app>},
    {"--app-file", "<file>", kApps, SetText<&Args::app_file>},
    {"--spec", "<file>", kSimulate | kTrace | kSweep | kFleet | kForensics,
     SetText<&Args::spec_path>},
    {"--spec2", "<file>", kCheck | kSweep | kForensics, SetText<&Args::spec2_path>},
    {"--mayfly-lang", nullptr, kFrontHalf | kPretty | kSimulate,
     SetSwitch<&Args::mayfly_lang, true>},
    {"--system", "artemis|mayfly", kSimulate, SetText<&Args::system>},
    {"--systems", "<system>,...", kSweep, SetText<&Args::sweep_systems>},
    {"--backend", "builtin|interpreted|compiled",
     kSimulate | kProfile | kTrace | kFleet | kForensics,
     [](const char*, const char* value, Args* args) {
       args->backend_set = true;
       return ParseNamed("backend", value,
                         {MonitorBackend::kBuiltin, MonitorBackend::kInterpreted,
                          MonitorBackend::kCompiled},
                         MonitorBackendName, &args->backend);
     }},
    {"--backends", "<backend>,...", kSweep, SetText<&Args::sweep_backends>},
    {"--timekeepers", "<timekeeper>,...", kSweep, SetText<&Args::sweep_timekeepers>},
    {"--monitor", "scalar|batch", kFleet, SetText<&Args::fleet_monitor>},
    {"--charge", "<duration>", kSimulate, SetDuration<&Args::charge>},
    {"--schedule", "continuous|<duration>", kTrace | kForensics | kSwap,
     SetText<&Args::schedule>},
    {"--charges", "<schedule>,...", kFrontHalf | kSweep | kFleet,
     [](const char*, const char* value, Args* args) {
       return ParseCharges(value, &args->charges);
     }},
    {"--budget", "<uJ>", kAnalyzers | kSimulate | kTrace | kForensics,
     [](const char* flag, const char* value, Args* args) {
       return ParseNumber(flag, value, kMinBudget, kMaxBudget, "a positive number of uJ",
                          &args->budget);
     }},
    {"--budgets", "<uJ>,...", kAnalyzers | kSweep | kFleet,
     [](const char* flag, const char* value, Args* args) {
       return ParseNumbers(flag, value, kMinBudget, kMaxBudget, "positive numbers of uJ",
                           /*list=*/true, &args->budgets);
     }},
    {"--seed", "S", kFleet,
     [](const char* flag, const char* value, Args* args) {
       return ParseNumber<std::uint64_t>(flag, value, 0, kMaxU64, "an unsigned integer",
                                         &args->fleet_seed);
     }},
    {"--seeds", "S,...", kSweep,
     [](const char* flag, const char* value, Args* args) {
       return ParseNumbers<std::uint64_t>(flag, value, 0, kMaxU64, "unsigned integers",
                                          /*list=*/true, &args->seeds);
     }},
    {"--swap-at", "<duration>", kSweep | kForensics | kSwap, SetDuration<&Args::swap_at>},
    {"--flight", "off|verdicts|full", kAnalyzers | kSweep | kForensics,
     [](const char* flag, const char* value, Args* args) {
       flight::FlightLevel level = flight::FlightLevel::kOff;
       if (!flight::ParseFlightLevel(value, &level)) {
         std::fprintf(stderr, "artemisc: bad %s '%s' (off|verdicts|full)\n", flag, value);
         return false;
       }
       args->flight = level;
       return true;
     }},
    {"--flight-bytes", "N", kAnalyzers | kSweep | kForensics,
     SetCount<&Args::flight_bytes, std::numeric_limits<std::size_t>::max()>},
    {"--no-immortal", nullptr, kFrontHalf, SetSwitch<&Args::immortal, false>},
    {"--policy", "severity|first-wins|last-wins", kFrontHalf,
     [](const char*, const char* value, Args* args) {
       return ParseNamed("policy", value,
                         {ArbitrationPolicy::kSeverity, ArbitrationPolicy::kFirstWins,
                          ArbitrationPolicy::kLastWins},
                         ArbitrationPolicyName, &args->policy);
     }},
    {"--no-analyze", nullptr, kAnalyzers | kSweep | kFleet, SetSwitch<&Args::no_analyze, true>},
    {"--Werror", nullptr, kAnalyzers, SetSwitch<&Args::werror, true>},
    {"--json", nullptr, kCheck | kSwap, SetSwitch<&Args::json, true>},
    {"--trace", nullptr, kSimulate, SetSwitch<&Args::trace, true>},
    {"--devices", "N", kFleet, SetCount<&Args::fleet_devices, kMaxU64>},
    {"--shards", "N", kFleet, SetCount<&Args::fleet_shards, kMaxInt>},
    {"--tile", "N", kFleet, SetCount<&Args::fleet_tile, kMaxU32>},
    {"--minutes", "M", kFleet, SetCount<&Args::fleet_minutes, kMaxU64 / kMinute>},
    {"--iterations", "K", kFleet, SetCount<&Args::fleet_iterations, kMaxU64>},
    {"--jobs", "N", kSweep, SetCount<&Args::jobs, kMaxInt>},
    {"--max-wall", "<duration>", kSweep, SetDuration<&Args::max_wall>},
    {"--gap", "<duration>", kForensics, SetDuration<&Args::detect_gap>},
    {"--min-attempts", "N", kForensics, SetCount<&Args::min_attempts, kMaxU32>},
    {"--stats", nullptr, kSweep | kFleet, SetSwitch<&Args::stats, true>},
    {"--format", "<format>", kTrace | kSweep | kFleet, SetText<&Args::format>},
    {"--out", "<file>", kTrace | kSweep | kFleet | kForensics, SetText<&Args::out_path>},
};

// The usage text, generated from the two tables: one entry per subcommand
// with its operands and every flag it takes.
int Usage() {
  constexpr std::size_t kIndent = 12;
  constexpr std::size_t kWidth = 80;
  std::string text = "usage: artemisc <subcommand> [operands] [flags]\n";
  for (const Subcommand& sub : kSubcommands) {
    std::vector<std::string> items;
    if (*sub.operands != '\0') {
      items.emplace_back(sub.operands);
    }
    for (const Flag& flag : kFlags) {
      if ((flag.takers & sub.bit) != 0) {
        const char* value = flag.value != nullptr ? flag.value : "";
        items.push_back(std::string("[") + flag.name + (*value != '\0' ? " " : "") + value + "]");
      }
    }
    std::string line = "  " + std::string(sub.name);
    line.resize(kIndent, ' ');
    for (const std::string& item : items) {
      if (line.size() > kIndent && line.size() + 1 + item.size() > kWidth) {
        text += line + "\n";
        line.assign(kIndent, ' ');
      }
      line += " " + item;
    }
    text += line + "\n";
  }
  text += "exit codes: 0 = clean, 1 = findings or failures, 2 = usage/IO error\n";
  std::fputs(text.c_str(), stderr);
  return kExitUsage;
}

// Parses `artemisc <subcommand> [operands] [flags]` into `args`. Returns
// the subcommand, or nullptr (after a message, if any) when the invocation
// is malformed.
const Subcommand* ParseArgs(int argc, char** argv, Args* args) {
  if (argc < 2) {
    return nullptr;
  }
  std::string name = argv[1];
  int i = 2;
  if (name == "trace" && i < argc && std::strcmp(argv[i], "diff") == 0) {
    name += " diff";
    ++i;
  }
  const Subcommand* sub = nullptr;
  for (const Subcommand& candidate : kSubcommands) {
    if (name == candidate.name) {
      sub = &candidate;
    }
  }
  if (sub == nullptr) {
    std::fprintf(stderr, "artemisc: unknown subcommand '%s'\n", name.c_str());
    return nullptr;
  }
  std::istringstream synopsis(sub->operands);
  std::string operand;
  for (std::string Args::*slot : sub->slots) {
    if (!(synopsis >> operand)) {
      break;
    }
    if (i >= argc || argv[i][0] == '-') {
      if (operand[0] == '[') {
        continue;
      }
      std::fprintf(stderr, "artemisc: %s wants %s\n", sub->name, operand.c_str());
      return nullptr;
    }
    std::string words = operand;  // "<a|b>" -> "|a|b|"
    words.front() = words.back() = '|';
    if (operand.find('|') != std::string::npos &&
        words.find(std::string("|") + argv[i] + "|") == std::string::npos) {
      std::fprintf(stderr, "artemisc: %s wants %s, got '%s'\n", sub->name, operand.c_str(),
                   argv[i]);
      return nullptr;
    }
    args->*slot = argv[i++];
  }
  args->format = sub->bit == kTrace ? "jsonl" : "table";
  for (; i < argc; ++i) {
    const Flag* flag = nullptr;
    for (const Flag& candidate : kFlags) {
      if ((candidate.takers & sub->bit) != 0 && std::strcmp(argv[i], candidate.name) == 0) {
        flag = &candidate;
      }
    }
    if (flag == nullptr) {
      std::fprintf(stderr, "artemisc: %s does not take '%s'\n", sub->name, argv[i]);
      return nullptr;
    }
    const char* value = nullptr;
    if (flag->value != nullptr) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "artemisc: %s wants %s\n", flag->name, flag->value);
        return nullptr;
      }
      value = argv[++i];
    }
    if (!flag->parse(flag->name, value, args)) {
      return nullptr;
    }
  }
  return sub;
}

int Main(int argc, char** argv) {
  Args args;
  const Subcommand* sub = ParseArgs(argc, argv, &args);
  return sub == nullptr ? Usage() : sub->run(args);
}

}  // namespace
}  // namespace artemis

int main(int argc, char** argv) { return artemis::Main(argc, argv); }
