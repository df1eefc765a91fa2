// Structured diagnostics for the FSM IR static analyzer (src/analysis).
//
// Every finding carries a stable ART0xx code, a severity, the machine and
// state/transition anchor it applies to, the spec source span the machine
// was lowered from, a one-line message and an optional note. Diagnostics
// render as compiler-style text lines or as a JSON array (for CI tooling),
// and the engine supports --Werror-style promotion of warnings to errors.
#ifndef SRC_ANALYSIS_DIAGNOSTICS_H_
#define SRC_ANALYSIS_DIAGNOSTICS_H_

#include <cstddef>
#include <string>
#include <vector>

#include "src/base/source_span.h"

namespace artemis {

enum class DiagSeverity : std::uint8_t { kNote, kWarning, kError };

const char* DiagSeverityName(DiagSeverity severity);

// Stable diagnostic codes. Never renumber; retire codes instead.
namespace diag {
// `artemisc check --json`: the spec failed to parse, validate or lower, or
// the swap gate could not build an image, so no pass ran.
inline constexpr char kFrontHalfFailure[] = "ART000";
inline constexpr char kUnreachableState[] = "ART001";   // reachability pass
inline constexpr char kDeadTransition[] = "ART002";     // reachability pass
inline constexpr char kUnsatisfiableGuard[] = "ART003"; // guard-sat pass
inline constexpr char kShadowingGuard[] = "ART004";     // guard-sat pass
inline constexpr char kOverlappingTransitions[] = "ART005";  // determinism pass
inline constexpr char kDeadWrite[] = "ART006";          // liveness pass
inline constexpr char kUnusedVariable[] = "ART007";     // liveness pass
inline constexpr char kVerdictConflict[] = "ART008";    // cross-machine pass
// Whole-system passes (src/analysis/system_passes.cc): these need the
// AppGraph, CostModel, and charge/budget axes from the AnalysisContext.
inline constexpr char kEnergyInfeasibleTask[] = "ART009";   // energy-feasibility
inline constexpr char kTimeBoundInfeasible[] = "ART010";    // energy-feasibility
inline constexpr char kDeadViolation[] = "ART011";          // product reachability
inline constexpr char kInevitableViolation[] = "ART012";    // product reachability
inline constexpr char kReExecutionWarHazard[] = "ART013";   // re-execution hazard
inline constexpr char kFlightRingHazard[] = "ART014";       // re-execution hazard
// Hot-swap passes (src/swap/migration.cc, src/swap/hotswap.cc): run over an
// (old image, new image, migrate block) triple before a live replacement.
inline constexpr char kMigrationMismatch[] = "ART015";      // migration planner
inline constexpr char kSwapWindowInfeasible[] = "ART016";   // swap-energy pass
}  // namespace diag

struct Diagnostic {
  std::string code;  // "ART001" ... stable across releases.
  DiagSeverity severity = DiagSeverity::kWarning;
  std::string machine;   // IR machine name, e.g. "mitd_send_accel".
  std::string property;  // human label, e.g. "MITD(send<-accel)".
  // Anchors: the state name and/or transition index the finding points at;
  // empty / -1 when the finding is machine-level.
  std::string state;
  int transition = -1;
  SourceSpan span;  // position of the originating property in the spec.
  std::string message;
  std::string note;  // optional fix hint / cost detail.
};

// One compiler-style text line (plus an indented note line when present).
std::string RenderDiagnosticText(const Diagnostic& d, const std::string& file);

// Deterministic JSON array of all diagnostics (stable key order).
std::string RenderDiagnosticsJson(const std::vector<Diagnostic>& diagnostics);

class DiagnosticEngine {
 public:
  // promote_warnings implements --Werror: every warning reported through
  // this engine is upgraded to an error.
  explicit DiagnosticEngine(bool promote_warnings = false)
      : promote_warnings_(promote_warnings) {}

  void Report(Diagnostic d);

  const std::vector<Diagnostic>& diagnostics() const { return diagnostics_; }
  std::size_t ErrorCount() const;
  std::size_t WarningCount() const;
  bool HasErrors() const { return ErrorCount() > 0; }

  // All diagnostics as text, one finding per line (notes indented below).
  std::string RenderText(const std::string& file) const;
  std::string RenderJson() const { return RenderDiagnosticsJson(diagnostics_); }

 private:
  bool promote_warnings_;
  std::vector<Diagnostic> diagnostics_;
};

}  // namespace artemis

#endif  // SRC_ANALYSIS_DIAGNOSTICS_H_
