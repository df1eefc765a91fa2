// Static analysis over lowered FSM IR (the src/analysis tentpole).
//
// AnalyzeMachines runs a fixed list of checks over the machines produced by
// lowering, before they reach the interpreter or the C code generator. The
// list order is the report order:
//
//   1. Reachability       — states/transitions dead under the app graph's
//                           producible event alphabet (ART001, ART002).
//   2. Guard satisfiability — interval abstract interpretation proves guards
//                           always-false (ART003) or always-true and
//                           shadowing a later transition (ART004).
//   3. Determinism        — two transitions from one state fire on the same
//                           event with non-disjoint guards; the interpreter
//                           silently picks the first (ART005).
//   4. Variable liveness  — dead writes and unused variables, costed in NVM
//                           bytes and FRAM commit cycles (ART006, ART007).
//   5. Verdict conflict   — two machines can demand different corrective
//                           actions for one event and the active arbitration
//                           policy resolves the tie arbitrarily (ART008).
//
// The whole-system checks (6..10, src/analysis/system_passes.h) also fold
// the AppGraph's task costs, the default CostModel and the deployment's
// charge-budget axes through the machines:
//
//   6. Task attempts      — a task's atomic per-attempt energy vs every
//                           supplied budget (ART009).
//   7. Time bounds        — an MITD/maxDuration bound vs the best-case delay
//                           once forced outages are packed in (ART010).
//   8. Product reachability — machine x app-position product automaton:
//                           every violating verdict dead (ART011) or a
//                           violation inevitable on every complete run
//                           (ART012).
//   9. WAR hazards        — self-updates without two-phase commit (ART013).
//  10. Flight ring        — flight-recorder ring too small for a worst-case
//                           record (ART014).
//
// Facts (producibility, guard truth, reachability, variable ranges) are
// computed once per machine and shared by all checks through an
// AnalysisContext.
#ifndef SRC_ANALYSIS_ANALYZER_H_
#define SRC_ANALYSIS_ANALYZER_H_

#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "src/analysis/diagnostics.h"
#include "src/analysis/interval.h"
#include "src/base/time.h"
#include "src/ir/codegen_dot.h"
#include "src/ir/state_machine.h"
#include "src/kernel/app_graph.h"
#include "src/monitor/arbitration.h"

namespace artemis {

struct AnalysisOptions {
  // Policy assumed by the verdict-conflict pass (matches the runtime's
  // arbiter configuration).
  ArbitrationPolicy policy = ArbitrationPolicy::kSeverity;
  // --Werror: promote every warning to an error.
  bool werror = false;
  // Deployment axes for the whole-system checks. A task (or bound) that is
  // infeasible under every axis combination is an error; infeasible under
  // only some combinations is a warning.
  std::vector<EnergyUj> budgets = {19'500.0};
  // Charge (off) durations between on-periods; 0 = continuous power.
  std::vector<SimDuration> charges = {0};
  // Kernel commits monitor slots via two-phase commit (immortal mode).
  // When false, re-executed transition bodies replay WAR self-updates
  // (ART013).
  bool two_phase_commit = true;
  // Flight-recorder deployment: when enabled, the ring capacity is checked
  // against the worst-case record footprint (ART014).
  bool flight_enabled = false;
  std::size_t flight_bytes = 1024;
};

// Per-machine facts shared by the checks.
struct MachineFacts {
  // Tasks whose start/end events the machine can observe: the tasks of its
  // scoped path, or of every path when unscoped.
  std::set<TaskId> scope_tasks;
  // Per transition: can the app graph produce a matching event at all?
  std::vector<bool> producible;
  // Per transition: guard truth under the fixpoint variable ranges
  // (kTrue for missing guards).
  std::vector<TriBool> guard;
  // Per state (parallel to machine.states): reachable from the initial
  // state via producible, not-provably-false transitions.
  std::vector<bool> reachable_state;
  // Per transition: from-state reachable, event producible, guard not
  // provably false — i.e. the transition can actually fire.
  std::vector<bool> reachable_transition;
  // Variable value ranges at the abstract-interpretation fixpoint.
  IntervalEnv env;
};

MachineFacts ComputeMachineFacts(const StateMachine& machine, const AppGraph& graph);

// Everything a check may consult. References stay valid for the duration
// of AnalyzeMachines.
struct AnalysisContext {
  const std::vector<StateMachine>& machines;
  const std::vector<MachineFacts>& facts;
  const AppGraph& graph;
  const AnalysisOptions& options;
};

// A finding anchored at machine `m`: its name, property label and source
// span.
Diagnostic MakeDiagnostic(const char* code, DiagSeverity severity, const StateMachine& m);

// Computes facts, runs the checks above in order, returns the filled engine.
DiagnosticEngine AnalyzeMachines(const std::vector<StateMachine>& machines,
                                 const AppGraph& graph, const AnalysisOptions& options = {});

// Dead states (ART001) and dead transitions (ART002/ART003) as DOT shading
// for `artemisc dot`.
DotAnnotations AnnotationsFromDiagnostics(const std::vector<Diagnostic>& diagnostics);

}  // namespace artemis

#endif  // SRC_ANALYSIS_ANALYZER_H_
