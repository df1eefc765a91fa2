// Whole-system checks (checks 6..10 of AnalyzeMachines, see analyzer.h).
//
// Unlike the machine-local checks, these consult the AnalysisContext's
// AppGraph task costs, the default CostModel, and the deployment axes
// (charge budgets, outage cadences, commit discipline, flight-recorder
// sizing).
#ifndef SRC_ANALYSIS_SYSTEM_PASSES_H_
#define SRC_ANALYSIS_SYSTEM_PASSES_H_

#include <vector>

#include "src/analysis/analyzer.h"
#include "src/sim/cost_model.h"

namespace artemis {

// Energy of the boot-time restore work after a power failure.
EnergyUj AnalysisRebootEnergy(const CostModel& costs);

// Energy of crossing one task's start+end boundaries: kernel bookkeeping,
// event builds, monitor calls, and one builtin-backend step per machine
// that has `task` in its event scope (the cheapest backend, so the verdict
// is a lower bound and never a false infeasibility).
EnergyUj TaskBoundaryEnergy(TaskId task, const std::vector<MachineFacts>& facts,
                            const CostModel& costs);

// Total energy one execution attempt of `task` needs inside a single
// on-period that begins with a boot: restore + boundaries + task work.
// ART009's comparator: infeasible iff this exceeds the budget (closed
// comparison — an attempt that exactly fits is feasible).
EnergyUj TaskAttemptEnergy(const AppGraph& graph, TaskId task,
                           const std::vector<MachineFacts>& facts, const CostModel& costs);

// ART009: a task whose single atomic attempt (work + kernel boundary +
// monitor stepping + boot restore) exceeds every supplied budget can never
// commit; the app is guaranteed non-terminating.
void CheckTaskAttempts(const AnalysisContext& ctx, DiagnosticEngine* engine);

// ART010: an MITD/maxDuration bound that the best case cannot meet once the
// forced outages implied by the budget are packed into the
// producer->consumer window.
void CheckTimeBounds(const AnalysisContext& ctx, DiagnosticEngine* engine);

// ART011/ART012: composes each machine with the app's task positions (the
// producible event alphabet in path order, with re-execution self-loops).
// ART011: the property has fail sites but none can ever execute — dead
// weight costing FRAM bytes and cycles per event. ART012: every complete
// run of the app trips a definite violation — the spec is vacuously broken.
void CheckProductReachability(const AnalysisContext& ctx, DiagnosticEngine* engine);

// ART013, only with two-phase commit off: a transition body updates a
// monitor slot from its own prior value (write-after-read), so a power
// failure between NVM write and boundary commit replays the update on
// re-execution.
void CheckWarHazards(const AnalysisContext& ctx, DiagnosticEngine* engine);

// ART014, only with the flight recorder on: the ring is smaller than one (or
// two) worst-case record footprints, so appends are silently dropped (or
// may evict the whole sealed history).
void CheckFlightRing(const AnalysisContext& ctx, DiagnosticEngine* engine);

}  // namespace artemis

#endif  // SRC_ANALYSIS_SYSTEM_PASSES_H_
