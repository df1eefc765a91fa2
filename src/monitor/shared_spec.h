// Sharable compiled-spec artifacts: everything the property pipeline
// (parse -> validate -> lower -> bytecode-compile) produces that is
// immutable at run time, bundled so it can be built once and shared across
// arbitrarily many concurrently-running simulations. Monitor *state* (the
// current FSM state, variable slots, continuation cursors) stays per-run in
// the Monitor/MonitorSet instances built from the artifact; the AST,
// lowered machines, and bytecode programs are read-only after construction.
//
// This is the unit the sweep engine's CompiledSpecCache (src/sweep) keys by
// spec text: a cache hit hands out the same shared_ptr and performs zero
// pipeline work.
#ifndef SRC_MONITOR_SHARED_SPEC_H_
#define SRC_MONITOR_SHARED_SPEC_H_

#include <memory>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/ir/compile.h"
#include "src/ir/lowering.h"
#include "src/kernel/app_graph.h"
#include "src/monitor/monitor_set.h"
#include "src/spec/ast.h"

namespace artemis {

// How much of the pipeline an artifact must run for a given backend:
// builtin monitors (and the Mayfly baseline) are built straight from the
// AST; the interpreter needs lowered machines; the bytecode VM additionally
// needs compiled programs. Artifacts for a cheaper stage are reusable by
// anything that needs less (kCompiled artifacts serve all three backends).
enum class SpecArtifactStage { kAst, kLowered, kCompiled };

SpecArtifactStage StageForBackend(MonitorBackend backend);
const char* SpecArtifactStageName(SpecArtifactStage stage);

struct SharedSpecArtifact {
  std::string spec_text;
  SpecAst ast;
  std::vector<std::string> validation_warnings;
  SpecArtifactStage stage = SpecArtifactStage::kAst;
  // Populated for kLowered and kCompiled stages; element i lowers property
  // i of the spec in declaration order.
  std::vector<StateMachine> machines;
  // Populated for the kCompiled stage only, parallel to `machines`.
  std::vector<CompiledMachine> compiled;
};

using SharedSpecArtifactPtr = std::shared_ptr<const SharedSpecArtifact>;

// Runs the pipeline once: parse + validate, then lower / compile as `stage`
// requires. The returned artifact is immutable and safe to share across
// threads.
StatusOr<SharedSpecArtifactPtr> BuildSpecArtifact(std::string spec_text, const AppGraph& graph,
                                                  SpecArtifactStage stage);

// As above, from an already-parsed AST (skips the parse step).
StatusOr<SharedSpecArtifactPtr> BuildSpecArtifactFromAst(const SpecAst& spec,
                                                         const AppGraph& graph,
                                                         SpecArtifactStage stage);

// Builds a fresh MonitorSet (per-run mutable state) over the artifact's
// shared immutable programs. Performs no parsing, lowering, analysis, or
// compilation: interpreted/compiled monitors alias the artifact's machine
// storage via aliasing shared_ptrs, builtin monitors are instantiated from
// the AST. The artifact's stage must cover `backend` (a kAst artifact
// cannot serve kInterpreted/kCompiled).
StatusOr<std::unique_ptr<MonitorSet>> BuildMonitorSetFromArtifact(
    const SharedSpecArtifactPtr& artifact, const AppGraph& graph, MonitorBackend backend,
    const MonitorSetOptions& options = {});

}  // namespace artemis

#endif  // SRC_MONITOR_SHARED_SPEC_H_
