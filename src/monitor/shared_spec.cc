#include "src/monitor/shared_spec.h"

#include <utility>

#include "src/monitor/builtin.h"
#include "src/monitor/compiled.h"
#include "src/monitor/interp.h"
#include "src/spec/parser.h"
#include "src/spec/validator.h"

namespace artemis {

SpecArtifactStage StageForBackend(MonitorBackend backend) {
  switch (backend) {
    case MonitorBackend::kBuiltin:
      return SpecArtifactStage::kAst;
    case MonitorBackend::kInterpreted:
      return SpecArtifactStage::kLowered;
    case MonitorBackend::kCompiled:
      return SpecArtifactStage::kCompiled;
  }
  return SpecArtifactStage::kAst;
}

const char* SpecArtifactStageName(SpecArtifactStage stage) {
  switch (stage) {
    case SpecArtifactStage::kAst:
      return "ast";
    case SpecArtifactStage::kLowered:
      return "lowered";
    case SpecArtifactStage::kCompiled:
      return "compiled";
  }
  return "?";
}

namespace {

StatusOr<SharedSpecArtifactPtr> Finish(std::string spec_text, SpecAst ast,
                                       const AppGraph& graph, SpecArtifactStage stage) {
  auto artifact = std::make_shared<SharedSpecArtifact>();
  artifact->spec_text = std::move(spec_text);
  artifact->ast = std::move(ast);
  artifact->stage = stage;
  ValidationResult validation = SpecValidator::Validate(artifact->ast, graph);
  if (!validation.ok()) {
    return validation.status;
  }
  artifact->validation_warnings = std::move(validation.warnings);
  if (stage != SpecArtifactStage::kAst) {
    StatusOr<std::vector<StateMachine>> machines = LowerSpec(artifact->ast, graph);
    if (!machines.ok()) {
      return machines.status();
    }
    artifact->machines = std::move(machines).value();
    if (stage == SpecArtifactStage::kCompiled) {
      artifact->compiled.reserve(artifact->machines.size());
      for (const StateMachine& machine : artifact->machines) {
        StatusOr<CompiledMachine> compiled = CompileStateMachine(machine);
        if (!compiled.ok()) {
          return compiled.status();
        }
        artifact->compiled.push_back(std::move(compiled).value());
      }
    }
  }
  return SharedSpecArtifactPtr(std::move(artifact));
}

}  // namespace

StatusOr<SharedSpecArtifactPtr> BuildSpecArtifact(std::string spec_text, const AppGraph& graph,
                                                  SpecArtifactStage stage) {
  StatusOr<SpecAst> parsed = SpecParser::Parse(spec_text);
  if (!parsed.ok()) {
    return parsed.status();
  }
  return Finish(std::move(spec_text), std::move(parsed).value(), graph, stage);
}

StatusOr<SharedSpecArtifactPtr> BuildSpecArtifactFromAst(const SpecAst& spec,
                                                         const AppGraph& graph,
                                                         SpecArtifactStage stage) {
  return Finish("", spec, graph, stage);
}

StatusOr<std::unique_ptr<MonitorSet>> BuildMonitorSetFromArtifact(
    const SharedSpecArtifactPtr& artifact, const AppGraph& graph, MonitorBackend backend,
    MonitorPlacement placement) {
  if (artifact == nullptr) {
    return Status::Invalid("null spec artifact");
  }
  const SpecArtifactStage needed = StageForBackend(backend);
  if (static_cast<int>(artifact->stage) < static_cast<int>(needed)) {
    return Status::FailedPrecondition(
        std::string("spec artifact stage '") + SpecArtifactStageName(artifact->stage) +
        "' cannot serve backend '" + MonitorBackendName(backend) + "'");
  }
  std::vector<std::unique_ptr<Monitor>> monitors;
  if (backend == MonitorBackend::kBuiltin) {
    for (const TaskBlockAst& block : artifact->ast.blocks) {
      for (const PropertyAst& property : block.properties) {
        StatusOr<std::unique_ptr<Monitor>> monitor =
            MakeBuiltinMonitor(property, block.task, graph);
        if (!monitor.ok()) {
          return monitor.status();
        }
        monitors.push_back(std::move(monitor).value());
      }
    }
  } else {
    // Aliasing shared_ptrs: each monitor shares ownership of the whole
    // artifact but points at one machine slot, so the immutable programs
    // are never copied per run.
    monitors.reserve(artifact->machines.size());
    for (std::size_t i = 0; i < artifact->machines.size(); ++i) {
      if (backend == MonitorBackend::kCompiled) {
        monitors.push_back(std::make_unique<CompiledMonitor>(
            std::shared_ptr<const CompiledMachine>(artifact, &artifact->compiled[i])));
      } else {
        monitors.push_back(std::make_unique<InterpretedMonitor>(
            std::shared_ptr<const StateMachine>(artifact, &artifact->machines[i])));
      }
    }
  }
  return std::make_unique<MonitorSet>(backend, placement, std::move(monitors),
                                      graph.task_count());
}

}  // namespace artemis
