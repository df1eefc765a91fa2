#include "src/core/runtime.h"

#include <utility>

#include "src/sim/cost_model.h"

namespace artemis {

ArtemisRuntime::ArtemisRuntime(const AppGraph* graph, SharedSpecArtifactPtr artifact, Mcu* mcu,
                               std::unique_ptr<MonitorSet> monitors, const ArtemisConfig& config)
    : artifact_(std::move(artifact)), monitors_(std::move(monitors)) {
  KernelOptions kernel_options = config.kernel;
  if (config.flight != nullptr) {
    kernel_options.flight = config.flight;
    monitors_->set_flight(config.flight);
  }
  kernel_ = std::make_unique<IntermittentKernel>(graph, monitors_.get(), mcu, kernel_options);
}

StatusOr<std::unique_ptr<ArtemisRuntime>> ArtemisRuntime::Create(const AppGraph* graph,
                                                                 std::string_view spec_source,
                                                                 Mcu* mcu,
                                                                 const ArtemisConfig& config) {
  StatusOr<SharedSpecArtifactPtr> artifact = BuildSpecArtifact(
      std::string(spec_source), *graph, StageForBackend(config.backend), config.lowering);
  if (!artifact.ok()) {
    return artifact.status();
  }
  return CreateFromArtifact(graph, artifact.value(), mcu, config);
}

StatusOr<std::unique_ptr<ArtemisRuntime>> ArtemisRuntime::CreateFromAst(
    const AppGraph* graph, const SpecAst& spec, Mcu* mcu, const ArtemisConfig& config) {
  StatusOr<SharedSpecArtifactPtr> artifact =
      BuildSpecArtifactFromAst(spec, *graph, StageForBackend(config.backend), config.lowering);
  if (!artifact.ok()) {
    return artifact.status();
  }
  return CreateFromArtifact(graph, artifact.value(), mcu, config);
}

StatusOr<std::unique_ptr<ArtemisRuntime>> ArtemisRuntime::CreateFromArtifact(
    const AppGraph* graph, const SharedSpecArtifactPtr& artifact, Mcu* mcu,
    const ArtemisConfig& config) {
  if (const Status status = graph->Validate(); !status.ok()) {
    return status;
  }
  if (artifact == nullptr) {
    return Status::Invalid("null spec artifact");
  }
  // Validation ran when the artifact was built; only the strictness policy
  // is re-applied here (it is a per-run config knob, not pipeline work).
  if (config.warnings_are_errors && !artifact->validation_warnings.empty()) {
    return Status::FailedPrecondition("spec has validation warnings: " +
                                      artifact->validation_warnings.front());
  }
  const MonitorSetOptions monitor_options{
      .policy = config.arbitration, .placement = config.placement, .radio = config.radio};
  StatusOr<std::unique_ptr<MonitorSet>> monitors = BuildMonitorSetFromArtifact(
      artifact, *graph, config.backend, config.lowering, monitor_options);
  if (!monitors.ok()) {
    return monitors.status();
  }
  return std::unique_ptr<ArtemisRuntime>(
      new ArtemisRuntime(graph, artifact, mcu, std::move(monitors).value(), config));
}

KernelRunResult ArtemisRuntime::Run() { return kernel_->Run(); }

std::size_t ArtemisRuntime::RuntimeTextBytes() {
  const CostModel& costs = DefaultCostModel();
  return costs.text_kernel_base + costs.text_artemis_runtime_extra;
}

}  // namespace artemis
