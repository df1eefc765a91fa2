#include "src/core/runtime.h"

#include <utility>

#include "src/sim/cost_model.h"

namespace artemis {

ArtemisRuntime::ArtemisRuntime(const AppGraph* graph, SharedSpecArtifactPtr artifact, Mcu* mcu,
                               std::unique_ptr<MonitorSet> monitors, const ArtemisConfig& config)
    : artifact_(std::move(artifact)), monitors_(std::move(monitors)) {
  KernelOptions kernel_options = config.kernel;
  if (flight::FlightRecorder* const recorder = mcu->flight_recorder(); recorder != nullptr) {
    kernel_options.flight = recorder;
    monitors_->set_flight(recorder);
  }
  kernel_ = std::make_unique<IntermittentKernel>(graph, monitors_.get(), mcu, kernel_options);
}

StatusOr<std::unique_ptr<ArtemisRuntime>> ArtemisRuntime::Create(const AppGraph* graph,
                                                                 std::string_view spec_source,
                                                                 Mcu* mcu,
                                                                 const ArtemisConfig& config) {
  StatusOr<SharedSpecArtifactPtr> artifact =
      BuildSpecArtifact(std::string(spec_source), *graph, StageForBackend(config.backend));
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
  StatusOr<std::unique_ptr<MonitorSet>> monitors =
      BuildMonitorSetFromArtifact(artifact, *graph, config.backend, config.placement);
  if (!monitors.ok()) {
    return monitors.status();
  }
  mcu->nvm().Allocate(MemOwner::kMonitor, monitors.value()->FramBytes(), "monitor-set");
  std::unique_ptr<ArtemisRuntime> runtime(
      new ArtemisRuntime(graph, artifact, mcu, std::move(monitors).value(), config));
  if (const Status& fits = mcu->nvm().exhaustion(); !fits.ok()) {
    return fits;
  }
  return runtime;
}

KernelRunResult ArtemisRuntime::Run() { return kernel_->Run(); }

std::size_t ArtemisRuntime::RuntimeTextBytes() {
  const CostModel& costs = DefaultCostModel();
  return costs.text_kernel_base + costs.text_artemis_runtime_extra;
}

}  // namespace artemis
