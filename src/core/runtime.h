// ArtemisRuntime: the public entry point of the framework. Wires an
// application graph, a property specification, and a simulated platform into
// the Figure 1 loop: kernel executes tasks -> events flow to the
// application-specific monitors -> corrective actions flow back.
#ifndef SRC_CORE_RUNTIME_H_
#define SRC_CORE_RUNTIME_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/status.h"
#include "src/kernel/app_graph.h"
#include "src/kernel/kernel.h"
#include "src/monitor/monitor_set.h"
#include "src/monitor/shared_spec.h"
#include "src/sim/mcu.h"

namespace artemis {

struct ArtemisConfig {
  MonitorBackend backend = MonitorBackend::kBuiltin;
  ArbitrationPolicy arbitration = ArbitrationPolicy::kSeverity;
  // Where the monitors execute (Section 7 implementation alternatives).
  MonitorPlacement placement = MonitorPlacement::kSeparate;
  KernelOptions kernel;
};

class ArtemisRuntime {
 public:
  // Parses + validates `spec_source`, generates the monitors, and prepares
  // the kernel. `graph` and `mcu` must outlive the runtime. Builds the spec
  // artifact `config.backend` needs and calls CreateFromArtifact. A flight
  // recorder attached to `mcu` (Mcu::AttachFlightRecorder, src/flight) is
  // the one the kernel and monitor set seal records into.
  static StatusOr<std::unique_ptr<ArtemisRuntime>> Create(const AppGraph* graph,
                                                          std::string_view spec_source,
                                                          Mcu* mcu,
                                                          const ArtemisConfig& config = {});

  // The one construction path. From a pre-built shared spec artifact
  // (src/monitor/shared_spec.h): no parse / validate / lower / compile work
  // happens here — the monitors are per-run state over the artifact's
  // immutable programs, and the runtime shares the artifact instead of
  // copying it. Cost is arena allocation, not pipeline.
  static StatusOr<std::unique_ptr<ArtemisRuntime>> CreateFromArtifact(
      const AppGraph* graph, const SharedSpecArtifactPtr& artifact, Mcu* mcu,
      const ArtemisConfig& config);

  // Runs the application to completion / starvation / non-termination.
  KernelRunResult Run();

  const IntermittentKernel& kernel() const { return *kernel_; }
  IntermittentKernel& kernel() { return *kernel_; }
  const MonitorSet& monitors() const { return *monitors_; }
  // Mutable access, for the hot-swap controller (src/swap/hotswap.h) which
  // replaces the set's monitors when a new image commits.
  MonitorSet& monitors() { return *monitors_; }
  const std::vector<std::string>& validation_warnings() const {
    return artifact_->validation_warnings;
  }

  // Registered ARTEMIS runtime .text proxy (Table 2); the monitor text proxy
  // comes from CCodeGenerator::EstimateTextBytes.
  static std::size_t RuntimeTextBytes();

 private:
  ArtemisRuntime(const AppGraph* graph, SharedSpecArtifactPtr artifact, Mcu* mcu,
                 std::unique_ptr<MonitorSet> monitors, const ArtemisConfig& config);

  SharedSpecArtifactPtr artifact_;
  std::unique_ptr<MonitorSet> monitors_;
  std::unique_ptr<IntermittentKernel> kernel_;
};

}  // namespace artemis

#endif  // SRC_CORE_RUNTIME_H_
