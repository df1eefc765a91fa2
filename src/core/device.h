// DeviceRecipe -> DeviceRun: the one place a simulated device is assembled.
//
// A sweep point, a fleet twin, an `artemisc simulate|profile|trace|
// forensics|swap` run and the paper benches all describe their device as a
// DeviceRecipe value; DeviceRun wires it into the Figure 1 loop — MCU
// (power supply + timekeeper), flight recorder, observability bus, the
// monitor system, the kernel, and an optional hot-swap controller — and
// owns every piece for the length of the run, the Mcu inline. What a device
// only reads it shares: the app graph, the spec artifact and the default
// cost model's cycle charges (CycleCharges::Default) are immutable
// templates that any number of devices, on any threads, run from at once
// (the app graph is firmware .text; TaskEffect's contract in
// src/kernel/task.h).
//
// Assembly order reaches simulated state, so it is fixed here: the
// timekeeper is installed when the MCU is built, the flight ring takes its
// NVM arena slot before the monitors and kernel register theirs, and the
// observer is attached before the first boot. The FRAM a device needs is
// registered while it is assembled, and a device that does not fit is
// refused with the arena's first exhaustion (kResourceExhausted) before
// it runs; a ring the arena cannot hold is refused before it is allocated.
#ifndef SRC_CORE_DEVICE_H_
#define SRC_CORE_DEVICE_H_

#include <cstddef>
#include <memory>
#include <optional>

#include "src/base/status.h"
#include "src/core/runtime.h"
#include "src/flight/recorder.h"
#include "src/kernel/app_graph.h"
#include "src/kernel/checker.h"
#include "src/kernel/kernel.h"
#include "src/mayfly/mayfly.h"
#include "src/monitor/shared_spec.h"
#include "src/obs/bus.h"
#include "src/sim/mcu.h"
#include "src/sim/timekeeper.h"
#include "src/swap/hotswap.h"
#include "src/swap/image.h"

namespace artemis {

enum class MonitorSystem {
  kArtemis,   // a MonitorSet over `artifact` for `backend`, verdicts fed back
  kMayfly,    // the Mayfly baseline, rules derived from `artifact->ast`
  kExternal,  // the caller's `checker` (the fleet's capture mode)
};

struct DeviceRecipe {
  // The app's task graph, shared read-only (sweep::AppTemplate for the demo
  // apps; a one-off caller wraps its own graph once). Required.
  std::shared_ptr<const AppGraph> graph;
  // Power supply: always on when `charge` is 0; otherwise each on-period
  // delivers `budget` microjoules and recharging takes `charge`.
  SimDuration charge = 0;
  EnergyUj budget = 19'500.0;
  // Outage timekeeper; nullptr keeps the platform's implicit ideal clock.
  std::unique_ptr<OutageTimekeeper> timekeeper;

  MonitorSystem system = MonitorSystem::kArtemis;
  SharedSpecArtifactPtr artifact;                     // kArtemis, kMayfly
  MonitorBackend backend = MonitorBackend::kBuiltin;  // kArtemis
  PropertyChecker* checker = nullptr;                 // kExternal; outlives the run

  // Seed, horizon and trace recording. DeviceRun fills in the flight field
  // from the ones below.
  KernelOptions kernel;
  // The MCU's bus (Mcu::set_observer); the kernel and monitors publish into
  // it too. nullptr = off.
  obs::EventBus* observer = nullptr;
  // On-device flight recorder of `flight_bytes` ring capacity; kOff
  // attaches none.
  flight::FlightLevel flight = flight::FlightLevel::kOff;
  std::size_t flight_bytes = 1024;
  // Hot swap (kArtemis, compiled backend): `artifact` runs as the epoch-1
  // image and `swap_image` is installed at the first quiescence point at
  // or after `swap_at` device time.
  std::optional<MonitorImage> swap_image;
  SimDuration swap_at = 0;
};

class DeviceRun {
 public:
  // Assembles the device. On failure status() says why, and the device
  // must not be run.
  explicit DeviceRun(DeviceRecipe recipe);
  DeviceRun(const DeviceRun&) = delete;
  DeviceRun& operator=(const DeviceRun&) = delete;

  const Status& status() const { return status_; }

  // Runs the application to completion / starvation / non-termination.
  // One-shot.
  KernelRunResult Run() { return kernel_->Run(); }

  const AppGraph& graph() const { return *graph_; }
  const IntermittentKernel& kernel() const { return *kernel_; }
  // Exactly one of artemis() / mayfly() is non-null unless the recipe's
  // system is kExternal.
  const ArtemisRuntime* artemis() const { return artemis_.get(); }
  const MayflyRuntime* mayfly() const { return mayfly_.get(); }
  // nullptr when the recipe's flight level is kOff.
  const flight::FlightRecorder* flight() const { return recorder_.get(); }
  // nullptr unless the recipe carries a swap image.
  const HotSwapController* swap() const { return swap_.get(); }

 private:
  Status Assemble(DeviceRecipe& recipe);

  std::shared_ptr<const AppGraph> graph_;
  Mcu mcu_;
  std::unique_ptr<flight::FlightRecorder> recorder_;
  std::unique_ptr<ArtemisRuntime> artemis_;
  std::unique_ptr<MayflyRuntime> mayfly_;
  std::optional<IntermittentKernel> external_kernel_;
  std::unique_ptr<HotSwapController> swap_;
  IntermittentKernel* kernel_ = nullptr;
  Status status_;
};

}  // namespace artemis

#endif  // SRC_CORE_DEVICE_H_
