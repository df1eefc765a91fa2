#include "src/core/device.h"

#include <utility>

namespace artemis {
namespace {

// The recipe's power supply: the one power model the device builds.
std::unique_ptr<PowerModel> MakePowerModel(const DeviceRecipe& recipe) {
  if (recipe.charge == 0) {
    return std::make_unique<AlwaysOnPowerModel>();
  }
  return std::make_unique<FixedChargePowerModel>(recipe.budget, recipe.charge);
}

}  // namespace

DeviceRun::DeviceRun(DeviceRecipe recipe)
    : graph_(std::move(recipe.graph)), mcu_(MakePowerModel(recipe)) {
  status_ = graph_ == nullptr ? Status::Invalid("device recipe has no app graph")
                              : Assemble(recipe);
}

Status DeviceRun::Assemble(DeviceRecipe& recipe) {
  if (recipe.timekeeper != nullptr) {
    mcu_.clock().SetTimekeeper(std::move(recipe.timekeeper));
  }
  mcu_.set_observer(recipe.observer);

  if (recipe.flight != flight::FlightLevel::kOff) {
    if (Status fits = mcu_.CheckFlightRing(recipe.flight_bytes); !fits.ok()) {
      return fits;
    }
    recorder_ = std::make_unique<flight::FlightRecorder>(recipe.flight_bytes, recipe.flight);
    if (Status attached = mcu_.AttachFlightRecorder(recorder_.get()); !attached.ok()) {
      return attached;
    }
  }

  KernelOptions options = recipe.kernel;
  options.flight = recorder_.get();
  switch (recipe.system) {
    case MonitorSystem::kArtemis: {
      ArtemisConfig config;
      config.backend = recipe.backend;
      config.kernel = options;
      StatusOr<std::unique_ptr<ArtemisRuntime>> runtime =
          ArtemisRuntime::CreateFromArtifact(graph_.get(), recipe.artifact, &mcu_, config);
      if (!runtime.ok()) {
        return runtime.status();
      }
      artemis_ = std::move(runtime).value();
      kernel_ = &artemis_->kernel();
      break;
    }
    case MonitorSystem::kMayfly: {
      StatusOr<std::unique_ptr<MayflyRuntime>> runtime =
          MayflyRuntime::Create(graph_.get(), recipe.artifact->ast, &mcu_, options);
      if (!runtime.ok()) {
        return runtime.status();
      }
      mayfly_ = std::move(runtime).value();
      kernel_ = &mayfly_->kernel();
      break;
    }
    case MonitorSystem::kExternal:
      kernel_ = &external_kernel_.emplace(graph_.get(), recipe.checker, &mcu_, options);
      if (const Status& fits = mcu_.nvm().exhaustion(); !fits.ok()) {
        return fits;
      }
      break;
  }

  if (recipe.swap_image.has_value()) {
    if (artemis_ == nullptr) {
      return Status::Invalid("hot swap needs the artemis monitor system");
    }
    MonitorImage installed;
    installed.header = {SpecHash(recipe.artifact->spec_text), 1};
    installed.artifact = recipe.artifact;
    swap_ = std::make_unique<HotSwapController>(&artemis_->monitors(), std::move(installed),
                                                graph_.get());
    if (Status queued = swap_->RequestSwap(std::move(*recipe.swap_image), recipe.swap_at);
        !queued.ok()) {
      return queued;
    }
    kernel_->set_swap_hook(swap_.get());
  }
  return Status::Ok();
}

}  // namespace artemis
