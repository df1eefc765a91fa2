#include "src/core/device.h"

#include <utility>

#include "src/core/builder.h"

namespace artemis {

DeviceRun::DeviceRun(DeviceRecipe recipe) : graph_(std::move(recipe.graph)) {
  status_ = Assemble(recipe);
}

Status DeviceRun::Assemble(DeviceRecipe& recipe) {
  PlatformBuilder platform;
  if (recipe.charge == 0) {
    platform.WithContinuousPower();
  } else {
    platform.WithFixedCharge(recipe.budget, recipe.charge);
  }
  if (recipe.timekeeper != nullptr) {
    platform.WithTimekeeper(std::move(recipe.timekeeper));
  }
  mcu_ = platform.Build();
  mcu_->set_observer(recipe.observer);

  if (recipe.flight != flight::FlightLevel::kOff) {
    recorder_ = std::make_unique<flight::FlightRecorder>(recipe.flight_bytes, recipe.flight);
    if (Status attached = mcu_->AttachFlightRecorder(recorder_.get()); !attached.ok()) {
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
      config.flight = recorder_.get();
      StatusOr<std::unique_ptr<ArtemisRuntime>> runtime =
          ArtemisRuntime::CreateFromArtifact(&graph_, recipe.artifact, mcu_.get(), config);
      if (!runtime.ok()) {
        return runtime.status();
      }
      artemis_ = std::move(runtime).value();
      kernel_ = &artemis_->kernel();
      break;
    }
    case MonitorSystem::kMayfly: {
      StatusOr<std::unique_ptr<MayflyRuntime>> runtime =
          MayflyRuntime::Create(&graph_, recipe.artifact->ast, mcu_.get(), options);
      if (!runtime.ok()) {
        return runtime.status();
      }
      mayfly_ = std::move(runtime).value();
      kernel_ = &mayfly_->kernel();
      break;
    }
    case MonitorSystem::kExternal:
      kernel_ = &external_kernel_.emplace(&graph_, recipe.checker, mcu_.get(), options);
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
                                                &graph_);
    swap_->set_flight(recorder_.get());
    if (Status queued = swap_->RequestSwap(std::move(*recipe.swap_image), recipe.swap_at);
        !queued.ok()) {
      return queued;
    }
    kernel_->set_swap_hook(swap_.get());
  }
  return Status::Ok();
}

}  // namespace artemis
