#include "src/core/builder.h"

#include "src/sim/cost_model.h"

namespace artemis {

PlatformBuilder& PlatformBuilder::WithContinuousPower() {
  power_ = std::make_unique<AlwaysOnPowerModel>();
  return *this;
}

PlatformBuilder& PlatformBuilder::WithFixedCharge(EnergyUj on_budget, SimDuration charge_time) {
  power_ = std::make_unique<FixedChargePowerModel>(on_budget, charge_time);
  return *this;
}

PlatformBuilder& PlatformBuilder::WithCapacitor(const CapacitorConfig& config,
                                                std::unique_ptr<Harvester> harvester) {
  power_ = std::make_unique<CapacitorPowerModel>(config, std::move(harvester));
  return *this;
}

PlatformBuilder& PlatformBuilder::WithPowerTrace(
    std::vector<std::pair<SimTime, SimTime>> windows) {
  power_ = std::make_unique<TracePowerModel>(std::move(windows));
  return *this;
}

PlatformBuilder& PlatformBuilder::WithStochasticPower(SimDuration mean_on,
                                                      SimDuration mean_charge,
                                                      std::uint64_t seed) {
  power_ = std::make_unique<StochasticPowerModel>(mean_on, mean_charge, seed);
  return *this;
}

PlatformBuilder& PlatformBuilder::WithClockDrift(SimDuration max_drift_per_outage) {
  max_drift_ = max_drift_per_outage;
  return *this;
}

PlatformBuilder& PlatformBuilder::WithTimekeeper(
    std::unique_ptr<OutageTimekeeper> timekeeper) {
  timekeeper_ = std::move(timekeeper);
  return *this;
}

std::unique_ptr<Mcu> PlatformBuilder::Build() {
  // Continuous power unless a supply was selected; the builder stays
  // reusable, back at that default.
  auto mcu = std::make_unique<Mcu>(
      power_ != nullptr ? std::move(power_) : std::make_unique<AlwaysOnPowerModel>(),
      DefaultCostModel());
  mcu->clock().SetMaxDriftPerOutage(max_drift_);
  if (timekeeper_ != nullptr) {
    mcu->clock().SetTimekeeper(std::move(timekeeper_));
  }
  return mcu;
}

}  // namespace artemis
