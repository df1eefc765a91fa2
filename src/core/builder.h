// PlatformBuilder: fluent assembly of the simulated platform an application
// runs on — power supply model, cost model, clock drift. Used by examples
// and benches to keep experiment setup readable.
#ifndef SRC_CORE_BUILDER_H_
#define SRC_CORE_BUILDER_H_

#include <memory>
#include <utility>
#include <vector>

#include "src/sim/capacitor.h"
#include "src/sim/harvester.h"
#include "src/sim/mcu.h"
#include "src/sim/power_model.h"

namespace artemis {

class PlatformBuilder {
 public:
  // Power supply selection (last call wins; continuous power when none is
  // made).
  PlatformBuilder& WithContinuousPower();
  // Each on-period delivers `on_budget` microjoules; recharging after a
  // failure takes `charge_time`. The Figure 12/16 experiment knob.
  PlatformBuilder& WithFixedCharge(EnergyUj on_budget, SimDuration charge_time);
  // Physics-based capacitor + harvester supply.
  PlatformBuilder& WithCapacitor(const CapacitorConfig& config,
                                 std::unique_ptr<Harvester> harvester);
  // Explicit on-windows replay.
  PlatformBuilder& WithPowerTrace(std::vector<std::pair<SimTime, SimTime>> windows);
  // Exponential on/charge times.
  PlatformBuilder& WithStochasticPower(SimDuration mean_on, SimDuration mean_charge,
                                       std::uint64_t seed);

  // Bounded per-outage timekeeping error (Section 4's persistent
  // timekeeping caveat).
  PlatformBuilder& WithClockDrift(SimDuration max_drift_per_outage);
  // A hardware timekeeper model (src/sim/timekeeper.h); supersedes
  // WithClockDrift when set.
  PlatformBuilder& WithTimekeeper(std::unique_ptr<OutageTimekeeper> timekeeper);

  std::unique_ptr<Mcu> Build();

 private:
  std::unique_ptr<PowerModel> power_;  // nullptr: continuous power
  SimDuration max_drift_ = 0;
  std::unique_ptr<OutageTimekeeper> timekeeper_;
};

}  // namespace artemis

#endif  // SRC_CORE_BUILDER_H_
