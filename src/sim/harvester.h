// Ambient-energy harvester models.
//
// The paper's testbed harvests RF energy from a Powercast TX91501-3W
// transmitter via a P2110 receiver. We model harvesters as time-varying
// power sources; the capacitor-backed power model integrates them.
#ifndef SRC_SIM_HARVESTER_H_
#define SRC_SIM_HARVESTER_H_

#include <memory>
#include <utility>
#include <vector>

#include "src/base/rng.h"
#include "src/base/time.h"

namespace artemis {

class Harvester {
 public:
  virtual ~Harvester() = default;
  // Instantaneous harvested power at absolute simulated time `t`.
  virtual Milliwatts PowerAt(SimTime t) const = 0;

  // Average power over [t, t + d]; default integrates in 1 ms steps, exact
  // overrides exist for analytic sources.
  virtual EnergyUj EnergyOver(SimTime t, SimDuration d) const;
};

// Constant harvest power (steady RF field at a fixed distance).
class ConstantHarvester : public Harvester {
 public:
  explicit ConstantHarvester(Milliwatts power) : power_(power) {}
  Milliwatts PowerAt(SimTime) const override { return power_; }
  EnergyUj EnergyOver(SimTime, SimDuration d) const override { return EnergyFor(power_, d); }

 private:
  Milliwatts power_;
};

// Square-wave harvester: `on_power` for `on` out of every `period` ticks.
// Models a duty-cycled RF transmitter or a sensor passing in and out of the
// field.
class PulseHarvester : public Harvester {
 public:
  PulseHarvester(Milliwatts on_power, SimDuration period, SimDuration on);
  Milliwatts PowerAt(SimTime t) const override;

 private:
  Milliwatts on_power_;
  SimDuration period_;
  SimDuration on_;
};

// Piecewise-constant trace: (start_time, power) steps, e.g. replayed from a
// recorded RF/solar trace. Times must be strictly increasing.
class TraceHarvester : public Harvester {
 public:
  explicit TraceHarvester(std::vector<std::pair<SimTime, Milliwatts>> steps);
  Milliwatts PowerAt(SimTime t) const override;

 private:
  std::vector<std::pair<SimTime, Milliwatts>> steps_;
};

// Constant power with multiplicative noise resampled every `interval`.
// Deterministic given the seed: the noise factor for slot i is derived from
// hashing i, not from call order.
class NoisyHarvester : public Harvester {
 public:
  NoisyHarvester(Milliwatts mean_power, double relative_stddev, SimDuration interval,
                 std::uint64_t seed);
  Milliwatts PowerAt(SimTime t) const override;

 private:
  Milliwatts mean_power_;
  double relative_stddev_;
  SimDuration interval_;
  std::uint64_t seed_;
};

}  // namespace artemis

#endif  // SRC_SIM_HARVESTER_H_
