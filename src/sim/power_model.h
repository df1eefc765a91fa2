// Power-supply models that decide when the simulated device power-fails and
// how long it charges before it can resume.
//
// The kernel asks the model to "consume" an operation (duration at a power
// draw). The model either completes it or reports the partial execution and
// the absolute time at which power returns — the charging delay the paper
// sweeps in Figures 12 and 16.
#ifndef SRC_SIM_POWER_MODEL_H_
#define SRC_SIM_POWER_MODEL_H_

#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/base/rng.h"
#include "src/base/time.h"
#include "src/sim/capacitor.h"
#include "src/sim/harvester.h"

namespace artemis {

struct ConsumeResult {
  bool completed = true;
  // How much of the requested duration ran before the failure (== duration
  // when completed).
  SimDuration ran_for = 0;
  // Absolute time at which the device can boot again. Meaningful only when
  // !completed.
  SimTime restart_at = 0;
  // Energy drawn from storage, including the aborted portion.
  EnergyUj consumed = 0.0;
};

// Every model completes an operation through Consume. A model may also opt
// in to inline charging by keeping an energy budget in `budget_` such that,
// whenever need = EnergyFor(power, duration) satisfies need <= budget_,
// Consume(now, duration, power) for any `now`
//  * completes the whole operation, with ran_for == duration and
//    consumed == need, and
//  * leaves budget_ - need in budget_ and changes nothing else.
// Mcu (src/sim/mcu.h) then completes such a charge itself, without a
// virtual call, and sends Consume only the charges the budget does not
// cover, so the results are bit-identical. Fixed-charge keeps its remaining
// on-period energy there and always-on keeps +infinity. Every other model,
// and every decorator, leaves budget_ NaN: no charge compares as covered,
// so all of their charges reach Consume.
class PowerModel {
 public:
  virtual ~PowerModel() = default;

  // Attempts to run for `duration` at `power` starting at absolute time
  // `now`. Never splits a completed operation: either the whole duration
  // runs or the device dies partway through.
  virtual ConsumeResult Consume(SimTime now, SimDuration duration, Milliwatts power) = 0;

  // Called when the device boots (first boot and after every power failure).
  virtual void NotifyReboot(SimTime now) { (void)now; }

  // Fraction of a full energy buffer currently stored, in [0, 1]. Drives the
  // Section 4.2.2 energy-awareness property. Models without a meaningful
  // buffer report 1.0.
  virtual double StoredEnergyFraction() const { return 1.0; }

  virtual std::string Name() const = 0;

 protected:
  // The inline-charging budget in µJ (see above); NaN opts out.
  EnergyUj budget_ = std::numeric_limits<EnergyUj>::quiet_NaN();

 private:
  friend class Mcu;
};

// Continuous power: nothing ever fails. Used by the Figure 14/15 overhead
// experiments. Its budget is +infinity, so every charge completes inline.
class AlwaysOnPowerModel : public PowerModel {
 public:
  AlwaysOnPowerModel() { budget_ = std::numeric_limits<EnergyUj>::infinity(); }

  ConsumeResult Consume(SimTime now, SimDuration duration, Milliwatts power) override;
  std::string Name() const override { return "always-on"; }
};

// The experiment-control model: each on-period delivers a fixed energy
// budget; once exhausted the device is off for a fixed charging time. This
// reproduces the paper's independent variable ("power failure durations,
// i.e. charging times, ranging from 1 to 10 minutes") exactly. The energy
// left in the current on-period is the inline budget.
class FixedChargePowerModel : public PowerModel {
 public:
  FixedChargePowerModel(EnergyUj on_budget, SimDuration charge_time);

  ConsumeResult Consume(SimTime now, SimDuration duration, Milliwatts power) override;
  void NotifyReboot(SimTime now) override;
  double StoredEnergyFraction() const override;
  std::string Name() const override { return "fixed-charge"; }

  SimDuration charge_time() const { return charge_time_; }
  EnergyUj on_budget() const { return on_budget_; }

 private:
  EnergyUj on_budget_;
  SimDuration charge_time_;
};

// Physics-based model: a capacitor charged by a harvester powers the load.
// While the device runs, net drain is load - harvest; when the capacitor
// browns out the device sleeps until the harvester refills it to V_on.
class CapacitorPowerModel : public PowerModel {
 public:
  CapacitorPowerModel(const CapacitorConfig& cap, std::unique_ptr<Harvester> harvester);

  ConsumeResult Consume(SimTime now, SimDuration duration, Milliwatts power) override;
  double StoredEnergyFraction() const override;
  std::string Name() const override { return "capacitor"; }

  const Capacitor& capacitor() const { return cap_; }
  Capacitor& capacitor() { return cap_; }

 private:
  Capacitor cap_;
  std::unique_ptr<Harvester> harvester_;
  // Last time the capacitor state was synchronized; harvest between syncs is
  // integrated lazily.
  SimTime synced_at_ = 0;

  void SyncTo(SimTime t);
};

// Replay of explicit power windows: the device may run inside [start, end)
// intervals and is dead outside them. Intervals must be disjoint and sorted.
class TracePowerModel : public PowerModel {
 public:
  explicit TracePowerModel(std::vector<std::pair<SimTime, SimTime>> on_windows);

  ConsumeResult Consume(SimTime now, SimDuration duration, Milliwatts power) override;
  std::string Name() const override { return "trace"; }

 private:
  std::vector<std::pair<SimTime, SimTime>> windows_;
};

// Stochastic intermittence: on-times drawn from an exponential distribution,
// charge times from another. Deterministic under the provided seed.
class StochasticPowerModel : public PowerModel {
 public:
  StochasticPowerModel(SimDuration mean_on, SimDuration mean_charge, std::uint64_t seed);

  ConsumeResult Consume(SimTime now, SimDuration duration, Milliwatts power) override;
  void NotifyReboot(SimTime now) override;
  std::string Name() const override { return "stochastic"; }

 private:
  SimDuration mean_on_;
  SimDuration mean_charge_;
  Rng rng_;
  SimDuration on_left_;
};

}  // namespace artemis

#endif  // SRC_SIM_POWER_MODEL_H_
