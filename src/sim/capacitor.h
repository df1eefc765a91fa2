// Energy-storage capacitor model for batteryless devices.
//
// Batteryless platforms such as the MSP430FR5994 testbed in the paper buffer
// harvested energy in a capacitor. The device boots when the capacitor
// voltage reaches the turn-on threshold (V_on) and dies when it falls to the
// brown-out threshold (V_off). Stored energy follows E = 1/2 * C * V^2.
#ifndef SRC_SIM_CAPACITOR_H_
#define SRC_SIM_CAPACITOR_H_

#include "src/base/time.h"

namespace artemis {

struct CapacitorConfig {
  double capacitance_f = 100e-6;  // 100 uF, a common intermittent-computing choice.
  double v_max = 5.0;             // Harvester regulator ceiling.
  double v_on = 3.5;              // Boot threshold.
  double v_off = 2.2;             // Brown-out threshold.
};

class Capacitor {
 public:
  explicit Capacitor(const CapacitorConfig& config);

  // Current voltage / stored energy.
  double voltage() const { return voltage_; }
  EnergyUj StoredEnergy() const { return EnergyAtVoltage(voltage_); }

  // Energy usable before brown-out at the current voltage.
  EnergyUj UsableEnergy() const;
  // Energy usable per on-period when fully charged to v_max.
  EnergyUj FullUsableEnergy() const;

  bool IsAboveTurnOn() const { return voltage_ >= config_.v_on; }
  bool IsBrownedOut() const { return voltage_ <= config_.v_off; }

  // Removes `energy` microjoules. If that would push the voltage below
  // V_off, the capacitor clamps at V_off and the call returns the energy it
  // actually delivered (less than requested), signalling a brown-out.
  EnergyUj Drain(EnergyUj energy);

  // Adds `energy` microjoules of harvested charge, clamped at v_max.
  void Charge(EnergyUj energy);

  // Time to charge from the current voltage to `v_target` at a constant
  // harvest power (mW), ignoring leakage. Returns 0 if already there.
  SimDuration TimeToReach(double v_target, Milliwatts harvest_power) const;

  // Resets the voltage (e.g. to start an experiment fully charged).
  void SetVoltage(double v);

  const CapacitorConfig& config() const { return config_; }

  EnergyUj EnergyAtVoltage(double v) const;

 private:
  CapacitorConfig config_;
  double voltage_;
};

}  // namespace artemis

#endif  // SRC_SIM_CAPACITOR_H_
