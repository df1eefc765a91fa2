#include "src/sim/capacitor.h"

#include <algorithm>
#include <cmath>

namespace artemis {

Capacitor::Capacitor(const CapacitorConfig& config) : config_(config), voltage_(config.v_max) {}

EnergyUj Capacitor::EnergyAtVoltage(double v) const {
  // 1/2 C V^2 joules -> microjoules.
  return 0.5 * config_.capacitance_f * v * v * 1e6;
}

EnergyUj Capacitor::UsableEnergy() const {
  const EnergyUj floor = EnergyAtVoltage(config_.v_off);
  const EnergyUj now = StoredEnergy();
  return now > floor ? now - floor : 0.0;
}

EnergyUj Capacitor::FullUsableEnergy() const {
  return EnergyAtVoltage(config_.v_max) - EnergyAtVoltage(config_.v_off);
}

EnergyUj Capacitor::Drain(EnergyUj energy) {
  const EnergyUj usable = UsableEnergy();
  const EnergyUj delivered = std::min(energy, usable);
  const EnergyUj remaining = StoredEnergy() - delivered;
  voltage_ = std::sqrt(2.0 * remaining * 1e-6 / config_.capacitance_f);
  if (delivered >= usable) {
    voltage_ = config_.v_off;  // Clamp against floating-point drift.
  }
  return delivered;
}

void Capacitor::Charge(EnergyUj energy) {
  const EnergyUj target = std::min(StoredEnergy() + energy, EnergyAtVoltage(config_.v_max));
  voltage_ = std::sqrt(2.0 * target * 1e-6 / config_.capacitance_f);
}

SimDuration Capacitor::TimeToReach(double v_target, Milliwatts harvest_power) const {
  if (voltage_ >= v_target || harvest_power <= 0.0) {
    return 0;
  }
  const EnergyUj needed = EnergyAtVoltage(v_target) - StoredEnergy();
  // energy_uj = power_mw * t_us / 1000  =>  t_us = 1000 * energy_uj / power_mw.
  return static_cast<SimDuration>(1000.0 * needed / harvest_power);
}

void Capacitor::SetVoltage(double v) {
  voltage_ = std::clamp(v, 0.0, config_.v_max);
}

}  // namespace artemis
