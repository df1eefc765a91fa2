#include "src/sim/power_model.h"

#include <algorithm>
#include <cmath>

namespace artemis {

ConsumeResult AlwaysOnPowerModel::Consume(SimTime /*now*/, SimDuration duration,
                                          Milliwatts power) {
  return ConsumeResult{.completed = true,
                       .ran_for = duration,
                       .restart_at = 0,
                       .consumed = EnergyFor(power, duration)};
}

FixedChargePowerModel::FixedChargePowerModel(EnergyUj on_budget, SimDuration charge_time)
    : on_budget_(on_budget), charge_time_(charge_time) {
  budget_ = on_budget;
}

ConsumeResult FixedChargePowerModel::Consume(SimTime now, SimDuration duration,
                                             Milliwatts power) {
  // Where need <= budget_, std::min(need, budget_) is need itself: the
  // completing branch is the inline charge of PowerModel's contract.
  const EnergyUj need = EnergyFor(power, duration);
  if (need <= budget_ || power <= 0.0) {
    budget_ -= std::min(need, budget_);
    return ConsumeResult{.completed = true,
                         .ran_for = duration,
                         .restart_at = 0,
                         .consumed = need};
  }
  // Dies partway: run until the budget is gone.
  const SimDuration ran = static_cast<SimDuration>(1000.0 * budget_ / power);
  const EnergyUj used = budget_;
  budget_ = 0.0;
  return ConsumeResult{.completed = false,
                       .ran_for = std::min(ran, duration),
                       .restart_at = now + std::min(ran, duration) + charge_time_,
                       .consumed = used};
}

void FixedChargePowerModel::NotifyReboot(SimTime /*now*/) { budget_ = on_budget_; }

double FixedChargePowerModel::StoredEnergyFraction() const {
  return on_budget_ > 0.0 ? budget_ / on_budget_ : 1.0;
}

CapacitorPowerModel::CapacitorPowerModel(const CapacitorConfig& cap,
                                         std::unique_ptr<Harvester> harvester)
    : cap_(cap), harvester_(std::move(harvester)) {}

void CapacitorPowerModel::SyncTo(SimTime t) {
  if (t > synced_at_) {
    cap_.Charge(harvester_->EnergyOver(synced_at_, t - synced_at_));
    synced_at_ = t;
  }
}

ConsumeResult CapacitorPowerModel::Consume(SimTime now, SimDuration duration,
                                           Milliwatts power) {
  SyncTo(now);
  // Step through the operation in slices, draining load and adding harvest.
  // Slice size trades accuracy for speed; 10 ms is far below task scale.
  const SimDuration kSlice = 10 * kMillisecond;
  SimDuration done = 0;
  EnergyUj consumed = 0.0;
  while (done < duration) {
    const SimDuration step = std::min(kSlice, duration - done);
    const EnergyUj harvested = harvester_->EnergyOver(now + done, step);
    cap_.Charge(harvested);
    const EnergyUj need = EnergyFor(power, step);
    const EnergyUj got = cap_.Drain(need);
    consumed += got;
    if (got + 1e-9 < need) {
      // Brown-out inside this slice: approximate the fraction that ran.
      const double frac = need > 0.0 ? got / need : 0.0;
      const SimDuration ran = done + static_cast<SimDuration>(frac * static_cast<double>(step));
      // Charge until V_on using the harvester's average power at death time.
      SimTime restart = now + ran;
      // Iteratively extend by the analytic estimate until the target is met;
      // two passes suffice for slowly varying harvesters.
      for (int pass = 0; pass < 4 && !cap_.IsAboveTurnOn(); ++pass) {
        const Milliwatts hp = std::max(1e-6, harvester_->PowerAt(restart));
        const SimDuration wait = cap_.TimeToReach(cap_.config().v_on, hp);
        const EnergyUj gained = harvester_->EnergyOver(restart, wait);
        cap_.Charge(gained);
        restart += std::max<SimDuration>(wait, kMillisecond);
      }
      synced_at_ = restart;
      return ConsumeResult{.completed = false,
                           .ran_for = ran,
                           .restart_at = restart,
                           .consumed = consumed};
    }
    done += step;
  }
  synced_at_ = now + duration;
  return ConsumeResult{.completed = true,
                       .ran_for = duration,
                       .restart_at = 0,
                       .consumed = consumed};
}

double CapacitorPowerModel::StoredEnergyFraction() const {
  const EnergyUj full = cap_.FullUsableEnergy();
  return full > 0.0 ? std::clamp(cap_.UsableEnergy() / full, 0.0, 1.0) : 1.0;
}

TracePowerModel::TracePowerModel(std::vector<std::pair<SimTime, SimTime>> on_windows)
    : windows_(std::move(on_windows)) {
  std::sort(windows_.begin(), windows_.end());
}

ConsumeResult TracePowerModel::Consume(SimTime now, SimDuration duration, Milliwatts power) {
  // Find the window containing `now`.
  for (std::size_t i = 0; i < windows_.size(); ++i) {
    const auto [start, end] = windows_[i];
    if (now >= end) {
      continue;
    }
    if (now < start) {
      // Device is in a dead zone; it restarts at the next window. Callers
      // only reach this if the schedule was externally advanced.
      return ConsumeResult{.completed = false, .ran_for = 0, .restart_at = start, .consumed = 0};
    }
    if (now + duration <= end) {
      return ConsumeResult{.completed = true,
                           .ran_for = duration,
                           .restart_at = 0,
                           .consumed = EnergyFor(power, duration)};
    }
    const SimDuration ran = end - now;
    const SimTime restart = (i + 1 < windows_.size()) ? windows_[i + 1].first : end + kHour * 24;
    return ConsumeResult{.completed = false,
                         .ran_for = ran,
                         .restart_at = restart,
                         .consumed = EnergyFor(power, ran)};
  }
  // Past the last window: power never returns within the trace; report a
  // restart far in the future so callers can detect starvation.
  return ConsumeResult{.completed = false,
                       .ran_for = 0,
                       .restart_at = now + kHour * 24 * 365,
                       .consumed = 0};
}

StochasticPowerModel::StochasticPowerModel(SimDuration mean_on, SimDuration mean_charge,
                                           std::uint64_t seed)
    : mean_on_(mean_on), mean_charge_(mean_charge), rng_(seed), on_left_(rng_.Exponential(mean_on)) {}

ConsumeResult StochasticPowerModel::Consume(SimTime now, SimDuration duration,
                                            Milliwatts power) {
  if (duration <= on_left_) {
    on_left_ -= duration;
    return ConsumeResult{.completed = true,
                         .ran_for = duration,
                         .restart_at = 0,
                         .consumed = EnergyFor(power, duration)};
  }
  const SimDuration ran = on_left_;
  const SimDuration charge = std::max<SimDuration>(kMillisecond, rng_.Exponential(mean_charge_));
  on_left_ = 0;
  return ConsumeResult{.completed = false,
                       .ran_for = ran,
                       .restart_at = now + ran + charge,
                       .consumed = EnergyFor(power, ran)};
}

void StochasticPowerModel::NotifyReboot(SimTime /*now*/) {
  on_left_ = std::max<SimDuration>(kMillisecond, rng_.Exponential(mean_on_));
}

}  // namespace artemis
