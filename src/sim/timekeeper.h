// Persistent-timekeeper models (Botoks / CHRT class, the paper's [22, 51]).
//
// Time-related properties (MITD, period, maxDuration) are only as good as
// the device's ability to measure how long an outage lasted. Real
// batteryless timekeepers measure outages by observing the decay of a
// capacitor or SRAM cell: accurate for short outages, increasingly noisy for
// longer ones, and *saturating* beyond the maximum measurable outage — after
// which the device simply does not know how much time passed. The models
// here plug into PersistentClock and drive the ablation_timekeeper bench,
// which shows stale data slipping past the MITD property when the
// timekeeper saturates.
#ifndef SRC_SIM_TIMEKEEPER_H_
#define SRC_SIM_TIMEKEEPER_H_

#include <algorithm>
#include <memory>

#include "src/base/rng.h"
#include "src/base/time.h"

namespace artemis {

class OutageTimekeeper {
 public:
  virtual ~OutageTimekeeper() = default;

  // Returns the outage duration the device *believes* elapsed, given the
  // true duration. Deterministic under the provided RNG stream.
  virtual SimDuration MeasureOutage(SimDuration actual, Rng& rng) = 0;
};

// Perfect timekeeping (an always-powered RTC with no drift).
class IdealTimekeeper : public OutageTimekeeper {
 public:
  SimDuration MeasureOutage(SimDuration actual, Rng&) override { return actual; }
};

// RTC-backed timekeeper: unbounded range, small multiplicative Gaussian
// error (crystal tolerance).
class RtcTimekeeper : public OutageTimekeeper {
 public:
  explicit RtcTimekeeper(double relative_error) : relative_error_(relative_error) {}

  SimDuration MeasureOutage(SimDuration actual, Rng& rng) override {
    const double factor = std::max(0.0, rng.Gaussian(1.0, relative_error_));
    return static_cast<SimDuration>(static_cast<double>(actual) * factor);
  }

 private:
  double relative_error_;
};

// Remanence-decay timekeeper (capacitor/SRAM decay): multiplicative noise
// growing with outage length, hard saturation at the maximum measurable
// outage — longer outages all read as `max_measurable`, silently
// under-reporting elapsed time.
class RemanenceTimekeeper : public OutageTimekeeper {
 public:
  RemanenceTimekeeper(SimDuration max_measurable, double relative_error)
      : max_measurable_(max_measurable), relative_error_(relative_error) {}

  SimDuration MeasureOutage(SimDuration actual, Rng& rng) override {
    if (actual >= max_measurable_) {
      return max_measurable_;  // Saturated: the tail of the outage is lost.
    }
    // Error grows toward the end of the measurable range.
    const double position =
        static_cast<double>(actual) / static_cast<double>(max_measurable_);
    const double sigma = relative_error_ * (0.25 + 0.75 * position);
    const double factor = std::max(0.0, rng.Gaussian(1.0, sigma));
    const SimDuration measured =
        static_cast<SimDuration>(static_cast<double>(actual) * factor);
    return std::min(measured, max_measurable_);
  }

  SimDuration max_measurable() const { return max_measurable_; }

 private:
  SimDuration max_measurable_;
  double relative_error_;
};

}  // namespace artemis

#endif  // SRC_SIM_TIMEKEEPER_H_
