#include "core/fetch/health.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace dds::core::fetch {

void HealthTracker::throw_out_of_range(std::size_t target) const {
  throw std::out_of_range("HealthTracker: target " + std::to_string(target) +
                          " outside [0, " + std::to_string(ntargets_) + ")");
}

void HealthTracker::observe(std::size_t target, double service_s) {
  Entry& e = touch(target);
  if (e.count == 0) {
    e.ewma = service_s;
    e.ewdev = 0.0;
  } else {
    const double err = service_s - e.ewma;
    // Asymmetric smoothing: degradations accumulate at alpha, recoveries
    // at the faster alpha_down (see HealthParams).
    e.ewma += (err < 0.0 ? params_.alpha_down : params_.alpha) * err;
    e.ewdev += params_.alpha * (std::abs(err) - e.ewdev);
  }
  ++e.count;
  if (calibrated(e) && e.ewma > 0.0) e.best = std::min(e.best, e.ewma);
  e.penalty *= params_.penalty_decay;
}

void HealthTracker::penalize(std::size_t target) {
  touch(target).penalty += params_.penalty_step;
}

double HealthTracker::score(std::size_t target) const {
  const Entry& e = entry(target);
  double base = 1.0;
  if (calibrated(e) && e.ewma > 0.0 && std::isfinite(e.best)) {
    base = std::clamp(e.best / e.ewma, 0.0, 1.0);
  }
  return base / (1.0 + e.penalty);
}

double HealthTracker::deadline(std::size_t target) const {
  const Entry& e = entry(target);
  if (!calibrated(e)) return std::numeric_limits<double>::infinity();
  double d = e.ewma + params_.deadline_sigma * e.ewdev;
  if (std::isfinite(e.best)) {
    d = std::min(d, params_.deadline_cap_ratio * e.best);
  }
  return std::max(params_.deadline_floor_s, d);
}

}  // namespace dds::core::fetch
