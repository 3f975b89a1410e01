#include "telemetry/anomaly.hpp"

#include <cmath>

namespace lidc::telemetry {

namespace {
/// EWMA smoothing factor for mean and variance (higher = adapts faster).
constexpr double kAlpha = 0.3;
}  // namespace

AnomalyPoint EwmaDetector::observe(double value) noexcept {
  AnomalyPoint point;
  point.value = value;
  if (!std::isfinite(value)) {
    // Garbage in the series (a scrape glitch) is ignored, not scored.
    return point;
  }

  if (samples_ == 0) {
    mean_ = value;
    variance_ = 0.0;
    samples_ = 1;
    point.mean = value;
    point.stddev = kMinStdDev;
    return point;
  }

  point.mean = mean_;
  point.stddev = std::max(kMinStdDev, std::sqrt(variance_));
  point.z = (value - mean_) / point.stddev;
  if (samples_ >= options_.warmupSamples) {
    const bool high = options_.flagHigh && point.z >= kZThreshold;
    const bool low = options_.flagLow && point.z <= -kZThreshold;
    point.anomalous = high || low;
  }

  // Standard EWMA mean/variance update (West's incremental form).
  const double delta = value - mean_;
  mean_ += kAlpha * delta;
  variance_ = (1.0 - kAlpha) * (variance_ + kAlpha * delta * delta);
  ++samples_;
  return point;
}

}  // namespace lidc::telemetry
