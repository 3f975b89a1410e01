// EWMA + z-score anomaly detection over scraped time series: each
// detector tracks an exponentially-weighted mean and variance and
// flags samples whose deviation from the pre-update mean exceeds a
// z threshold — catching level shifts (a cluster's nack rate jumping
// from ~0 to sustained 40%) that a static threshold tuned for one
// deployment would miss in another. The mean keeps adapting after a
// flag, so a shift that persists becomes the new normal and the alert
// resolves instead of latching forever.
//
// Pure arithmetic on caller-supplied samples: deterministic, no clock,
// no allocation per observation.
#pragma once

#include <cstdint>

namespace lidc::telemetry {

struct AnomalyOptions {
  /// No flags until this many samples have been observed.
  std::uint64_t warmupSamples = 8;
  bool flagHigh = true;
  bool flagLow = true;
};

struct AnomalyPoint {
  double value = 0.0;
  double mean = 0.0;    // pre-update EWMA mean the z-score was taken against
  double stddev = 0.0;  // pre-update (floored) standard deviation
  double z = 0.0;
  bool anomalous = false;
};

class EwmaDetector {
 public:
  /// Samples at least this many standard deviations from the mean flag.
  static constexpr double kZThreshold = 3.0;
  /// Floor on the standard deviation, so a perfectly flat series does
  /// not flag on its first micro-wiggle.
  static constexpr double kMinStdDev = 1e-3;

  explicit EwmaDetector(AnomalyOptions options = {}) : options_(options) {}

  /// Scores `value` against the current estimate, then folds it in.
  AnomalyPoint observe(double value) noexcept;

  void reset() noexcept {
    mean_ = 0.0;
    variance_ = 0.0;
    samples_ = 0;
  }

  [[nodiscard]] std::uint64_t samples() const noexcept { return samples_; }
  [[nodiscard]] double mean() const noexcept { return mean_; }

 private:
  AnomalyOptions options_;
  double mean_ = 0.0;
  double variance_ = 0.0;
  std::uint64_t samples_ = 0;
};

}  // namespace lidc::telemetry
