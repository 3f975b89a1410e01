// EWMA anomaly detectors: warmup gating, spike detection against a
// stable baseline, level-shift adaptation (flag then re-converge), and
// non-finite sample rejection.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "telemetry/anomaly.hpp"

namespace lidc::telemetry {
namespace {

TEST(EwmaDetectorTest, NoFlagsDuringWarmup) {
  AnomalyOptions options;
  options.warmupSamples = 8;
  EwmaDetector detector(options);
  for (int i = 0; i < 7; ++i) {
    // Wild swings, but still warming up.
    const auto point = detector.observe(i % 2 == 0 ? 0.0 : 1000.0);
    EXPECT_FALSE(point.anomalous) << "sample " << i;
  }
  EXPECT_EQ(detector.samples(), 7u);
}

TEST(EwmaDetectorTest, SpikeAfterStableBaselineFlags) {
  EwmaDetector detector;
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(detector.observe(10.0).anomalous);
  }
  const auto spike = detector.observe(10.5);
  // Flat series: stddev is floored at kMinStdDev, so even a small jump
  // is many sigmas out.
  EXPECT_TRUE(spike.anomalous);
  EXPECT_GT(spike.z, EwmaDetector::kZThreshold);
  EXPECT_NEAR(spike.mean, 10.0, 1e-9);
}

TEST(EwmaDetectorTest, LevelShiftFlagsThenReconverges) {
  EwmaDetector detector;
  for (int i = 0; i < 20; ++i) detector.observe(10.0);

  EXPECT_TRUE(detector.observe(50.0).anomalous);
  // The mean keeps adapting after the flag, so a persistent shift
  // becomes the new normal within a handful of samples.
  bool recovered = false;
  for (int i = 0; i < 20 && !recovered; ++i) {
    recovered = !detector.observe(50.0).anomalous;
  }
  EXPECT_TRUE(recovered);
  for (int i = 0; i < 10; ++i) detector.observe(50.0);
  EXPECT_NEAR(detector.mean(), 50.0, 5.0);
}

TEST(EwmaDetectorTest, FlagLowOnlyIgnoresHighSpikes) {
  AnomalyOptions options;
  options.flagHigh = false;
  options.flagLow = true;
  EwmaDetector detector(options);
  for (int i = 0; i < 20; ++i) detector.observe(10.0);
  EXPECT_FALSE(detector.observe(100.0).anomalous);
  EXPECT_TRUE(detector.observe(-100.0).anomalous);
}

TEST(EwmaDetectorTest, NonFiniteSamplesAreIgnored) {
  EwmaDetector detector;
  for (int i = 0; i < 10; ++i) detector.observe(10.0);
  const std::uint64_t samplesBefore = detector.samples();
  const double meanBefore = detector.mean();

  EXPECT_FALSE(detector.observe(std::numeric_limits<double>::quiet_NaN()).anomalous);
  EXPECT_FALSE(detector.observe(std::numeric_limits<double>::infinity()).anomalous);
  EXPECT_EQ(detector.samples(), samplesBefore);
  EXPECT_DOUBLE_EQ(detector.mean(), meanBefore);
}

TEST(EwmaDetectorTest, ResetForgetsHistory) {
  EwmaDetector detector;
  for (int i = 0; i < 20; ++i) detector.observe(10.0);
  detector.reset();
  EXPECT_EQ(detector.samples(), 0u);
  // Post-reset it is warming up again: no flags.
  EXPECT_FALSE(detector.observe(1000.0).anomalous);
}

}  // namespace
}  // namespace lidc::telemetry
