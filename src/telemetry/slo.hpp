// Declarative SLOs with multi-window burn-rate accounting (the
// SRE-workbook pattern): an objective like "submit success ratio >=
// 99%" defines an error budget of 1 - target; each configured window
// measures how fast that budget is being burned relative to the
// sustainable rate, and the SLO is breached only when EVERY window
// burns faster than its threshold — a short window for responsiveness
// plus a long window to reject blips.
//
// Trackers are fed flat series maps (MetricsRegistry::flatten() shape;
// the AlertEngine passes the SLO's own series from its value source) on
// the sim clock, so a fixed seed replays to byte-identical verdicts.
#pragma once

#include <deque>
#include <map>
#include <string>
#include <vector>

#include "sim/simulator.hpp"

namespace lidc::telemetry {

enum class SloKind {
  /// good/total cumulative counters; objective: good/total >= target.
  kSuccessRatio,
  /// A numeric series sampled per evaluation; objective: value <= bound
  /// for at least `target` of samples (e.g. "p99 latency < X").
  kUpperBound,
};

struct SloWindow {
  sim::Duration window;
  /// Breach contribution when the error budget burns at >= this
  /// multiple of the sustainable rate over the window.
  double maxBurnRate = 1.0;
};

struct SloSpec {
  std::string name;
  SloKind kind = SloKind::kSuccessRatio;
  /// Objective fraction in [0, 1); error budget is 1 - target.
  double target = 0.99;

  // kSuccessRatio:
  std::string goodSeries;
  std::string totalSeries;

  // kUpperBound:
  std::string valueSeries;
  double bound = 0.0;

  /// All windows must burn for the SLO to be breached.
  std::vector<SloWindow> windows;

  /// The series an alert on this SLO points at.
  [[nodiscard]] const std::string& primarySeries() const noexcept {
    return kind == SloKind::kSuccessRatio ? totalSeries : valueSeries;
  }
};

struct SloWindowStatus {
  sim::Duration window;
  double burnRate = 0.0;
  bool burning = false;
};

struct SloStatus {
  bool breached = false;
  /// Smallest burn rate across windows — the one gating the breach.
  double gatingBurnRate = 0.0;
  /// Current ratio (kSuccessRatio) or latest sampled value (kUpperBound).
  double currentValue = 0.0;
  std::vector<SloWindowStatus> windows;
};

/// Evaluates one SloSpec against successive samples of a series map.
class SloTracker {
 public:
  explicit SloTracker(SloSpec spec);

  [[nodiscard]] const SloSpec& spec() const noexcept { return spec_; }

  /// Records one sample at `now` and returns the verdict. Callers must
  /// feed monotonically non-decreasing times (the sim clock does).
  SloStatus evaluate(sim::Time now, const std::map<std::string, double>& values);

 private:
  struct Sample {
    sim::Time at;
    double good = 0.0;   // cumulative (ratio) or 1-if-within-bound
    double total = 0.0;  // cumulative (ratio) or 1 per sample
  };

  SloSpec spec_;
  std::deque<Sample> history_;
  sim::Duration longest_window_{};
};

}  // namespace lidc::telemetry
