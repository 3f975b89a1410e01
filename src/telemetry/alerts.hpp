// Alert rule engine: threshold, SLO burn-rate, and anomaly rules
// evaluated on the sim clock against a pluggable series lookup (e.g. a
// TelemetryCollector's scraped views via collectorValueSource() in
// monitor.hpp); an evaluation asks only for the series its rules
// read. Each rule owns at most one
// active alert; a fired alert snapshots the flight recorder's last-N
// event window, so explainAlert(id) renders rule, triggering series,
// reason, and recent structured events in one shot.
//
// serializedLog() is the cumulative fired/resolved transition log —
// deterministic text that TelemetryPublisher::addContentGroup() exposes
// as signed Data under /ndn/k8s/telemetry/<cluster>/alerts/, letting
// any collector scrape the alert plane with ordinary Interests.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/simulator.hpp"
#include "telemetry/anomaly.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/slo.hpp"

namespace lidc::telemetry {

enum class AlertComparison { kAbove, kBelow };

struct AlertEngineOptions {
  /// Flight-recorder events snapshotted into each fired alert.
  std::size_t eventWindow = 32;
  /// Period of start()ed background evaluation.
  sim::Duration evaluateInterval = sim::Duration::seconds(1);
};

struct Alert {
  std::uint64_t id = 0;
  std::string rule;
  std::string series;
  double value = 0.0;
  std::string reason;
  sim::Time firedAt;
  sim::Time resolvedAt;
  bool firing = true;
  /// Flight-recorder window captured at fire time.
  std::vector<FlightEvent> events;
};

class AlertEngine {
 public:
  /// Looks up one series; nullopt when it is absent.
  using ValueSource = std::function<std::optional<double>(std::string_view series)>;

  explicit AlertEngine(sim::Simulator& sim, AlertEngineOptions options = {});
  ~AlertEngine();

  void setValueSource(ValueSource source) { source_ = std::move(source); }
  void setFlightRecorder(FlightRecorder* recorder) { recorder_ = recorder; }

  /// Fires while `series cmp threshold` holds for `forCount`
  /// consecutive evaluations; resolves on the first non-breaching one.
  void addThresholdRule(std::string name, std::string series,
                        AlertComparison cmp, double threshold, int forCount = 1);
  /// Fires while all of the spec's burn-rate windows are burning.
  void addSloRule(SloSpec spec);
  /// Fires on EWMA z-score excursions of `series`.
  void addAnomalyRule(std::string name, std::string series,
                      AnomalyOptions options = {});

  /// One evaluation pass; returns the number of fired/resolved
  /// transitions it caused.
  int evaluate();

  /// Periodic evaluation on the sim clock; stop() is required before
  /// the simulation can drain.
  void start();
  void stop();
  [[nodiscard]] bool running() const noexcept { return running_; }

  [[nodiscard]] const std::vector<Alert>& alerts() const noexcept {
    return alerts_;
  }
  [[nodiscard]] const Alert* alert(std::uint64_t id) const;
  [[nodiscard]] std::size_t firingCount() const;
  [[nodiscard]] std::uint64_t firedTotal() const noexcept { return fired_; }
  [[nodiscard]] std::uint64_t resolvedTotal() const noexcept { return resolved_; }
  [[nodiscard]] std::uint64_t evaluations() const noexcept { return evaluations_; }

  /// Bumped on every fired/resolved transition; the alert content
  /// group's revision, so unchanged state keeps its publisher seq.
  [[nodiscard]] std::uint64_t revision() const noexcept { return revision_; }

  /// Post-mortem for one alert: rule, triggering series, reason, and
  /// the captured event window. Empty string for unknown ids.
  [[nodiscard]] std::string explainAlert(std::uint64_t id) const;

  /// Cumulative transition log ("t=..s alert=N rule=... state=fired
  /// series=... value=... events=K reason=..."), one line per
  /// transition, capped at kMaxLogLines (oldest dropped).
  [[nodiscard]] std::string serializedLog() const;

  /// Binds lidc_alerts_* counters/gauges into `registry`.
  void attachTelemetry(MetricsRegistry& registry);

 private:
  struct Rule {
    enum class Kind { kThreshold, kSlo, kAnomaly } kind = Kind::kThreshold;
    std::string name;
    std::string series;
    AlertComparison cmp = AlertComparison::kAbove;
    double threshold = 0.0;
    int forCount = 1;
    int consecutive = 0;
    std::unique_ptr<SloTracker> slo;
    std::unique_ptr<EwmaDetector> detector;
    std::uint64_t activeAlert = 0;  // 0 = not firing

    [[nodiscard]] std::string describe() const;
  };

  void fire(Rule& rule, double value, std::string reason);
  void resolve(Rule& rule, double value);
  void appendLog(const Alert& alert, bool fired);
  void evaluateTick();

  sim::Simulator& sim_;
  AlertEngineOptions options_;
  ValueSource source_;
  FlightRecorder* recorder_ = nullptr;
  std::vector<Rule> rules_;
  std::vector<Alert> alerts_;
  std::vector<std::string> log_lines_;
  std::uint64_t next_id_ = 0;
  std::uint64_t fired_ = 0;
  std::uint64_t resolved_ = 0;
  std::uint64_t evaluations_ = 0;
  std::uint64_t revision_ = 0;
  bool running_ = false;
  sim::EventHandle tick_;
};

}  // namespace lidc::telemetry
