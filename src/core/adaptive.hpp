// Adaptive placement — the paper's SVII "intelligence in the control
// plane": "the network [can] identify the most suitable cluster for
// executing requests ... based on computing and timing requirements,
// data size, past performances, and other factors."
//
// AdaptivePlacement watches per-cluster observed completion latency and
// current resource utilization, converts them into an extra route cost,
// and re-announces each cluster's compute prefix with that bias. The
// BestRoute strategy then steers new jobs toward the cluster expected
// to finish them soonest — no client involvement.
//
// Driving: call recordCompletion() as jobs finish and tick() on
// whatever cadence the deployment wants (benches tick once per
// simulated second). Updates are explicit rather than self-scheduling
// so simulations that run()-to-idle terminate.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "core/client.hpp"
#include "core/overlay.hpp"
#include "sim/time.hpp"

namespace lidc::core {

struct AdaptiveOptions {
  /// Extra cost per second of observed mean completion latency, in
  /// microseconds of equivalent link distance.
  double latencyCostUsPerSecond = 2'000.0;
  /// Extra cost at 100% cpu utilization.
  double loadCostUs = 100'000.0;
  /// EWMA smoothing for observed completion latency.
  double alpha = 0.3;
  /// Re-announce only when a cluster's cost moved by at least this much
  /// (hysteresis; avoids FIB churn).
  std::uint64_t updateThresholdUs = 5'000;
  /// Extra cost as telemetry-reported health degrades, scaled by
  /// (1 - score); only clusters fed via observeHealth() pay it.
  double healthCostUs = 500'000.0;
  /// At or below this health the cluster additionally pays
  /// unhealthyExtraCostUs, so even the most distant healthy cluster
  /// wins the route before the degraded one hard-fails jobs.
  double unhealthyThreshold = 0.25;
  double unhealthyExtraCostUs = 1'000'000.0;
  /// Extra cost while a cluster's circuit breaker is open (see
  /// LidcClient breakers; wire the breakerListener to observeBreaker).
  /// Large enough that any breaker-closed cluster wins the route —
  /// gray clusters pass health probes, so only outcome-driven breakers
  /// catch them.
  double breakerCostUs = 2'000'000.0;
};

class AdaptivePlacement {
 public:
  AdaptivePlacement(ClusterOverlay& overlay, AdaptiveOptions options = {})
      : overlay_(overlay), options_(options) {}

  /// Feeds one observed end-to-end completion (submit -> terminal).
  void recordCompletion(const std::string& cluster, sim::Duration totalLatency);

  /// Feeds a telemetry-plane health score in [0, 1] (see
  /// TelemetryCollector::healthScore); wire a collector health listener
  /// to this + tick() to close the steering loop.
  void observeHealth(const std::string& cluster, double score);

  /// Last health score fed for a cluster (1.0 if never fed).
  [[nodiscard]] double observedHealth(const std::string& cluster) const;

  /// Feeds a circuit-breaker transition: while `open` the cluster pays
  /// breakerCostUs on its compute route. Wire a client's breakerListener
  /// to this + tick() so tripped clusters stop receiving new jobs at
  /// the routing layer (half-open probes still reach them once the
  /// breaker lifts). Any non-closed state counts as open here.
  void observeBreaker(const std::string& cluster, bool open);

  /// True when the last observeBreaker() for the cluster reported open.
  [[nodiscard]] bool breakerOpen(const std::string& cluster) const;

  /// Feeds a cluster's /ndn/k8s/info advertisement. When info has been
  /// observed for a cluster, load costing uses the advertised free/total
  /// capacity instead of peeking at the cluster object — the pure
  /// "network learns over names" mode of SVII.
  void observeInfo(const ClusterInfo& info);

  /// Recomputes per-cluster extra costs and re-announces the compute
  /// routes for clusters whose cost moved beyond the threshold.
  /// Returns the number of clusters re-announced.
  int tick();

  /// Current extra cost assigned to a cluster (0 if never updated).
  [[nodiscard]] std::uint64_t extraCostUs(const std::string& cluster) const;

  [[nodiscard]] std::uint64_t updatesApplied() const noexcept { return updates_; }

 private:
  [[nodiscard]] std::uint64_t computeCost(const std::string& cluster) const;

  ClusterOverlay& overlay_;
  AdaptiveOptions options_;
  std::map<std::string, double> observed_latency_s_;  // EWMA per cluster
  std::map<std::string, double> advertised_utilization_;  // from /info
  std::map<std::string, double> observed_health_;     // from telemetry
  std::map<std::string, bool> breaker_open_;          // from client breakers
  std::map<std::string, std::uint64_t> applied_cost_us_;
  std::uint64_t updates_ = 0;
};

}  // namespace lidc::core
