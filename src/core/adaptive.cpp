#include "core/adaptive.hpp"

#include <cmath>
#include <cstdlib>

#include "common/logging.hpp"

namespace lidc::core {

void AdaptivePlacement::recordCompletion(const std::string& cluster,
                                         sim::Duration totalLatency) {
  const double seconds = totalLatency.toSeconds();
  auto [it, inserted] = observed_latency_s_.try_emplace(cluster, seconds);
  if (!inserted) {
    it->second = (1.0 - options_.alpha) * it->second + options_.alpha * seconds;
  }
}

void AdaptivePlacement::observeHealth(const std::string& cluster, double score) {
  if (cluster.empty()) return;
  observed_health_[cluster] = score < 0.0 ? 0.0 : (score > 1.0 ? 1.0 : score);
}

double AdaptivePlacement::observedHealth(const std::string& cluster) const {
  auto it = observed_health_.find(cluster);
  return it == observed_health_.end() ? 1.0 : it->second;
}

void AdaptivePlacement::observeBreaker(const std::string& cluster, bool open) {
  if (cluster.empty()) return;
  breaker_open_[cluster] = open;
}

bool AdaptivePlacement::breakerOpen(const std::string& cluster) const {
  auto it = breaker_open_.find(cluster);
  return it != breaker_open_.end() && it->second;
}

void AdaptivePlacement::observeInfo(const ClusterInfo& info) {
  if (info.cluster.empty() || info.totalCpu.millicores() == 0) return;
  advertised_utilization_[info.cluster] =
      1.0 - static_cast<double>(info.freeCpu.millicores()) /
                static_cast<double>(info.totalCpu.millicores());
}

std::uint64_t AdaptivePlacement::computeCost(const std::string& cluster) const {
  double cost = 0.0;
  if (auto it = observed_latency_s_.find(cluster); it != observed_latency_s_.end()) {
    cost += options_.latencyCostUsPerSecond * it->second;
  }
  // Prefer load learned from /ndn/k8s/info advertisements; fall back to
  // reading the (in-process) cluster object when none were observed.
  if (auto it = advertised_utilization_.find(cluster);
      it != advertised_utilization_.end()) {
    cost += options_.loadCostUs * it->second;
  } else if (auto* host = const_cast<ClusterOverlay&>(overlay_).cluster(cluster);
             host != nullptr) {
    const auto allocatable = host->cluster().totalAllocatable();
    const auto allocated = host->cluster().totalAllocated();
    if (allocatable.cpu.millicores() > 0) {
      const double utilization =
          static_cast<double>(allocated.cpu.millicores()) /
          static_cast<double>(allocatable.cpu.millicores());
      cost += options_.loadCostUs * utilization;
    }
  }
  if (auto it = observed_health_.find(cluster); it != observed_health_.end()) {
    cost += options_.healthCostUs * (1.0 - it->second);
    if (it->second <= options_.unhealthyThreshold) {
      cost += options_.unhealthyExtraCostUs;
    }
  }
  if (auto it = breaker_open_.find(cluster); it != breaker_open_.end() && it->second) {
    cost += options_.breakerCostUs;
  }
  return static_cast<std::uint64_t>(std::llround(cost));
}

int AdaptivePlacement::tick() {
  int reannounced = 0;
  for (const auto& name : overlay_.clusterNames()) {
    const std::uint64_t cost = computeCost(name);
    const std::uint64_t applied =
        applied_cost_us_.count(name) > 0 ? applied_cost_us_.at(name) : 0;
    const std::uint64_t delta = cost > applied ? cost - applied : applied - cost;
    if (delta < options_.updateThresholdUs) continue;

    // Re-announce the compute prefix with the new bias. Withdrawing and
    // re-installing only touches /ndn/k8s/compute routes for this
    // producer; data and status routes are untouched.
    overlay_.topology().uninstallRoutesTo(kComputePrefix, name);
    overlay_.topology().installRoutesTo(kComputePrefix, name, cost);
    applied_cost_us_[name] = cost;
    ++reannounced;
    ++updates_;
    LIDC_LOG(kDebug, "adaptive")
        << "cluster " << name << " compute cost -> " << cost << "us";
  }
  return reannounced;
}

std::uint64_t AdaptivePlacement::extraCostUs(const std::string& cluster) const {
  auto it = applied_cost_us_.find(cluster);
  return it == applied_cost_us_.end() ? 0 : it->second;
}

}  // namespace lidc::core
