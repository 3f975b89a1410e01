#include "core/overlay.hpp"

#include <algorithm>
#include <cassert>

#include "core/checkpoint_format.hpp"
#include "replica/catalog.hpp"

namespace lidc::core {

std::optional<PlacementStrategy> parsePlacementStrategy(std::string_view name) {
  if (name == "best-route") return PlacementStrategy::kBestRoute;
  if (name == "load-balance") return PlacementStrategy::kLoadBalance;
  if (name == "multicast") return PlacementStrategy::kMulticast;
  if (name == "round-robin") return PlacementStrategy::kRoundRobin;
  if (name == "asf") return PlacementStrategy::kAsf;
  return std::nullopt;
}

ComputeCluster& ClusterOverlay::addCluster(ComputeClusterConfig config) {
  assert(clusters_.count(config.name) == 0 && "duplicate cluster name");
  ndn::Forwarder& forwarder = topology_.addNode(config.name);
  auto host = std::make_unique<ComputeCluster>(forwarder, config);
  auto [it, inserted] = clusters_.emplace(config.name, std::move(host));
  return *it->second;
}

ComputeCluster* ClusterOverlay::cluster(const std::string& name) {
  auto it = clusters_.find(name);
  return it == clusters_.end() ? nullptr : it->second.get();
}

std::vector<std::string> ClusterOverlay::clusterNames() const {
  std::vector<std::string> names;
  names.reserve(clusters_.size());
  for (const auto& [name, host] : clusters_) names.push_back(name);
  return names;
}

void ClusterOverlay::announceCluster(const std::string& name,
                                     std::uint64_t computeExtraCostUs) {
  assert(clusters_.count(name) > 0);
  topology_.installRoutesTo(kComputePrefix, name, computeExtraCostUs);
  // Tenant-scoped submits follow the same anycast bias as bare compute.
  topology_.installRoutesTo(kSubmitPrefix, name, computeExtraCostUs);
  topology_.installRoutesTo(kDataPrefix, name);
  // Checkpoints are anycast like datasets: any cluster whose lake holds
  // (a replica of) a checkpoint can serve its restore.
  topology_.installRoutesTo(kCkptPrefix, name);
  ndn::Name statusPrefix = kStatusPrefix;
  statusPrefix.append(name);
  topology_.installRoutesTo(statusPrefix, name);
  ndn::Name infoPrefix = kInfoPrefix;
  infoPrefix.append(name);
  topology_.installRoutesTo(infoPrefix, name);
  topology_.installRoutesTo(kPublishPrefix, name);
  ndn::Name telemetryPrefix = telemetry::kTelemetryPrefix;
  telemetryPrefix.append(name);
  topology_.installRoutesTo(telemetryPrefix, name);
  // The replica catalog publishes under its own per-cluster prefix so
  // directories can scrape any cluster's replica map by name.
  ndn::Name replicaPrefix = replica::kReplicaPrefix;
  replicaPrefix.append(name);
  topology_.installRoutesTo(replicaPrefix, name);
  if (std::find(announced_.begin(), announced_.end(), name) == announced_.end()) {
    announced_.push_back(name);
  }
}

void ClusterOverlay::withdrawCluster(const std::string& name) {
  topology_.uninstallRoutesTo(kComputePrefix, name);
  topology_.uninstallRoutesTo(kSubmitPrefix, name);
  topology_.uninstallRoutesTo(kDataPrefix, name);
  topology_.uninstallRoutesTo(kCkptPrefix, name);
  ndn::Name statusPrefix = kStatusPrefix;
  statusPrefix.append(name);
  topology_.uninstallRoutesTo(statusPrefix, name);
  ndn::Name infoPrefix = kInfoPrefix;
  infoPrefix.append(name);
  topology_.uninstallRoutesTo(infoPrefix, name);
  topology_.uninstallRoutesTo(kPublishPrefix, name);
  ndn::Name telemetryPrefix = telemetry::kTelemetryPrefix;
  telemetryPrefix.append(name);
  topology_.uninstallRoutesTo(telemetryPrefix, name);
  ndn::Name replicaPrefix = replica::kReplicaPrefix;
  replicaPrefix.append(name);
  topology_.uninstallRoutesTo(replicaPrefix, name);
  std::erase(announced_, name);
}

void ClusterOverlay::refreshAnnouncements() {
  const std::vector<std::string> current = announced_;
  for (const auto& name : current) {
    withdrawCluster(name);
    announceCluster(name);
  }
}

void ClusterOverlay::failCluster(const std::string& name) {
  withdrawCluster(name);
  for (const auto& edge : topology_.edges()) {
    if (edge.a == name || edge.b == name) edge.link->setUp(false);
  }
}

void ClusterOverlay::recoverCluster(const std::string& name) {
  for (const auto& edge : topology_.edges()) {
    if (edge.a == name || edge.b == name) edge.link->setUp(true);
  }
  announceCluster(name);
}

void ClusterOverlay::attachTelemetry(telemetry::MetricsRegistry& registry,
                                     telemetry::Tracer* tracer) {
  // Clusters attach their own forwarder (plus gateway, gauges, and the
  // telemetry publisher); plain nodes just get forwarder counters.
  for (auto& [name, host] : clusters_) host->attachTelemetry(registry, tracer);
  for (const auto& nodeName : topology_.nodeNames()) {
    if (clusters_.count(nodeName) > 0) continue;
    topology_.node(nodeName)->attachTelemetry(registry, tracer);
  }
}

void ClusterOverlay::attachFlightRecorder(telemetry::FlightRecorder* recorder) {
  for (auto& [name, host] : clusters_) host->setFlightRecorder(recorder);
  for (const auto& nodeName : topology_.nodeNames()) {
    if (clusters_.count(nodeName) > 0) continue;
    topology_.node(nodeName)->setFlightRecorder(recorder);
  }
}

void ClusterOverlay::enableFlowAccounting() {
  for (auto& [name, host] : clusters_) host->enableFlowAccounting();
  // Capacities come from the topology: each directional face URI
  // belongs to the accountant of the cluster at its near end.
  for (const auto& edge : topology_.edges()) {
    const double bits = edge.link->params().bandwidthBitsPerSec;
    if (auto it = clusters_.find(edge.a); it != clusters_.end()) {
      it->second->flowAccountant()->setLinkCapacity(
          "link://" + edge.a + "->" + edge.b, bits);
    }
    if (auto it = clusters_.find(edge.b); it != clusters_.end()) {
      it->second->flowAccountant()->setLinkCapacity(
          "link://" + edge.b + "->" + edge.a, bits);
    }
  }
}

void ClusterOverlay::setPlacementStrategy(PlacementStrategy strategy,
                                          std::uint64_t seed) {
  for (const auto& nodeName : topology_.nodeNames()) {
    ndn::Forwarder* forwarder = topology_.node(nodeName);
    std::unique_ptr<ndn::Strategy> instance;
    switch (strategy) {
      case PlacementStrategy::kBestRoute:
        instance = std::make_unique<ndn::BestRouteStrategy>(*forwarder);
        break;
      case PlacementStrategy::kLoadBalance:
        instance = std::make_unique<ndn::LoadBalanceStrategy>(
            *forwarder, seed ^ std::hash<std::string>{}(nodeName));
        break;
      case PlacementStrategy::kMulticast:
        instance = std::make_unique<ndn::MulticastStrategy>(*forwarder);
        break;
      case PlacementStrategy::kRoundRobin:
        instance = std::make_unique<ndn::RoundRobinStrategy>(*forwarder);
        break;
      case PlacementStrategy::kAsf:
        instance = std::make_unique<ndn::AsfStrategy>(
            *forwarder, seed ^ std::hash<std::string>{}(nodeName));
        break;
    }
    forwarder->setStrategy(kComputePrefix, std::move(instance));
  }
}

}  // namespace lidc::core
