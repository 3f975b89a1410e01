// ClusterOverlay: the loosely coupled overlay of compute clusters the
// paper builds (SI: "a loosely coupled overlay of compute clusters
// using named cluster endpoints"). Clusters join and leave at runtime;
// routes for the LIDC namespaces are (un)installed automatically, so
// clients keep expressing the same names regardless of which clusters
// currently exist — the location-independence property.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/compute_cluster.hpp"
#include "net/topology.hpp"

namespace lidc::core {

/// Which forwarding strategy the overlay uses for /ndn/k8s/compute.
enum class PlacementStrategy {
  kBestRoute,    // nearest cluster (lowest path latency), failover on nack
  kLoadBalance,  // SRTT-weighted spread across clusters
  kMulticast,    // flood (first answer wins)
  kRoundRobin,   // rotate
  kAsf,          // observed-RTT best with periodic probing
};

/// Parses a strategy name ("best-route", "load-balance", "multicast",
/// "round-robin", "asf"); nullopt for anything else.
std::optional<PlacementStrategy> parsePlacementStrategy(std::string_view name);

class ClusterOverlay {
 public:
  explicit ClusterOverlay(sim::Simulator& sim) : topology_(sim) {}

  [[nodiscard]] net::Topology& topology() noexcept { return topology_; }
  [[nodiscard]] sim::Simulator& simulator() noexcept {
    return topology_.simulator();
  }

  /// Plain forwarder node (client host or intermediate router).
  ndn::Forwarder& addNode(const std::string& name) {
    return topology_.addNode(name);
  }

  /// Creates a topology node named config.name hosting a ComputeCluster.
  ComputeCluster& addCluster(ComputeClusterConfig config);

  [[nodiscard]] ComputeCluster* cluster(const std::string& name);
  [[nodiscard]] std::vector<std::string> clusterNames() const;

  /// Connects two nodes with a link.
  void connect(const std::string& a, const std::string& b, net::LinkParams params) {
    topology_.connect(a, b, params);
  }

  /// Announces a cluster into the overlay: installs routes at every node
  /// for /ndn/k8s/compute, /ndn/k8s/data, and /ndn/k8s/status/<cluster>
  /// toward it. Call after its links exist. `computeExtraCostUs` biases
  /// only the compute-prefix routes (adaptive placement, paper SVII).
  void announceCluster(const std::string& name,
                       std::uint64_t computeExtraCostUs = 0);

  /// Withdraws a cluster's routes (cluster leaving the overlay). The
  /// cluster object and node survive; re-announce to rejoin.
  void withdrawCluster(const std::string& name);

  /// Re-announces every currently announced cluster. Needed after the
  /// topology grows: route installation only reaches nodes that existed
  /// when announceCluster() ran, so nodes added later (e.g. a cluster
  /// joining the overlay) call this to learn paths to their peers.
  void refreshAnnouncements();

  /// Withdraw + take all of the cluster's links down (simulated outage).
  void failCluster(const std::string& name);
  /// Bring links back + re-announce.
  void recoverCluster(const std::string& name);

  /// Applies a forwarding strategy for the compute prefix at every node.
  /// (New nodes added later need another call.)
  void setPlacementStrategy(PlacementStrategy strategy, std::uint64_t seed = 99);

  /// Hooks every current node and cluster into `registry` (and `tracer`,
  /// when given): forwarder counters everywhere, plus gateway counters,
  /// capacity gauges, and a /ndn/k8s/telemetry publisher per cluster.
  /// Like setPlacementStrategy(), nodes added later need another call.
  void attachTelemetry(telemetry::MetricsRegistry& registry,
                       telemetry::Tracer* tracer = nullptr);

  /// Points every current node's forwarder and every cluster's gateway
  /// at `recorder` (see FlightRecorder). Nodes added later need another
  /// call; null detaches.
  void attachFlightRecorder(telemetry::FlightRecorder* recorder);

  /// Attaches the traffic observability plane to every current cluster:
  /// each gets its own FlowAccountant (tapping its forwarder's link
  /// faces), and per-link capacities are learned from the topology's
  /// edge bandwidths so utilization is computable. Like
  /// attachTelemetry(), clusters/links added later need another call.
  void enableFlowAccounting();

 private:
  net::Topology topology_;
  std::map<std::string, std::unique_ptr<ComputeCluster>> clusters_;
  std::vector<std::string> announced_;
};

}  // namespace lidc::core
