// Baseline: a logically centralized multi-cluster controller in the
// style of K8s federation / Virtual Kubelet (what the paper argues
// against, SI). Clients submit jobs to the controller over simulated
// RPC; the controller keeps a manually configured registry of clusters,
// picks one (least loaded), and forwards the job. Properties the benches
// contrast with LIDC:
//   - single point of failure: controller down => nothing places;
//   - failure detection by heartbeat: a dead cluster keeps receiving
//     jobs until the next heartbeat, unlike NDN's immediate nack
//     failover;
//   - manual configuration: clusters must be registered by an operator.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "common/status.hpp"
#include "core/compute_cluster.hpp"
#include "core/semantic_name.hpp"
#include "sim/simulator.hpp"

namespace lidc::core {

class CentralizedController {
 public:
  /// How long a change in a cluster's reachability stays unseen.
  static constexpr sim::Duration kHeartbeatInterval = sim::Duration::seconds(10);

  explicit CentralizedController(sim::Simulator& sim) : sim_(sim) {}

  /// Manual operator step: add a cluster with its controller<->cluster
  /// RPC latency.
  void registerCluster(ComputeCluster& cluster, sim::Duration rpcLatency);
  void unregisterCluster(const std::string& name);

  /// Controller outage injection (the single point of failure).
  void setDown(bool down) noexcept { down_ = down; }

  /// Cluster outage injection: the controller does NOT see this until
  /// its next heartbeat; meanwhile it keeps scheduling onto the corpse.
  void setClusterReachable(const std::string& name, bool reachable);

  struct SubmitAck {
    std::string jobId;
    std::string cluster;
    sim::Duration latency;
  };
  using SubmitCallback = std::function<void(Result<SubmitAck>)>;

  /// Client-side submission (RPC to the controller and back).
  void submit(const ComputeRequest& request, SubmitCallback done);

  struct StatusReport {
    k8s::JobState state = k8s::JobState::kPending;
    std::string resultPath;
    std::uint64_t outputBytes = 0;
  };
  using StatusCallback = std::function<void(Result<StatusReport>)>;
  void queryStatus(const std::string& jobId, StatusCallback done);

  [[nodiscard]] std::uint64_t jobsPlaced() const noexcept { return placed_; }
  [[nodiscard]] std::uint64_t jobsLost() const noexcept { return lost_; }

 private:
  struct ClusterEntry {
    ComputeCluster* cluster = nullptr;
    sim::Duration rpcLatency;
    bool reachable = true;       // ground truth
    bool believedAlive = true;   // view as of the last heartbeat
    sim::Time lastChange;        // when ground truth last changed
  };

  /// Heartbeat semantics without a periodic event: the controller's
  /// belief catches up with ground truth only once a full heartbeat
  /// interval has elapsed since the change.
  void refreshBelief(ClusterEntry& entry);
  /// Least-loaded selection among clusters believed alive.
  [[nodiscard]] ClusterEntry* pickCluster(const ComputeRequest& request);

  sim::Simulator& sim_;
  bool down_ = false;
  std::map<std::string, ClusterEntry> clusters_;
  std::map<std::string, std::string> job_locations_;  // jobId -> cluster
  std::uint64_t placed_ = 0;
  std::uint64_t lost_ = 0;
};

}  // namespace lidc::core
