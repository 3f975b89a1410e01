#include "core/centralized.hpp"

namespace lidc::core {

namespace {
/// One-way latency of a client <-> controller RPC.
constexpr sim::Duration kClientRpcLatency = sim::Duration::millis(20);
/// A client gives up on an RPC the controller does not answer.
constexpr sim::Duration kRpcTimeout = sim::Duration::seconds(5);
}  // namespace

void CentralizedController::registerCluster(ComputeCluster& cluster,
                                            sim::Duration rpcLatency) {
  clusters_[cluster.name()] =
      ClusterEntry{&cluster, rpcLatency, true, true, sim_.now()};
}

void CentralizedController::unregisterCluster(const std::string& name) {
  clusters_.erase(name);
}

void CentralizedController::setClusterReachable(const std::string& name,
                                                bool reachable) {
  auto it = clusters_.find(name);
  if (it == clusters_.end()) return;
  refreshBelief(it->second);  // settle the old state first
  it->second.reachable = reachable;
  it->second.lastChange = sim_.now();
  // believedAlive lags by up to a heartbeat interval, on purpose.
}

void CentralizedController::refreshBelief(ClusterEntry& entry) {
  if (sim_.now() - entry.lastChange >= kHeartbeatInterval) {
    entry.believedAlive = entry.reachable;
  }
}

CentralizedController::ClusterEntry* CentralizedController::pickCluster(
    const ComputeRequest& request) {
  k8s::Resources needed;
  needed.cpu = request.cpu.millicores() > 0 ? request.cpu : MilliCpu::fromCores(1);
  needed.memory =
      request.memory.bytes() > 0 ? request.memory : ByteSize::fromGiB(1);

  ClusterEntry* best = nullptr;
  double bestLoad = 2.0;
  for (auto& [name, entry] : clusters_) {
    refreshBelief(entry);
    if (!entry.believedAlive) continue;
    auto& k8sCluster = entry.cluster->cluster();
    if (!needed.fitsWithin(k8sCluster.totalFree())) continue;
    const auto allocatable = k8sCluster.totalAllocatable();
    const auto allocated = k8sCluster.totalAllocated();
    const double load =
        allocatable.cpu.millicores() == 0
            ? 1.0
            : static_cast<double>(allocated.cpu.millicores()) /
                  static_cast<double>(allocatable.cpu.millicores());
    if (load < bestLoad) {
      bestLoad = load;
      best = &entry;
    }
  }
  return best;
}

void CentralizedController::submit(const ComputeRequest& request,
                                   SubmitCallback done) {
  const sim::Time startedAt = sim_.now();
  // Client -> controller RPC leg.
  sim_.scheduleAfter(kClientRpcLatency, [this, request, done, startedAt] {
    if (down_) {
      // The controller is the single point of failure: the client's RPC
      // just times out.
      sim_.scheduleAfter(kRpcTimeout, [done] {
        done(Status::Unavailable("controller unreachable (RPC timeout)"));
      });
      return;
    }
    ClusterEntry* entry = pickCluster(request);
    if (entry == nullptr) {
      sim_.scheduleAfter(kClientRpcLatency, [done] {
        done(Status::ResourceExhausted("no registered cluster can fit the job"));
      });
      return;
    }
    // Controller -> cluster RPC leg.
    const std::string clusterName = entry->cluster->name();
    const sim::Duration toCluster = entry->rpcLatency;
    sim_.scheduleAfter(toCluster, [this, request, done, startedAt, clusterName,
                                   toCluster] {
      auto it = clusters_.find(clusterName);
      if (it == clusters_.end() || !it->second.reachable) {
        // The controller believed the cluster alive; the job is lost and
        // the client RPC fails only after the timeout.
        ++lost_;
        sim_.scheduleAfter(kRpcTimeout, [done] {
          done(Status::Unavailable("selected cluster did not respond"));
        });
        return;
      }
      auto jobId = it->second.cluster->gateway().jobs().submit(request);
      // Reply legs: cluster -> controller -> client.
      const sim::Duration replyLatency = toCluster + kClientRpcLatency;
      if (!jobId.ok()) {
        const Status failure = jobId.status();
        sim_.scheduleAfter(replyLatency, [done, failure] { done(failure); });
        return;
      }
      ++placed_;
      job_locations_[*jobId] = clusterName;
      const std::string id = *jobId;
      sim_.scheduleAfter(replyLatency, [this, done, id, clusterName, startedAt] {
        done(SubmitAck{id, clusterName, sim_.now() - startedAt});
      });
    });
  });
}

void CentralizedController::queryStatus(const std::string& jobId,
                                        StatusCallback done) {
  sim_.scheduleAfter(kClientRpcLatency, [this, jobId, done] {
    if (down_) {
      sim_.scheduleAfter(kRpcTimeout, [done] {
        done(Status::Unavailable("controller unreachable"));
      });
      return;
    }
    auto locationIt = job_locations_.find(jobId);
    if (locationIt == job_locations_.end()) {
      sim_.scheduleAfter(kClientRpcLatency, [done, jobId] {
        done(Status::NotFound("unknown job " + jobId));
      });
      return;
    }
    auto clusterIt = clusters_.find(locationIt->second);
    if (clusterIt == clusters_.end() || !clusterIt->second.reachable) {
      sim_.scheduleAfter(kRpcTimeout, [done] {
        done(Status::Unavailable("cluster holding the job is unreachable"));
      });
      return;
    }
    auto status = clusterIt->second.cluster->gateway().jobs().status(jobId);
    const sim::Duration replyLatency =
        clusterIt->second.rpcLatency * 2.0 + kClientRpcLatency;
    if (!status.ok()) {
      const Status failure = status.status();
      sim_.scheduleAfter(replyLatency, [done, failure] { done(failure); });
      return;
    }
    StatusReport report{status->state, status->resultPath, status->outputBytes};
    sim_.scheduleAfter(replyLatency, [done, report] { done(report); });
  });
}

}  // namespace lidc::core
