// JobManager: translates validated ComputeRequests into Kubernetes Jobs
// on one cluster and answers status queries in LIDC's four states
// (paper SIV-A: Completed / Failed / Running / Pending).
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common/status.hpp"
#include "core/semantic_name.hpp"
#include "core/wire_format.hpp"
#include "k8s/cluster.hpp"

namespace lidc::core {

class JobManager {
 public:
  JobManager(k8s::Cluster& cluster, std::string namespaceName = "ndnk8s")
      : cluster_(cluster), namespace_(std::move(namespaceName)) {}

  /// Maps a semantic application name (what users write, e.g. "BLAST")
  /// to a cluster application image (e.g. "magic-blast").
  void mapAppToImage(const std::string& app, const std::string& image) {
    app_images_[app] = image;
  }
  [[nodiscard]] bool hasApp(const std::string& app) const;

  /// Launches a K8s Job for the request; returns the LIDC job id.
  /// Multi-tenant isolation (the paper's multi-organizational setting):
  /// a "tenant=<name>" parameter routes the job into namespace
  /// "tenant-<name>", where per-organization ResourceQuotas apply.
  /// `priorityClass` flows onto the JobSpec so higher classes jump the
  /// scheduler's unschedulable queue under saturation.
  Result<std::string> submit(const ComputeRequest& request,
                             int priorityClass = 0);

  /// The namespace a request's job would run in.
  [[nodiscard]] std::string namespaceFor(const ComputeRequest& request) const;

  /// The job's status reply, in LIDC's four states.
  [[nodiscard]] Result<JobStatusSnapshot> status(const std::string& jobId) const;

  /// Forgets a job id and deletes its K8s Job and Pods: status() then
  /// returns NotFound. The gateway calls it when it retires the job's
  /// record, so K8s state lives exactly as long as its status entry.
  void retire(const std::string& jobId);

  /// Defaults applied when the request omits resources.
  static constexpr std::uint64_t kDefaultCpuMillicores = 1000;
  static ByteSize defaultMemory() { return ByteSize::fromGiB(1); }
  /// The resources a request's job asks for, defaults filled in.
  static k8s::Resources requestsFor(const ComputeRequest& request);

 private:
  k8s::Cluster& cluster_;
  std::string namespace_;
  std::map<std::string, std::string> app_images_;
  /// jobId -> namespace the job lives in (job name == jobId).
  std::map<std::string, std::string> job_namespaces_;
  std::uint64_t next_job_seq_ = 0;
};

}  // namespace lidc::core
