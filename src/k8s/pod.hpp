// Pod: the smallest schedulable execution unit, as in Kubernetes.
// Pods carry resource requests, labels (for Service selectors), and a
// lifecycle phase driven by the JobController / Deployment reconciler.
#pragma once

#include <cstdint>
#include <string>

#include "k8s/resources.hpp"
#include "sim/time.hpp"

namespace lidc::k8s {

enum class PodPhase { kPending, kRunning, kSucceeded, kFailed };

std::string_view podPhaseName(PodPhase phase) noexcept;

struct PodSpec {
  std::string image;        // application image name, e.g. "magic-blast"
  Resources requests;       // admission is by requests, as in K8s
  Labels labels;
  std::map<std::string, std::string> args;  // container arguments
  sim::Duration startupDelay = sim::Duration::millis(800);  // image pull + start
  /// Higher classes are retried first when capacity frees up (the
  /// scheduler's unschedulable queue is served priority-first, FIFO
  /// within a class).
  int priorityClass = 0;
};

class Pod {
 public:
  Pod(std::string name, std::string namespaceName, PodSpec spec)
      : name_(std::move(name)),
        namespace_(std::move(namespaceName)),
        spec_(std::move(spec)) {}

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const std::string& namespaceName() const noexcept { return namespace_; }
  [[nodiscard]] const PodSpec& spec() const noexcept { return spec_; }
  /// Vertical resize support; accounting is the Cluster's responsibility.
  void setRequests(const Resources& requests) noexcept {
    spec_.requests = requests;
  }

  [[nodiscard]] PodPhase phase() const noexcept { return phase_; }
  void setPhase(PodPhase phase) noexcept { phase_ = phase; }

  /// Node this pod is bound to; empty while Pending.
  [[nodiscard]] const std::string& nodeName() const noexcept { return node_; }
  void bindToNode(std::string node) { node_ = std::move(node); }

  [[nodiscard]] sim::Time startTime() const noexcept { return start_time_; }
  void setStartTime(sim::Time t) noexcept { start_time_ = t; }

  /// Simulated pod-internal IP (assigned at bind time).
  [[nodiscard]] const std::string& podIp() const noexcept { return pod_ip_; }
  void setPodIp(std::string ip) { pod_ip_ = std::move(ip); }

 private:
  std::string name_;
  std::string namespace_;
  PodSpec spec_;
  PodPhase phase_ = PodPhase::kPending;
  std::string node_;
  std::string pod_ip_;
  sim::Time start_time_;
};

}  // namespace lidc::k8s
