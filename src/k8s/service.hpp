// Kubernetes Service: a named, stable endpoint selecting a set of pods
// by labels. Services get cluster DNS names
// ("<svc>.<ns>.svc.cluster.local") — the naming mechanism LIDC uses to
// bind semantic job names to concrete application endpoints (paper SIII-B).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "k8s/resources.hpp"

namespace lidc::k8s {

enum class ServiceType { kClusterIp, kNodePort };

struct ServiceSpec {
  ServiceType type = ServiceType::kClusterIp;
  Labels selector;
  std::uint16_t port = 80;
  /// NodePort assigned by the control plane from 30000-32767 (0 = auto).
  std::uint16_t nodePort = 0;
};

class Service {
 public:
  Service(std::string name, std::string namespaceName, ServiceSpec spec)
      : name_(std::move(name)),
        namespace_(std::move(namespaceName)),
        spec_(std::move(spec)) {}

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const std::string& namespaceName() const noexcept { return namespace_; }
  [[nodiscard]] const ServiceSpec& spec() const noexcept { return spec_; }

  /// The in-cluster DNS name, e.g. "dl-nfd.ndnk8s.svc.cluster.local".
  [[nodiscard]] std::string dnsName() const {
    return name_ + "." + namespace_ + ".svc.cluster.local";
  }

  [[nodiscard]] std::uint16_t nodePort() const noexcept { return spec_.nodePort; }

  [[nodiscard]] const std::string& clusterIp() const noexcept { return cluster_ip_; }
  void setClusterIp(std::string ip) { cluster_ip_ = std::move(ip); }

 private:
  std::string name_;
  std::string namespace_;
  ServiceSpec spec_;
  std::string cluster_ip_;
};

}  // namespace lidc::k8s
