// Cluster DNS (CoreDNS stand-in): resolves service DNS names of the form
// "<service>.<namespace>.svc.cluster.local". The paper enables the
// MicroK8s DNS add-on precisely to give services stable names; LIDC maps
// NDN names onto these (paper SIII-B).
#pragma once

#include <optional>
#include <string>
#include <unordered_map>

namespace lidc::k8s {

class ClusterDns {
 public:
  /// Binds a DNS name to a service key ("namespace/name").
  void addRecord(const std::string& dnsName, const std::string& serviceKey) {
    records_[dnsName] = serviceKey;
  }
  void removeRecord(const std::string& dnsName) { records_.erase(dnsName); }

  /// Resolves a DNS name to the service key; nullopt for NXDOMAIN.
  [[nodiscard]] std::optional<std::string> resolve(const std::string& dnsName) const {
    auto it = records_.find(dnsName);
    if (it == records_.end()) return std::nullopt;
    return it->second;
  }

 private:
  std::unordered_map<std::string, std::string> records_;
};

}  // namespace lidc::k8s
