// Named object storage over a K8s PVC: maps NDN content names to files
// on the claim, exactly as the paper's data lake serves "/ndn/k8s/data"
// out of an NFS-backed PVC (SIV, SV-B).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "k8s/pvc.hpp"
#include "ndn/name.hpp"

namespace lidc::datalake {

class ObjectStore {
 public:
  explicit ObjectStore(k8s::PersistentVolumeClaim& pvc,
                       std::string rootPrefix = "objects")
      : pvc_(pvc), root_(std::move(rootPrefix)) {}

  /// Charges a tenant-attributed put against a quota before storing;
  /// a non-Ok return aborts the put (QoS wires this to
  /// TenantRegistry::chargePublish).
  using QuotaCharger =
      std::function<Status(const std::string& tenant, std::uint64_t bytes)>;
  void setQuotaCharger(QuotaCharger charger) {
    quota_charger_ = std::move(charger);
  }

  /// Stores bytes under a content name (replaces any existing object).
  Status put(const ndn::Name& name, std::vector<std::uint8_t> bytes);
  /// Tenant-attributed put: the bytes are charged against the tenant's
  /// publish quota first (no-op without a charger).
  Status put(const ndn::Name& name, std::vector<std::uint8_t> bytes,
             const std::string& tenant);
  Status putText(const ndn::Name& name, std::string_view text);

  [[nodiscard]] std::optional<std::vector<std::uint8_t>> get(
      const ndn::Name& name) const;
  /// The object's bytes in place, or null when it is absent: one lookup
  /// for a reader that needs both the size and a range. Valid until the
  /// next put or remove.
  [[nodiscard]] const std::vector<std::uint8_t>* find(const ndn::Name& name) const;
  [[nodiscard]] bool contains(const ndn::Name& name) const;
  [[nodiscard]] std::optional<std::uint64_t> sizeOf(const ndn::Name& name) const;
  Status remove(const ndn::Name& name);
  /// Idempotent remove: absent objects are OK, not NotFound — the
  /// eviction/repair planes erase without checking first.
  Status erase(const ndn::Name& name);

  /// Bytes held by objects under this store's root prefix.
  [[nodiscard]] std::uint64_t bytesStored() const;
  /// Capacity of the backing claim (shared with non-object files).
  [[nodiscard]] std::uint64_t capacityBytes() const;

  /// All object names under a name prefix.
  [[nodiscard]] std::vector<ndn::Name> list(const ndn::Name& prefix) const;

  [[nodiscard]] k8s::PersistentVolumeClaim& volume() noexcept { return pvc_; }

 private:
  [[nodiscard]] std::string pathFor(const ndn::Name& name) const {
    return root_ + name.toUri();
  }
  /// Distinct over-capacity rejection (before any quota charge), so
  /// staging planes can tell "lake full" from other put failures.
  [[nodiscard]] Status ensureCapacityFor(const ndn::Name& name,
                                         std::uint64_t incoming) const;

  k8s::PersistentVolumeClaim& pvc_;
  std::string root_;
  QuotaCharger quota_charger_;
};

}  // namespace lidc::datalake
