// TenantRegistry: who is allowed to submit, how much they are entitled
// to, and how they rank under contention. Every science collaboration
// (VO) sharing the federation registers once; gateways consult the
// registry on each tenant-scoped submit Interest and the ObjectStore
// charges data-lake publishes against the tenant's byte budget.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "telemetry/metrics.hpp"

namespace lidc::qos {

/// Per-tenant entitlements. Zero means unlimited for that resource.
struct TenantQuota {
  /// CPU across queued + in-flight jobs, in millicores.
  std::uint64_t maxCpuMillicores = 0;
  /// Memory across queued + in-flight jobs, in bytes.
  std::uint64_t maxMemoryBytes = 0;
  /// Jobs queued + launched but not yet terminal.
  std::uint64_t maxJobsInFlight = 0;
  /// Cumulative data-lake publish budget, in bytes.
  std::uint64_t maxPublishBytes = 0;
  /// Submit-rate token bucket: refill per second (0 = unlimited) and
  /// burst capacity.
  double submitRatePerSec = 0.0;
  double submitBurst = 8.0;
};

struct TenantSpec {
  std::string id;
  /// Relative fair share under contention (DRR weight). Must be > 0.
  double weight = 1.0;
  /// Higher classes may preempt lower-priority *queued* work when the
  /// admission queue saturates; running work is never preempted.
  int priorityClass = 0;
  TenantQuota quota;
};

/// True for ids usable both as NDN name components and as k8s namespace
/// suffixes: lowercase alphanumerics and '-', 1..48 chars.
bool isValidTenantId(const std::string& id) noexcept;

class TenantRegistry {
 public:
  /// Rejects invalid ids, non-positive weights, and duplicates.
  Status registerTenant(TenantSpec spec);

  [[nodiscard]] const TenantSpec* find(const std::string& id) const noexcept;
  [[nodiscard]] std::vector<std::string> ids() const;
  [[nodiscard]] std::size_t size() const noexcept { return tenants_.size(); }

  /// Charges `bytes` against the tenant's cumulative publish budget.
  /// NotFound for unknown tenants; ResourceExhausted once the budget
  /// would be exceeded (the publish is not applied).
  Status chargePublish(const std::string& id, std::uint64_t bytes);

  [[nodiscard]] std::uint64_t publishedBytes(const std::string& id) const noexcept;
  [[nodiscard]] std::uint64_t publishRejects(const std::string& id) const noexcept;

  /// Binds per-tenant publish accounting, for tenants registered before
  /// or after this call, into `registry` as lidc_qos_publish_bytes /
  /// lidc_qos_publish_rejected_total.
  void attachTelemetry(telemetry::MetricsRegistry& registry);

 private:
  struct Entry {
    TenantSpec spec;
    std::uint64_t publishedBytes = 0;
    std::uint64_t publishRejects = 0;
  };

  void bindTenant(const std::string& id, const Entry& entry);

  // Ordered so iteration (telemetry mirrors, preemption scans) is
  // deterministic across runs.
  std::map<std::string, Entry> tenants_;
  telemetry::MetricsRegistry* registry_ = nullptr;
};

}  // namespace lidc::qos
