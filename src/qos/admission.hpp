// AdmissionController: the gateway-side fair-share front door. Submit
// Interests are classified by tenant, gated by token-bucket rate limits
// and quota caps, then queued into a weighted fair queue — deficit
// round robin across tenants, strict FIFO within a tenant — that drains
// into the JobManager as downstream capacity allows.
//
// Rejections are explicit and cheap: over-quota work gets a distinct
// nack reason (kQuotaExceeded) the client maps to RESOURCE_EXHAUSTED
// with backoff, never a retry storm. When the shared queue saturates, a
// higher-priority tenant may preempt the newest *queued* entry of the
// lowest-priority tenant; running work is never preempted.
//
// Determinism: tenant state lives in an ordered map, the DRR ring is a
// deque mutated only by deterministic events, and every decision is
// appended to a decision log that is byte-identical across same-seed
// runs (the property the determinism tests pin).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <string_view>

#include "qos/tenant.hpp"
#include "qos/token_bucket.hpp"
#include "sim/simulator.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/flow.hpp"
#include "telemetry/metrics.hpp"

namespace lidc::qos {

struct AdmissionOptions {
  /// Deficit ceiling in quanta; bounds how large a burst an idle tenant
  /// can bank. The effective cap never drops below one job.
  double deficitCap = 4.0;
  std::size_t maxQueuePerTenant = 64;
  std::size_t maxQueueTotal = 256;
};

enum class AdmitDecision {
  kQueued,
  kRejectedUnknownTenant,
  kRejectedRate,
  kRejectedQuota,
  kRejectedQueueFull,
};

std::string_view admitDecisionName(AdmitDecision decision) noexcept;

/// One unit of work offered to the controller. launch() fires when the
/// DRR drain picks the entry; evict(reason) fires when a queued entry
/// is dropped instead ("preempted" or "expired").
struct AdmissionJob {
  std::string tenant;
  std::uint64_t cpuMillicores = 0;
  std::uint64_t memoryBytes = 0;
  /// Entries past this instant are dropped at drain time (zero = never).
  sim::Time expiresAt;
  /// Log/trace label, e.g. the request id.
  std::string tag;
  /// Wire size of the submit Interest, attributed to the tenant's
  /// "submit" flow when the job launches (flow accounting).
  std::uint64_t wireBytes = 0;
  std::function<void()> launch;
  std::function<void(const std::string& reason)> evict;
};

class AdmissionController {
 public:
  AdmissionController(sim::Simulator& sim, const TenantRegistry& tenants,
                      std::string cluster, AdmissionOptions options = {});

  /// Downstream capacity gate: drain launches only while probe(job)
  /// returns true (null probe = always launch).
  void setCapacityProbe(std::function<bool(const AdmissionJob&)> probe) {
    capacity_probe_ = std::move(probe);
  }
  /// Rejects, expiries and preemptions reach the recorder as "qos"
  /// events with their decisionLog() text; enqueues and admits do not.
  void setFlightRecorder(telemetry::FlightRecorder* recorder) noexcept {
    log_.setRecorder(recorder);
  }
  /// Flow attribution: launched jobs report their submit Interest's
  /// wire bytes per tenant into the accountant's transfer ledger
  /// (group "submit"). Null detaches.
  void setFlowAccountant(telemetry::FlowAccountant* accountant) noexcept {
    flow_ = accountant;
  }

  /// Classifies + gates the job. kQueued means the controller now owns
  /// it (launch or evict will fire exactly once, possibly synchronously
  /// from inside this call); any rejection means the caller keeps
  /// ownership and should nack.
  AdmitDecision offer(AdmissionJob job);

  /// Releases the in-flight charge of a previously launched job (call
  /// once it reaches a terminal state) and re-drains the queue.
  void releaseJob(const std::string& tenant, std::uint64_t cpuMillicores,
                  std::uint64_t memoryBytes);

  /// Runs DRR rounds until nothing more can launch.
  void drain();

  [[nodiscard]] std::size_t queueDepth() const noexcept { return queued_total_; }
  [[nodiscard]] std::size_t queueDepth(const std::string& tenant) const noexcept;
  [[nodiscard]] std::uint64_t jobsInFlight(const std::string& tenant) const noexcept;
  [[nodiscard]] std::uint64_t admitted(const std::string& tenant) const noexcept;
  /// All rejections for the tenant, or only those with `reason`
  /// ("rate", "quota", "queue-full").
  [[nodiscard]] std::uint64_t rejected(const std::string& tenant) const noexcept;
  [[nodiscard]] std::uint64_t rejected(const std::string& tenant,
                                       const std::string& reason) const noexcept;
  [[nodiscard]] std::uint64_t preempted(const std::string& tenant) const noexcept;
  [[nodiscard]] std::uint64_t expired(const std::string& tenant) const noexcept;
  [[nodiscard]] std::uint64_t rejectedUnknownTenant() const noexcept {
    return rejected_unknown_;
  }

  /// Deterministic decision log ("t=..s enqueue tenant=... tag=..."
  /// lines); byte-identical across same-seed runs.
  [[nodiscard]] const std::string& decisionLog() const noexcept { return log_.text(); }

  /// Binds admission state into `registry` as per-tenant labeled
  /// families (lidc_qos_admitted_total, lidc_qos_rejected_total{reason},
  /// lidc_qos_queue_depth, lidc_qos_jobs_in_flight, ...), each tenant
  /// and reject reason as it first appears, and starts feeding the
  /// per-tenant lidc_qos_queue_wait_us histogram.
  void attachTelemetry(telemetry::MetricsRegistry& registry);

 private:
  struct Pending {
    AdmissionJob job;
    sim::Time enqueuedAt;
  };

  struct TenantState {
    const TenantSpec* spec = nullptr;
    TokenBucket bucket;
    std::deque<Pending> queue;
    double deficit = 0.0;
    bool inRing = false;
    /// Quantum already granted for the current stay at the ring head.
    /// Accrual is per head *visit*, not per drain call: a tenant parked
    /// at the head by a capacity block must not keep banking deficit
    /// across the many drains its own flood triggers.
    bool headAccrued = false;
    std::uint64_t queuedCpu = 0;
    std::uint64_t queuedMem = 0;
    std::uint64_t inFlightJobs = 0;
    std::uint64_t inFlightCpu = 0;
    std::uint64_t inFlightMem = 0;
    std::uint64_t admitted = 0;
    std::uint64_t preempted = 0;
    std::uint64_t expired = 0;
    std::map<std::string, std::uint64_t> rejects;  // reason -> count
    /// lidc_qos_queue_wait_us{cluster,tenant}, resolved at first launch.
    telemetry::Histogram* queueWait = nullptr;
  };

  TenantState& stateFor(const TenantSpec& spec);
  void bindTenant(const std::string& id, const TenantState& st);
  void bindReject(const std::string& id, const std::string& reason,
                  const std::uint64_t& count);
  [[nodiscard]] const TenantState* stateOf(const std::string& tenant) const noexcept;
  /// Rotates the ring head to the back (or out of the ring when its
  /// queue is empty) and resets its per-visit accrual state.
  void rotateHead(TenantState& st);
  void launchFront(const std::string& id, TenantState& st);
  void dropExpired(const std::string& id, TenantState& st);
  /// On a saturated shared queue: evicts the newest queued entry of the
  /// lowest-priority tenant strictly below `incoming`. Returns true if
  /// a slot was freed.
  bool tryPreemptFor(const TenantSpec& incoming);
  void reject(TenantState& st, const std::string& id, const std::string& reason,
              const std::string& tag);
  void armTimer();

  sim::Simulator& sim_;
  const TenantRegistry& tenants_;
  std::string cluster_;
  AdmissionOptions options_;
  std::function<bool(const AdmissionJob&)> capacity_probe_;
  telemetry::MetricsRegistry* registry_ = nullptr;
  telemetry::FlowAccountant* flow_ = nullptr;

  std::map<std::string, TenantState> states_;  // ordered: deterministic
  std::deque<std::string> ring_;               // active tenants, DRR order
  std::size_t queued_total_ = 0;
  std::uint64_t rejected_unknown_ = 0;
  bool draining_ = false;
  bool timer_armed_ = false;
  telemetry::EventLog log_;
};

}  // namespace lidc::qos
