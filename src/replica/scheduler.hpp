// Transfer scheduler — the staging engine of the replica plane. One
// instance per destination cluster pulls named objects over the
// overlay with the CS-friendly segment retriever and publishes them
// into the local lake:
//
//   * priority-ordered: repairs outrank pre-stages; FIFO within a
//     priority level (deterministic).
//   * deduplicating: a second enqueue of an in-flight or queued
//     dataset joins the existing transfer instead of fetching twice.
//   * bounded: at most maxConcurrent fetches in flight, and an
//     optional bandwidth budget serializes starts so staging cannot
//     starve the overlay (a transfer of B bytes holds the budget for
//     B / bandwidthBytesPerSec after it lands).
//   * cancellable: a superseded plan cancels its tag; queued entries
//     abort immediately, in-flight ones discard their bytes on
//     completion unless a newer request for the dataset adopts them.
//   * space-aware: puts that the lake rejects for capacity (or quota)
//     surface ResourceExhausted to the requester and count as rejects
//     instead of silently growing the lake.
//
// Every transition appends a "t=..s <event>" line to eventLog(), which
// is byte-identical across same-seed runs (the determinism guard pins
// this); fetch failures and capacity rejects also reach the flight
// recorder as "replica/<cluster>" events with the same text.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "datalake/retriever.hpp"
#include "ndn/app_face.hpp"
#include "ndn/forwarder.hpp"
#include "replica/catalog.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/flow.hpp"
#include "telemetry/metrics.hpp"

namespace lidc::replica {

struct TransferOptions {
  /// Concurrent fetches in flight.
  std::size_t maxConcurrent = 2;
  /// Staging bandwidth budget in bytes/s; 0 = unlimited.
  std::uint64_t bandwidthBytesPerSec = 0;
  /// Tenant charged for staged bytes when a request names none.
  std::string tenant;
};

/// Transfer priorities of the planes that stage data, lowest first: a
/// lookahead pre-stage, a stage's dispatch-time fetch, an anti-entropy
/// repair, and a migration's checkpoint pre-stage.
inline constexpr int kPrestagePriority = 0;
inline constexpr int kDispatchPriority = 5;
inline constexpr int kRepairPriority = 10;
inline constexpr int kMigrationPriority = 100;
static_assert(kPrestagePriority < kDispatchPriority &&
              kDispatchPriority < kRepairPriority &&
              kRepairPriority < kMigrationPriority);

/// Per-enqueue parameters.
struct TransferRequest {
  int priority = kPrestagePriority;  // higher dequeues first
  std::string tag;                   // plan label; cancelTag() sweeps it
  std::string tenant;                // overrides TransferOptions::tenant when set
};

class TransferScheduler {
 public:
  /// Fires with the terminal status and the bytes this transfer moved
  /// over the overlay (0 for local hits and joins that rode an
  /// existing transfer... joins report the shared transfer's bytes).
  using DoneCallback = std::function<void(Status, std::uint64_t bytes)>;
  using Request = TransferRequest;

  /// Attaches to the destination cluster's forwarder; fetches travel
  /// through the overlay like any client retrieval. `catalog` (may be
  /// null) is kept in sync: staging on start, ready on landing.
  TransferScheduler(ndn::Forwarder& forwarder, datalake::ObjectStore& store,
                    std::string clusterName, TransferOptions options = {},
                    ReplicaCatalog* catalog = nullptr);

  void enqueue(const ndn::Name& dataset, Request request = {},
               DoneCallback done = nullptr);

  /// Cancels a queued transfer (false when the dataset is not queued —
  /// in-flight transfers finish but discard their bytes).
  bool cancel(const ndn::Name& dataset);
  /// Cancels every queued/in-flight transfer carrying `tag`; returns
  /// how many were swept.
  std::size_t cancelTag(const std::string& tag);

  [[nodiscard]] const std::string& clusterName() const noexcept {
    return cluster_name_;
  }
  [[nodiscard]] std::size_t queuedCount() const noexcept { return queue_.size(); }
  [[nodiscard]] std::uint64_t staged() const noexcept { return staged_; }
  [[nodiscard]] std::uint64_t bytesMoved() const noexcept { return bytes_moved_; }
  [[nodiscard]] std::uint64_t localHits() const noexcept { return local_hits_; }
  [[nodiscard]] std::uint64_t joined() const noexcept { return joined_; }
  [[nodiscard]] std::uint64_t cancelled() const noexcept { return cancelled_; }
  [[nodiscard]] std::uint64_t capacityRejects() const noexcept {
    return capacity_rejects_;
  }
  [[nodiscard]] std::uint64_t failures() const noexcept { return failures_; }

  /// Deterministic event trace ("t=..s enqueue|join|hit|start|done|
  /// fail|cancel|reject-capacity ..." lines).
  [[nodiscard]] const std::string& eventLog() const noexcept { return log_.text(); }

  /// Binds lidc_replica_staged_total / lidc_replica_bytes_moved_total
  /// / lidc_replica_capacity_rejected_total (labeled by cluster) into
  /// `registry`.
  void attachTelemetry(telemetry::MetricsRegistry& registry);
  void setFlightRecorder(telemetry::FlightRecorder* recorder) noexcept {
    log_.setRecorder(recorder);
  }
  /// Routes staged-byte accounting through the cluster's flow plane:
  /// every landed transfer is recorded once under (group="staging",
  /// tenant, tag), so bytesMoved() and the flow ledger agree by
  /// construction (the parity test pins this). Fetch Interests also
  /// carry the tenant/tag flow label for on-path link attribution.
  void setFlowAccountant(telemetry::FlowAccountant* flow) noexcept {
    flow_ = flow;
  }

 private:
  struct Entry {
    ndn::Name dataset;
    int priority = 0;
    std::string tag;
    std::string tenant;
    std::uint64_t order = 0;  // enqueue sequence; FIFO within priority
    bool cancelled = false;
    std::vector<DoneCallback> callbacks;
  };

  void pump();
  void startTransfer(std::shared_ptr<Entry> entry);
  void settle(const std::shared_ptr<Entry>& entry, Status status,
              std::uint64_t bytes);

  ndn::Forwarder& forwarder_;
  datalake::ObjectStore& store_;
  std::string cluster_name_;
  TransferOptions options_;
  ReplicaCatalog* catalog_;
  std::shared_ptr<ndn::AppFace> face_;
  std::unique_ptr<datalake::Retriever> retriever_;
  telemetry::FlowAccountant* flow_ = nullptr;

  std::deque<std::shared_ptr<Entry>> queue_;
  std::vector<std::shared_ptr<Entry>> inflight_;
  std::size_t active_ = 0;
  std::uint64_t next_order_ = 0;
  /// Bandwidth gate: no new transfer starts before this instant.
  sim::Time gate_;
  bool pump_armed_ = false;

  std::uint64_t staged_ = 0;
  std::uint64_t bytes_moved_ = 0;
  std::uint64_t local_hits_ = 0;
  std::uint64_t joined_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t capacity_rejects_ = 0;
  std::uint64_t failures_ = 0;
  telemetry::EventLog log_;
};

}  // namespace lidc::replica
