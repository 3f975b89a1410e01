// Repair loop — the anti-entropy half of the replica plane. Each pass
// re-plans placement against the directory's observed state; any
// dataset below its target replication factor (a cluster died with its
// lake, a replica went stale) gets repair transfers enqueued on the
// destination clusters' schedulers — anycast retrieval pulls the bytes
// from whichever surviving lake still holds them. Repairs carry a
// per-pass tag, so a newer plan supersedes (cancels) an older one
// instead of racing it. FR events narrate each pass; the
// lidc_replica_under_replicated gauge (and repairValueSource) lets an
// AlertEngine rule fire on sustained under-replication and clear once
// repairs land.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "replica/policy.hpp"
#include "replica/scheduler.hpp"
#include "sim/simulator.hpp"
#include "telemetry/alerts.hpp"
#include "telemetry/flight_recorder.hpp"

namespace lidc::replica {

class RepairLoop {
 public:
  RepairLoop(sim::Simulator& sim, ReplicaDirectory& directory,
             PlacementPolicy& policy);

  /// Registers the scheduler that stages data onto `cluster`. Plans
  /// targeting clusters without a scheduler are logged and skipped.
  void addScheduler(const std::string& cluster, TransferScheduler* scheduler);

  /// Runs one anti-entropy pass; returns repairs enqueued. The previous
  /// pass's tag is cancelled first (the new plan reflects newer truth):
  /// its queued repairs abort, its in-flight ones discard their bytes.
  std::size_t tick();

  /// Periodic passes on the sim clock (kRepairInterval in repair.cpp);
  /// stop() before draining the sim.
  void start();
  void stop();
  [[nodiscard]] bool running() const noexcept { return running_; }

  [[nodiscard]] std::uint64_t passes() const noexcept { return passes_; }
  [[nodiscard]] std::uint64_t repairsEnqueued() const noexcept {
    return repairs_enqueued_;
  }
  [[nodiscard]] std::uint64_t repairsCompleted() const noexcept {
    return repairs_completed_;
  }
  [[nodiscard]] std::uint64_t repairsFailed() const noexcept {
    return repairs_failed_;
  }
  /// Datasets the latest pass found under-replicated.
  [[nodiscard]] std::size_t underReplicated() const noexcept {
    return under_replicated_;
  }

  /// Binds lidc_replica_repaired_total and the
  /// lidc_replica_under_replicated gauge into `registry`.
  void attachTelemetry(telemetry::MetricsRegistry& registry);
  void setFlightRecorder(telemetry::FlightRecorder* recorder) noexcept {
    recorder_ = recorder;
  }

 private:
  sim::Simulator& sim_;
  ReplicaDirectory& directory_;
  PlacementPolicy& policy_;
  std::map<std::string, TransferScheduler*> schedulers_;
  telemetry::FlightRecorder* recorder_ = nullptr;
  bool running_ = false;
  sim::EventHandle tick_;
  std::uint64_t passes_ = 0;
  std::uint64_t repairs_enqueued_ = 0;
  std::uint64_t repairs_completed_ = 0;
  std::uint64_t repairs_failed_ = 0;
  std::size_t under_replicated_ = 0;
};

/// AlertEngine value source over a repair loop:
///   "replica/under_replicated" — datasets below target (latest pass)
///   "replica/repairs_failed"   — cumulative failed repairs
[[nodiscard]] telemetry::AlertEngine::ValueSource repairValueSource(
    const RepairLoop& loop);

}  // namespace lidc::replica
