// CheckpointManager — the cluster-side half of the migration plane
// (DESIGN.md §14). Long-running jobs whose app runner exposes an
// AppResult::checkpointPlan emit periodic checkpoints as segmented,
// named data-lake objects:
//
//   /ndn/k8s/ckpt/<job_id>/<epoch>     immutable epoch payload
//   /ndn/k8s/ckpt/<job_id>/_manifest   mutable latest-epoch pointer
//
// Because app runners execute eagerly and only the completion event is
// simulated, the manager samples the plan closure at simulated interval
// boundaries to materialize what the pod "would have" written by then.
// Each write is registered in the cluster's ReplicaCatalog and heats the
// PlacementPolicy past its hot threshold, so the ordinary RepairLoop
// replicates live checkpoints to a survivor with no migration-specific
// transfer machinery. Cost-aware cadence: when the job's predicted
// remaining runtime is smaller than the modeled checkpoint-write cost,
// the write (and all later ones) is skipped — the endgame recompute is
// cheaper than the I/O.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "core/checkpoint_format.hpp"
#include "datalake/object_store.hpp"
#include "k8s/cluster.hpp"
#include "replica/catalog.hpp"
#include "replica/policy.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"

namespace lidc::migrate {

struct CheckpointOptions {
  /// Simulated time between checkpoint writes of one job.
  sim::Duration interval = sim::Duration::minutes(10);
  /// Fixed part of the modeled write cost, bytes /
  /// kWriteBandwidthBytesPerSec (checkpoint.cpp) + fixed. The cost drives
  /// both the endgame skip and the overhead accounting benches report
  /// against the <5% budget.
  sim::Duration writeFixedCost = sim::Duration::millis(50);
};

struct CheckpointCounters {
  std::uint64_t written = 0;         // epoch objects written
  std::uint64_t bytes = 0;           // payload bytes across all epochs
  std::uint64_t skippedEndgame = 0;  // cost-aware skips
  std::uint64_t plansTracked = 0;    // checkpointable executions seen
};

class CheckpointManager {
 public:
  /// Hooks the cluster's job-execution watcher. `catalog`/`policy`
  /// (optional) wire checkpoint replication into the replica plane.
  CheckpointManager(k8s::Cluster& cluster, datalake::ObjectStore& store,
                    CheckpointOptions options = {},
                    replica::ReplicaCatalog* catalog = nullptr,
                    replica::PlacementPolicy* policy = nullptr);
  CheckpointManager(const CheckpointManager&) = delete;
  CheckpointManager& operator=(const CheckpointManager&) = delete;

  [[nodiscard]] const CheckpointCounters& counters() const noexcept {
    return counters_;
  }
  /// Total modeled write cost accrued — the no-failure-path overhead the
  /// bench holds under 5% of job runtime.
  [[nodiscard]] sim::Duration totalOverhead() const noexcept {
    return overhead_;
  }
  /// Deterministic "t=..s ckpt|ckpt-write-failed|skip-endgame ..."
  /// trace, byte-identical across same-seed runs.
  [[nodiscard]] const std::string& epochLog() const noexcept { return log_.text(); }

  /// Binds lidc_ckpt_written_total / lidc_ckpt_bytes_total /
  /// lidc_ckpt_skipped_endgame_total (labeled by cluster) into
  /// `registry`, read at snapshot time.
  void attachTelemetry(telemetry::MetricsRegistry& registry);
  /// Writes and failed writes reach the recorder as "ckpt/<cluster>"
  /// events with their epochLog() text.
  void setFlightRecorder(telemetry::FlightRecorder* recorder) noexcept {
    log_.setRecorder(recorder);
  }

 private:
  struct PlanState {
    std::string jobId;
    std::string ns;
    std::string app;
    sim::Time start;
    sim::Duration runtime;
    std::function<std::vector<std::uint8_t>(double)> plan;
    std::uint64_t epoch = 0;
    sim::Time nextAt;
    bool stopped = false;
  };

  void onExecuted(const k8s::Job& job, const k8s::AppResult& result);
  void scheduleNext(std::shared_ptr<PlanState> state);
  void writeEpoch(const std::shared_ptr<PlanState>& state);
  [[nodiscard]] sim::Duration writeCost(std::size_t bytes) const;

  k8s::Cluster& cluster_;
  datalake::ObjectStore& store_;
  CheckpointOptions options_;
  replica::ReplicaCatalog* catalog_;
  replica::PlacementPolicy* policy_;
  CheckpointCounters counters_;
  sim::Duration overhead_;
  telemetry::EventLog log_;
};

}  // namespace lidc::migrate
