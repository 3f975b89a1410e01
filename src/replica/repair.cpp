#include "replica/repair.hpp"

namespace lidc::replica {

namespace {
/// Period of start()ed anti-entropy passes.
constexpr sim::Duration kRepairInterval = sim::Duration::seconds(2);
}  // namespace

RepairLoop::RepairLoop(sim::Simulator& sim, ReplicaDirectory& directory,
                       PlacementPolicy& policy)
    : sim_(sim), directory_(directory), policy_(policy) {}

void RepairLoop::addScheduler(const std::string& cluster,
                              TransferScheduler* scheduler) {
  schedulers_[cluster] = scheduler;
}

std::size_t RepairLoop::tick() {
  ++passes_;
  const std::string tag = "repair#" + std::to_string(passes_);
  if (passes_ > 1) {
    const std::string previous = "repair#" + std::to_string(passes_ - 1);
    for (auto& [cluster, scheduler] : schedulers_) {
      scheduler->cancelTag(previous);
    }
  }
  const std::vector<PlacementAction> actions = policy_.plan(directory_);
  under_replicated_ = policy_.lastUnderReplicated();
  if (under_replicated_ > 0) {
    LIDC_FR_EVENT(recorder_, kWarn, "replica",
                  "repair pass " + std::to_string(passes_) + ": " +
                      std::to_string(under_replicated_) +
                      " under-replicated dataset(s), " +
                      std::to_string(actions.size()) + " transfer(s)");
  }
  std::size_t enqueued = 0;
  for (const PlacementAction& action : actions) {
    auto it = schedulers_.find(action.destination);
    if (it == schedulers_.end()) continue;
    ++enqueued;
    ++repairs_enqueued_;
    TransferRequest request;
    request.priority = kRepairPriority + action.priority;
    request.tag = tag;
    it->second->enqueue(
        action.dataset, std::move(request),
        [this](Status status, std::uint64_t) {
          if (status.ok()) {
            ++repairs_completed_;
          } else if (status.code() != StatusCode::kAborted) {
            // Superseded repairs are not failures; the newer pass owns
            // the dataset now.
            ++repairs_failed_;
          }
        });
  }
  return enqueued;
}

void RepairLoop::start() {
  if (running_) return;
  running_ = true;
  tick_ = sim_.scheduleAfter(kRepairInterval, [this] {
    if (!running_) return;
    tick();
    running_ = false;
    start();
  });
}

void RepairLoop::stop() {
  running_ = false;
  tick_.cancel();
}

void RepairLoop::attachTelemetry(telemetry::MetricsRegistry& registry) {
  registry.bindCounter("lidc_replica_repaired_total", {}, repairs_completed_);
  registry.bindCounter("lidc_replica_repairs_enqueued_total", {}, repairs_enqueued_);
  registry.bindCounter("lidc_replica_repair_failures_total", {}, repairs_failed_);
  registry.bindGauge("lidc_replica_under_replicated", {},
                     [this] { return static_cast<double>(under_replicated_); });
}

telemetry::AlertEngine::ValueSource repairValueSource(const RepairLoop& loop) {
  return [&loop](std::string_view series) -> std::optional<double> {
    if (series == "replica/under_replicated") {
      return static_cast<double>(loop.underReplicated());
    }
    if (series == "replica/repairs_failed") {
      return static_cast<double>(loop.repairsFailed());
    }
    return std::nullopt;
  };
}

}  // namespace lidc::replica
