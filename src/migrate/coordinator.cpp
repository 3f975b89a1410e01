#include "migrate/coordinator.hpp"

#include <limits>

#include "common/hash.hpp"
#include "k8s/job.hpp"

namespace lidc::migrate {

namespace {

/// Cadence of status probes on tracked jobs (lazy timer: armed only
/// while at least one job is active, so idle simulations drain).
constexpr sim::Duration kProbeInterval = sim::Duration::seconds(1);
/// Consecutive failed probes before a job counts as dark.
constexpr int kProbeFailureThreshold = 2;
/// Observed health below this triggers migration off the cluster.
constexpr double kHealthFloor = 0.3;
/// Per-job migration budget (flapping guard).
constexpr int kMaxMigrationsPerJob = 2;

}  // namespace

MigrationCoordinator::MigrationCoordinator(core::LidcClient& client,
                                           core::AdaptivePlacement* placement,
                                           replica::ReplicaDirectory* directory)
    : client_(client),
      placement_(placement),
      directory_(directory),
      log_(client.simulator(), "migrate") {}

void MigrationCoordinator::addScheduler(const std::string& cluster,
                                        replica::TransferScheduler* scheduler) {
  schedulers_[cluster] = scheduler;
}

void MigrationCoordinator::track(const core::SubmitResult& ack,
                                 core::ComputeRequest request) {
  auto job = std::make_shared<TrackedJob>();
  job->originalJobId = ack.jobId;
  job->jobId = ack.jobId;
  job->cluster = ack.cluster;
  job->statusName = ndn::Name(ack.statusName);
  // The request is re-submitted verbatim on migration (plus the ckpt
  // params); strip any request id so the client mints a fresh one and
  // the forwarding strategy is free to steer.
  request.requestId.clear();
  job->request = std::move(request);
  jobs_[job->originalJobId] = job;
  log_.record(log::Level::kDebug,
              "track job=" + job->jobId + " cluster=" + job->cluster);
  armProbe();
}

std::size_t MigrationCoordinator::activeJobs() const {
  std::size_t n = 0;
  for (const auto& [id, job] : jobs_) {
    if (job->active) ++n;
  }
  return n;
}

ndn::Name MigrationCoordinator::currentStatusName(
    const std::string& originalJobId) const {
  auto it = jobs_.find(originalJobId);
  return it == jobs_.end() ? ndn::Name{} : it->second->statusName;
}

void MigrationCoordinator::armProbe() {
  if (probe_pending_ || activeJobs() == 0) return;
  probe_pending_ = true;
  client_.simulator().scheduleAfter(kProbeInterval, [this] {
    probe_pending_ = false;
    probeAll();
  });
}

void MigrationCoordinator::probeAll() {
  for (auto& [id, jobRef] : jobs_) {
    auto job = jobRef;
    if (!job->active || job->migrating) continue;
    client_.queryStatus(
        job->statusName, [this, job](Result<core::JobStatusSnapshot> status) {
          if (!job->active || job->migrating) return;
          if (!status) {
            log_.record(log::Level::kDebug, "probe-fail job=" + job->jobId +
                                                " err=" + status.status().toString());
            if (++job->consecutiveFailures >= kProbeFailureThreshold) {
              migrate(job, "status-dark");
            }
            return;
          }
          job->consecutiveFailures = 0;
          if (status->state == k8s::JobState::kCompleted) {
            job->active = false;
            log_.record(log::Level::kDebug, "done job=" + job->jobId);
          } else if (status->state == k8s::JobState::kFailed) {
            migrate(job, "job-failed");
          }
        });
  }
  armProbe();
}

void MigrationCoordinator::drainCluster(const std::string& cluster) {
  log_.record(log::Level::kInfo, "drain cluster=" + cluster);
  breaker_open_[cluster] = true;
  if (placement_ != nullptr) {
    // Administrative breaker: new submits (including our own resubmits)
    // steer away from the draining cluster at the routing layer, even
    // though it is still healthy and holds the checkpoints locally.
    placement_->observeBreaker(cluster, true);
    placement_->tick();
  }
  for (auto& [id, job] : jobs_) {
    if (job->active && !job->migrating && job->cluster == cluster) {
      migrate(job, "drain");
    }
  }
}

void MigrationCoordinator::observeHealth(const std::string& cluster,
                                         double score) {
  observed_health_[cluster] = score;
  if (score >= kHealthFloor) return;
  for (auto& [id, job] : jobs_) {
    if (job->active && !job->migrating && job->cluster == cluster) {
      migrate(job, "health-floor");
    }
  }
}

void MigrationCoordinator::observeBreaker(const std::string& cluster,
                                          bool open) {
  breaker_open_[cluster] = open;
  if (!open) return;
  for (auto& [id, job] : jobs_) {
    if (job->active && !job->migrating && job->cluster == cluster) {
      migrate(job, "breaker-open");
    }
  }
}

void MigrationCoordinator::migrate(const std::shared_ptr<TrackedJob>& job,
                                   const std::string& reason) {
  if (!job->active || job->migrating) return;
  if (job->migrations >= kMaxMigrationsPerJob) {
    ++counters_.failed;
    job->active = false;
    log_.record(log::Level::kWarn,
                "fail job=" + job->jobId + " reason=migration-budget");
    return;
  }
  job->migrating = true;
  job->planStart = client_.simulator().now();
  ++counters_.planned;
  log_.record(log::Level::kInfo, "plan job=" + job->jobId + " reason=" + reason +
                                     " from=" + job->cluster);
  resolveEpoch(job, reason);
}

std::uint64_t MigrationCoordinator::latestSurvivingEpoch(
    const std::string& jobId) const {
  if (directory_ == nullptr) return 0;
  std::uint64_t best = 0;
  for (const std::string& uri : directory_->knownDatasets()) {
    auto ref = core::parseCkptName(ndn::Name(uri));
    if (!ref || ref->jobId != jobId || ref->epoch <= best) continue;
    if (directory_->holders(ndn::Name(uri)).empty()) continue;
    best = ref->epoch;
  }
  return best;
}

void MigrationCoordinator::resolveEpoch(const std::shared_ptr<TrackedJob>& job,
                                        const std::string& reason) {
  // Preferred: the directory's view of what actually survived — the
  // manifest replica on a survivor may be stale (the repair loop copies
  // under-replicated objects once; it does not refresh mutations).
  if (const std::uint64_t epoch = latestSurvivingEpoch(job->jobId);
      epoch > 0) {
    client_.fetchData(core::makeCkptName(job->jobId, epoch),
                      [this, job, reason, epoch](
                          Result<std::vector<std::uint8_t>> payload) {
                        if (!payload) {
                          resubmitCold(job, reason + "/ckpt-fetch-failed");
                          return;
                        }
                        prestageAndResubmit(job, reason, epoch,
                                            fnv1a(*payload));
                      });
    return;
  }
  // Fallback: anycast-fetch the _manifest (live source, or a replica
  // that happens to be current) and trust its epoch + digest — the
  // restoring gateway re-verifies the pin against the actual bytes.
  client_.fetchData(
      core::makeCkptManifestName(job->jobId),
      [this, job, reason](Result<std::vector<std::uint8_t>> bytes) {
        if (!bytes) {
          resubmitCold(job, reason + "/no-checkpoint");
          return;
        }
        auto manifest = core::decodeCkptManifest(std::string_view(
            reinterpret_cast<const char*>(bytes->data()), bytes->size()));
        if (!manifest || manifest->epoch == 0) {
          resubmitCold(job, reason + "/bad-manifest");
          return;
        }
        prestageAndResubmit(job, reason, manifest->epoch, manifest->digest);
      });
}

void MigrationCoordinator::prestageAndResubmit(
    const std::shared_ptr<TrackedJob>& job, const std::string& reason,
    std::uint64_t epoch, std::uint64_t digest) {
  const std::string target = pickTarget(job->cluster);
  if (target.empty()) {
    ++counters_.failed;
    job->migrating = false;
    job->active = false;
    log_.record(log::Level::kWarn, "fail job=" + job->jobId + " reason=no-target");
    return;
  }
  log_.record(log::Level::kDebug, "resume job=" + job->jobId + " epoch=" +
                                      std::to_string(epoch) + " target=" + target);
  replica::TransferScheduler* scheduler = schedulers_[target];
  replica::TransferRequest staging;
  staging.priority = replica::kMigrationPriority;
  staging.tag = "migrate/" + job->originalJobId;
  scheduler->enqueue(
      core::makeCkptName(job->jobId, epoch), staging,
      [this, job, reason, epoch, digest, target](Status status,
                                                 std::uint64_t /*bytes*/) {
        if (!status.ok()) {
          resubmitCold(job, reason + "/prestage-failed");
          return;
        }
        resubmit(job, reason, epoch, digest, target);
      });
}

void MigrationCoordinator::resubmit(const std::shared_ptr<TrackedJob>& job,
                                    const std::string& reason,
                                    std::uint64_t epoch, std::uint64_t digest,
                                    const std::string& /*target*/) {
  core::ComputeRequest request = job->request;
  request.params["ckpt"] = job->jobId + "/" + std::to_string(epoch);
  request.params["ckpt_digest"] = std::to_string(digest);
  request.params["ckpt_from"] = job->cluster;
  client_.submit(request,
                 [this, job, reason](Result<core::SubmitResult> ack) {
                   settleResubmit(job, reason, /*restored=*/true,
                                  std::move(ack));
                 });
}

void MigrationCoordinator::resubmitCold(const std::shared_ptr<TrackedJob>& job,
                                        const std::string& reason) {
  ++counters_.coldFallbacks;
  log_.record(log::Level::kWarn, "cold job=" + job->jobId + " reason=" + reason);
  client_.submit(job->request,
                 [this, job, reason](Result<core::SubmitResult> ack) {
                   settleResubmit(job, reason, /*restored=*/false,
                                  std::move(ack));
                 });
}

void MigrationCoordinator::settleResubmit(
    const std::shared_ptr<TrackedJob>& job, const std::string& reason,
    bool restored, Result<core::SubmitResult> ack) {
  job->migrating = false;
  if (!ack) {
    ++counters_.failed;
    job->active = false;
    log_.record(log::Level::kWarn, "fail job=" + job->jobId +
                                       " reason=resubmit: " + ack.status().toString());
    return;
  }
  const std::string oldCluster = job->cluster;
  const std::string oldJobId = job->jobId;
  job->jobId = ack->jobId;
  job->cluster = ack->cluster;
  job->statusName = ndn::Name(ack->statusName);
  job->consecutiveFailures = 0;
  ++job->migrations;
  ++counters_.completed;
  log_.record(log::Level::kInfo, "migrate job=" + oldJobId + " from=" + oldCluster +
                                     " to=" + job->cluster + " newjob=" + job->jobId +
                                     (restored ? "" : " cold"));
  if (restored && routeInstaller) {
    // The target gateway registered the 5-component status alias on its
    // own forwarder; propagate the route overlay-wide so remote pollers
    // reach it (exact match beats the dead cluster's 4-component route).
    routeInstaller(oldCluster, oldJobId, job->cluster);
  }
  if (tracer_ != nullptr) {
    tracer_->recordSpan("migration", "migrate", {}, job->planStart,
                        client_.simulator().now(),
                        {{"job", oldJobId},
                         {"from", oldCluster},
                         {"to", job->cluster},
                         {"reason", reason},
                         {"restored", restored ? "true" : "false"}});
  }
  armProbe();
}

std::string MigrationCoordinator::pickTarget(const std::string& exclude) const {
  std::string best;
  std::uint64_t bestCost = std::numeric_limits<std::uint64_t>::max();
  for (const auto& [cluster, scheduler] : schedulers_) {
    if (cluster == exclude || scheduler == nullptr) continue;
    if (auto it = breaker_open_.find(cluster);
        it != breaker_open_.end() && it->second) {
      continue;
    }
    if (auto it = observed_health_.find(cluster);
        it != observed_health_.end() && it->second < kHealthFloor) {
      continue;
    }
    if (placement_ != nullptr) {
      if (placement_->breakerOpen(cluster)) continue;
      if (placement_->observedHealth(cluster) < kHealthFloor) continue;
    }
    const std::uint64_t cost =
        placement_ == nullptr ? 0 : placement_->extraCostUs(cluster);
    // Strict < keeps the name-ordered first candidate on ties.
    if (cost < bestCost) {
      bestCost = cost;
      best = cluster;
    }
  }
  return best;
}

void MigrationCoordinator::attachTelemetry(telemetry::MetricsRegistry& registry,
                                           telemetry::Tracer* tracer) {
  tracer_ = tracer;
  registry.bindCounter("lidc_migrations_planned_total", {}, counters_.planned);
  registry.bindCounter("lidc_migrations_completed_total", {}, counters_.completed);
  registry.bindCounter("lidc_migrations_failed_total", {}, counters_.failed);
  registry.bindCounter("lidc_migrations_cold_fallbacks_total", {},
                       counters_.coldFallbacks);
}

telemetry::AlertEngine::ValueSource migrationValueSource(
    const MigrationCoordinator& coordinator) {
  return [&coordinator](std::string_view series) -> std::optional<double> {
    const MigrationCounters& c = coordinator.counters();
    if (series == "migrate/planned") return static_cast<double>(c.planned);
    if (series == "migrate/failed") return static_cast<double>(c.failed);
    if (series == "migrate/cold_fallbacks") return static_cast<double>(c.coldFallbacks);
    return std::nullopt;
  };
}

}  // namespace lidc::migrate
