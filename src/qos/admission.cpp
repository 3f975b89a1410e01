#include "qos/admission.hpp"

#include <algorithm>
#include <utility>

namespace lidc::qos {

namespace {
/// Deficit gained per DRR head visit is tenant weight * quantum (jobs).
constexpr double kQuantum = 1.0;
/// Backstop re-drain period while work is queued (releases and new
/// offers drain eagerly; the timer catches external capacity changes
/// such as health recovery). Lazy-armed so an empty queue costs no
/// simulator events.
constexpr sim::Duration kDrainInterval = sim::Duration::millis(100);
}  // namespace

std::string_view admitDecisionName(AdmitDecision decision) noexcept {
  switch (decision) {
    case AdmitDecision::kQueued:
      return "queued";
    case AdmitDecision::kRejectedUnknownTenant:
      return "unknown-tenant";
    case AdmitDecision::kRejectedRate:
      return "rate";
    case AdmitDecision::kRejectedQuota:
      return "quota";
    case AdmitDecision::kRejectedQueueFull:
      return "queue-full";
  }
  return "?";
}

AdmissionController::AdmissionController(sim::Simulator& sim,
                                         const TenantRegistry& tenants,
                                         std::string cluster,
                                         AdmissionOptions options)
    : sim_(sim),
      tenants_(tenants),
      cluster_(std::move(cluster)),
      options_(options),
      log_(sim, "qos") {}

AdmissionController::TenantState& AdmissionController::stateFor(
    const TenantSpec& spec) {
  auto [it, inserted] = states_.try_emplace(spec.id);
  TenantState& st = it->second;
  if (inserted) {
    st.spec = &spec;
    st.bucket = TokenBucket(spec.quota.submitRatePerSec, spec.quota.submitBurst);
    if (registry_ != nullptr) bindTenant(spec.id, st);
  }
  return st;
}

const AdmissionController::TenantState* AdmissionController::stateOf(
    const std::string& tenant) const noexcept {
  auto it = states_.find(tenant);
  return it == states_.end() ? nullptr : &it->second;
}

void AdmissionController::reject(TenantState& st, const std::string& id,
                                 const std::string& reason,
                                 const std::string& tag) {
  const auto [it, first] = st.rejects.try_emplace(reason);
  ++it->second;
  if (first && registry_ != nullptr) bindReject(id, reason, it->second);
  log_.record(log::Level::kWarn,
              "reject tenant=" + id + " reason=" + reason + " tag=" + tag);
}

AdmitDecision AdmissionController::offer(AdmissionJob job) {
  const sim::Time now = sim_.now();
  const TenantSpec* spec = tenants_.find(job.tenant);
  if (spec == nullptr) {
    ++rejected_unknown_;
    // Attacker-controlled ids get no per-tenant state and a bounded log
    // line: an unknown-tenant flood must not grow memory per name.
    log_.record(log::Level::kWarn, "reject tenant=" + job.tenant.substr(0, 48) +
                                       " reason=unknown-tenant");
    return AdmitDecision::kRejectedUnknownTenant;
  }

  TenantState& st = stateFor(*spec);
  if (!st.bucket.tryTake(now)) {
    reject(st, spec->id, "rate", job.tag);
    return AdmitDecision::kRejectedRate;
  }

  const TenantQuota& quota = spec->quota;
  const std::uint64_t projectedJobs = st.inFlightJobs + st.queue.size() + 1;
  const std::uint64_t projectedCpu =
      st.inFlightCpu + st.queuedCpu + job.cpuMillicores;
  const std::uint64_t projectedMem =
      st.inFlightMem + st.queuedMem + job.memoryBytes;
  if ((quota.maxJobsInFlight != 0 && projectedJobs > quota.maxJobsInFlight) ||
      (quota.maxCpuMillicores != 0 && projectedCpu > quota.maxCpuMillicores) ||
      (quota.maxMemoryBytes != 0 && projectedMem > quota.maxMemoryBytes)) {
    reject(st, spec->id, "quota", job.tag);
    return AdmitDecision::kRejectedQuota;
  }

  if (st.queue.size() >= options_.maxQueuePerTenant) {
    reject(st, spec->id, "queue-full", job.tag);
    return AdmitDecision::kRejectedQueueFull;
  }
  if (queued_total_ >= options_.maxQueueTotal && !tryPreemptFor(*spec)) {
    reject(st, spec->id, "queue-full", job.tag);
    return AdmitDecision::kRejectedQueueFull;
  }

  st.queuedCpu += job.cpuMillicores;
  st.queuedMem += job.memoryBytes;
  log_.record(log::Level::kDebug, "enqueue tenant=" + spec->id + " tag=" + job.tag);
  st.queue.push_back(Pending{std::move(job), now});
  ++queued_total_;
  if (!st.inRing) {
    st.inRing = true;
    ring_.push_back(spec->id);
  }
  drain();
  return AdmitDecision::kQueued;
}

void AdmissionController::releaseJob(const std::string& tenant,
                                     std::uint64_t cpuMillicores,
                                     std::uint64_t memoryBytes) {
  auto it = states_.find(tenant);
  if (it == states_.end()) return;
  TenantState& st = it->second;
  if (st.inFlightJobs > 0) --st.inFlightJobs;
  st.inFlightCpu -= std::min(st.inFlightCpu, cpuMillicores);
  st.inFlightMem -= std::min(st.inFlightMem, memoryBytes);
  drain();
}

void AdmissionController::dropExpired(const std::string& id, TenantState& st) {
  const sim::Time now = sim_.now();
  while (!st.queue.empty()) {
    const Pending& front = st.queue.front();
    const sim::Time expiresAt = front.job.expiresAt;
    if (expiresAt.toNanos() == 0 || now.toNanos() <= expiresAt.toNanos()) break;
    Pending entry = std::move(st.queue.front());
    st.queue.pop_front();
    --queued_total_;
    st.queuedCpu -= std::min(st.queuedCpu, entry.job.cpuMillicores);
    st.queuedMem -= std::min(st.queuedMem, entry.job.memoryBytes);
    ++st.expired;
    log_.record(log::Level::kWarn, "expire tenant=" + id + " tag=" + entry.job.tag);
    if (entry.job.evict) entry.job.evict("expired");
  }
}

void AdmissionController::launchFront(const std::string& id, TenantState& st) {
  Pending entry = std::move(st.queue.front());
  st.queue.pop_front();
  --queued_total_;
  st.queuedCpu -= std::min(st.queuedCpu, entry.job.cpuMillicores);
  st.queuedMem -= std::min(st.queuedMem, entry.job.memoryBytes);
  ++st.inFlightJobs;
  st.inFlightCpu += entry.job.cpuMillicores;
  st.inFlightMem += entry.job.memoryBytes;
  ++st.admitted;
  const std::int64_t waitUs =
      (sim_.now() - entry.enqueuedAt).toNanos() / 1000;
  if (registry_ != nullptr) {
    if (st.queueWait == nullptr) {
      st.queueWait = &registry_->histogram("lidc_qos_queue_wait_us",
                                           {{"cluster", cluster_}, {"tenant", id}});
    }
    st.queueWait->observe(static_cast<double>(waitUs));
  }
  log_.record(log::Level::kDebug, "admit tenant=" + id + " tag=" + entry.job.tag +
                                      " wait_us=" + std::to_string(waitUs));
  if (flow_ != nullptr && entry.job.wireBytes > 0) {
    telemetry::FlowKey key;
    key.group = "submit";
    key.tenant = telemetry::sanitizeFlowComponent(id);
    key.tag = telemetry::sanitizeFlowComponent(entry.job.tag);
    flow_->recordTransfer(key, entry.job.wireBytes);
  }
  if (entry.job.launch) entry.job.launch();
}

void AdmissionController::rotateHead(TenantState& st) {
  const std::string id = std::move(ring_.front());
  ring_.pop_front();
  st.headAccrued = false;
  if (st.queue.empty()) {
    st.inRing = false;
    st.deficit = 0.0;  // idle tenants do not bank deficit
  } else {
    ring_.push_back(id);
  }
}

void AdmissionController::drain() {
  if (draining_) return;
  draining_ = true;
  // Persistent-head DRR: the tenant at the ring front keeps first claim
  // on freed capacity until its deficit round is spent, THEN rotates to
  // the back. A capacity block holds the head in place, so rotation —
  // and therefore fairness — survives across drain calls; without this,
  // every drain would restart from the same front and a flooding tenant
  // that happened to enter the ring first would win every freed core.
  while (!ring_.empty()) {
    TenantState& st = states_.at(ring_.front());
    dropExpired(ring_.front(), st);
    if (st.queue.empty()) {
      rotateHead(st);
      continue;
    }
    if (!st.headAccrued) {
      // Clamp: a tenant weight of zero (or below) would keep the head
      // rotating forever without ever reaching launch cost.
      const double quantum = std::max(1e-6, st.spec->weight * kQuantum);
      // The cap never drops below one job, or low-weight tenants could
      // never bank enough to reach launch cost.
      const double cap = std::max(1.0, quantum * options_.deficitCap);
      st.deficit = std::min(cap, st.deficit + quantum);
      st.headAccrued = true;
    }
    bool blocked = false;
    while (st.deficit >= 1.0 && !st.queue.empty()) {
      dropExpired(ring_.front(), st);
      if (st.queue.empty()) break;
      if (capacity_probe_ && !capacity_probe_(st.queue.front().job)) {
        blocked = true;
        break;
      }
      st.deficit -= 1.0;
      launchFront(ring_.front(), st);
    }
    if (blocked) break;  // hold the head; the next drain resumes here
    rotateHead(st);
  }
  draining_ = false;
  if (queued_total_ > 0) armTimer();
}

bool AdmissionController::tryPreemptFor(const TenantSpec& incoming) {
  TenantState* victim = nullptr;
  std::string victimId;
  for (auto& [id, st] : states_) {
    if (st.queue.empty()) continue;
    if (st.spec->priorityClass >= incoming.priorityClass) continue;
    if (victim == nullptr ||
        st.spec->priorityClass < victim->spec->priorityClass) {
      victim = &st;
      victimId = id;
    }
  }
  if (victim == nullptr) return false;

  Pending entry = std::move(victim->queue.back());
  victim->queue.pop_back();
  --queued_total_;
  victim->queuedCpu -= std::min(victim->queuedCpu, entry.job.cpuMillicores);
  victim->queuedMem -= std::min(victim->queuedMem, entry.job.memoryBytes);
  ++victim->preempted;
  log_.record(log::Level::kWarn, "preempt tenant=" + victimId + " by=" + incoming.id +
                                     " tag=" + entry.job.tag);
  if (entry.job.evict) entry.job.evict("preempted");
  return true;
}

void AdmissionController::armTimer() {
  if (timer_armed_) return;
  timer_armed_ = true;
  sim_.scheduleAfter(kDrainInterval, [this] {
    timer_armed_ = false;
    drain();
  });
}

std::size_t AdmissionController::queueDepth(
    const std::string& tenant) const noexcept {
  const TenantState* st = stateOf(tenant);
  return st == nullptr ? 0 : st->queue.size();
}

std::uint64_t AdmissionController::jobsInFlight(
    const std::string& tenant) const noexcept {
  const TenantState* st = stateOf(tenant);
  return st == nullptr ? 0 : st->inFlightJobs;
}

std::uint64_t AdmissionController::admitted(
    const std::string& tenant) const noexcept {
  const TenantState* st = stateOf(tenant);
  return st == nullptr ? 0 : st->admitted;
}

std::uint64_t AdmissionController::rejected(
    const std::string& tenant) const noexcept {
  const TenantState* st = stateOf(tenant);
  if (st == nullptr) return 0;
  std::uint64_t total = 0;
  for (const auto& [reason, count] : st->rejects) total += count;
  return total;
}

std::uint64_t AdmissionController::rejected(
    const std::string& tenant, const std::string& reason) const noexcept {
  const TenantState* st = stateOf(tenant);
  if (st == nullptr) return 0;
  auto it = st->rejects.find(reason);
  return it == st->rejects.end() ? 0 : it->second;
}

std::uint64_t AdmissionController::preempted(
    const std::string& tenant) const noexcept {
  const TenantState* st = stateOf(tenant);
  return st == nullptr ? 0 : st->preempted;
}

std::uint64_t AdmissionController::expired(
    const std::string& tenant) const noexcept {
  const TenantState* st = stateOf(tenant);
  return st == nullptr ? 0 : st->expired;
}

void AdmissionController::attachTelemetry(telemetry::MetricsRegistry& registry) {
  registry_ = &registry;
  for (auto& [id, st] : states_) {
    st.queueWait = nullptr;  // resolved again, in this registry
    bindTenant(id, st);
  }
  registry.bindCounter("lidc_qos_rejected_total",
                       {{"cluster", cluster_},
                        {"reason", "unknown-tenant"},
                        {"tenant", "unknown"}},
                       rejected_unknown_);
  registry.bindGauge("lidc_qos_queue_depth", {{"cluster", cluster_}}, [this] {
    double totalDepth = 0.0;
    for (const auto& [id, st] : states_) {
      totalDepth += static_cast<double>(st.queue.size());
    }
    return totalDepth;
  });
}

void AdmissionController::bindTenant(const std::string& id, const TenantState& st) {
  const telemetry::Labels labels{{"cluster", cluster_}, {"tenant", id}};
  registry_->bindCounter("lidc_qos_admitted_total", labels, st.admitted);
  registry_->bindCounter("lidc_qos_preempted_total", labels, st.preempted);
  registry_->bindCounter("lidc_qos_expired_total", labels, st.expired);
  registry_->bindGauge("lidc_qos_queue_depth", labels,
                       [&st] { return static_cast<double>(st.queue.size()); });
  registry_->bindGauge("lidc_qos_jobs_in_flight", labels,
                       [&st] { return static_cast<double>(st.inFlightJobs); });
  for (const auto& [reason, count] : st.rejects) bindReject(id, reason, count);
}

void AdmissionController::bindReject(const std::string& id, const std::string& reason,
                                     const std::uint64_t& count) {
  registry_->bindCounter("lidc_qos_rejected_total",
                         {{"cluster", cluster_}, {"reason", reason}, {"tenant", id}},
                         count);
}

}  // namespace lidc::qos
