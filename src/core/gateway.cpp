#include "core/gateway.hpp"

#include <optional>
#include <string_view>
#include <utility>

#include "common/hash.hpp"
#include "common/logging.hpp"
#include "common/strings.hpp"
#include "core/checkpoint_format.hpp"
#include "core/wire_format.hpp"

namespace lidc::core {

namespace {
constexpr std::size_t kCacheCapacity = 256;
constexpr sim::Duration kCacheTtl = sim::Duration::hours(24);
// Freshness on compute acks lets the NDN content stores aggregate
// identical canonical requests network-wide.
constexpr sim::Duration kAckFreshness = sim::Duration::seconds(5);
constexpr sim::Duration kStatusFreshness = sim::Duration::millis(500);
// Health gate: below this fraction of Ready nodes, compute Interests are
// nacked kCongestion so the strategy fails over to a healthy cluster.
constexpr double kMinHealthyNodeFraction = 0.5;

// Erases `key` only while it still names `jobId`: a newer job may have
// registered the same key since.
template <typename Index, typename Key>
bool eraseIfNames(Index& index, const Key& key, const std::string& jobId) {
  auto it = index.find(key);
  if (it == index.end() || it->second != jobId) return false;
  index.erase(it);
  return true;
}
}  // namespace

Gateway::Gateway(ndn::Forwarder& forwarder, k8s::Cluster& cluster,
                 ValidatorRegistry validators, GatewayOptions options,
                 CompletionTimePredictor* predictor)
    : forwarder_(forwarder),
      cluster_(cluster),
      cluster_name_(cluster.name()),
      validators_(std::move(validators)),
      options_(options),
      predictor_(predictor),
      jobs_(cluster),
      cache_(kCacheCapacity, kCacheTtl) {
  face_ = std::make_shared<ndn::AppFace>("app://gateway/" + cluster_name_,
                                         forwarder_.simulator());
  face_->setInterestHandler([this](const ndn::Interest& i) { handleInterest(i); });
  face_id_ = forwarder_.addFace(face_);

  // The gateway NFD's prefix registrations (paper SIV): compute handled
  // locally, status scoped to this cluster.
  forwarder_.registerPrefix(kComputePrefix, face_id_, /*cost=*/0);
  ndn::Name statusPrefix = kStatusPrefix;
  statusPrefix.append(cluster_name_);
  forwarder_.registerPrefix(statusPrefix, face_id_, /*cost=*/0);
  // Capability advertisement endpoint (paper SVII: the network learning
  // cluster capabilities).
  ndn::Name infoPrefix = kInfoPrefix;
  infoPrefix.append(cluster_name_);
  forwarder_.registerPrefix(infoPrefix, face_id_, /*cost=*/0);

  cluster_.onJobFinished([this](const k8s::Job& job) { onJobFinished(job); });
}

void Gateway::enablePublish(datalake::ObjectStore& store) {
  publish_store_ = &store;
  forwarder_.registerPrefix(kPublishPrefix, face_id_, /*cost=*/0);
  if (tenants_ != nullptr) {
    publish_store_->setQuotaCharger(
        [this](const std::string& tenant, std::uint64_t bytes) {
          return tenants_->chargePublish(tenant, bytes);
        });
  }
}

void Gateway::enableQos(qos::TenantRegistry& tenants,
                        qos::AdmissionOptions admission) {
  tenants_ = &tenants;
  admission_ = std::make_unique<qos::AdmissionController>(
      forwarder_.simulator(), tenants, cluster_name_, admission);
  admission_->setFlightRecorder(recorder_);
  // The drain-time capacity gate mirrors the legacy path's admission
  // control: health first, then whether the job fits the free capacity.
  admission_->setCapacityProbe([this](const qos::AdmissionJob& job) {
    if (!admission_control_) return true;
    if (healthyNodeFraction() < kMinHealthyNodeFraction) return false;
    return k8s::Resources{MilliCpu(job.cpuMillicores), ByteSize(job.memoryBytes)}
        .fitsWithin(cluster_.totalFree());
  });
  forwarder_.registerPrefix(kSubmitPrefix, face_id_, /*cost=*/0);
  if (publish_store_ != nullptr) {
    publish_store_->setQuotaCharger(
        [this](const std::string& tenant, std::uint64_t bytes) {
          return tenants_->chargePublish(tenant, bytes);
        });
  }
  if (metrics_registry_ != nullptr) {
    admission_->attachTelemetry(*metrics_registry_);
  }
}

void Gateway::handleInterest(const ndn::Interest& interest) {
  if (blackout_) {
    // Gateway process "down": total silence, the PIT entry times out.
    ++counters_.blackoutDropped;
    LIDC_FR_EVENT(recorder_, kWarn, "gateway",
                  cluster_name_ + " blackout-drop " + interest.name().toUri());
    return;
  }
  if (kComputePrefix.isPrefixOf(interest.name())) {
    onCompute(interest);
  } else if (kSubmitPrefix.isPrefixOf(interest.name())) {
    onSubmit(interest);
  } else if (kStatusPrefix.isPrefixOf(interest.name())) {
    onStatus(interest);
  } else if (kInfoPrefix.isPrefixOf(interest.name())) {
    onInfo(interest);
  } else if (kPublishPrefix.isPrefixOf(interest.name())) {
    onPublish(interest);
  } else {
    face_->putNack(interest, ndn::NackReason::kNoRoute);
  }
}

void Gateway::reply(const ndn::Name& name, ReplyBytes content,
                    sim::Duration freshness) {
  ndn::Data data(name);
  data.setContent(std::move(content)).setFreshnessPeriod(freshness).sign();
  face_->putData(std::move(data));
}

void Gateway::replyError(const ndn::Interest& interest, const std::string& error) {
  reply(interest.name(), encodeError(error, cluster_name_), kAckFreshness);
}

// Gray failure: admit the job with a straight face — plausible ack,
// fresh job id — then never schedule anything. The client only finds
// out when its progress watchdog notices the job never leaves Pending.
void Gateway::grayAdmit(const ndn::Interest& interest) {
  ++counters_.grayAdmitted;
  const std::string jobId = "gray-" + std::to_string(next_gray_id_++);
  JobRecord& record = records_[jobId];
  record.phase = JobRecord::Phase::kGray;
  record.since = forwarder_.simulator().now();
  LIDC_FR_EVENT(recorder_, kWarn, "gateway",
                cluster_name_ + " gray-admit " + jobId);
  reply(interest.name(), encodeJobAck(cluster_name_, jobId), kAckFreshness);
}

void Gateway::onCompute(const ndn::Interest& interest) {
  ++counters_.computeReceived;
  if (gray_) {
    grayAdmit(interest);
    return;
  }

  auto parsed = ComputeRequest::fromName(interest.name());
  if (!parsed.ok()) {
    ++counters_.computeRejected;
    if (tracer_ != nullptr) {
      tracer_->instant("gateway-admission", "gateway:" + cluster_name_,
                       interest.traceContext(),
                       {{"decision", "parse-reject"},
                        {"error", parsed.status().toString()}});
    }
    LIDC_FR_EVENT(recorder_, kWarn, "gateway", cluster_name_ + " parse-reject");
    replyError(interest, parsed.status().toString());
    return;
  }
  processCompute(interest, *parsed, /*tenant=*/"", /*priorityClass=*/0,
                 /*checkCapacity=*/true);
}

void Gateway::onSubmit(const ndn::Interest& interest) {
  ++counters_.computeReceived;
  if (admission_ == nullptr) {
    // QoS not enabled here: let the network try another cluster.
    face_->putNack(interest, ndn::NackReason::kNoRoute);
    return;
  }
  if (gray_) {
    grayAdmit(interest);
    return;
  }

  auto parsed = parseSubmitName(interest.name());
  if (!parsed.ok()) {
    // Malformed submit names are terminal: no cluster can parse them.
    ++counters_.computeRejected;
    LIDC_FR_EVENT(recorder_, kWarn, "gateway",
                  cluster_name_ + " submit-parse-reject");
    replyError(interest, parsed.status().toString());
    return;
  }
  const std::string tenant = parsed->first;
  auto request = std::make_shared<ComputeRequest>(std::move(parsed->second));
  const qos::TenantSpec* spec = tenants_->find(tenant);
  const int priority = spec != nullptr ? spec->priorityClass : 0;

  const k8s::Resources needs = JobManager::requestsFor(*request);
  qos::AdmissionJob job;
  job.tenant = tenant;
  job.cpuMillicores = needs.cpu.millicores();
  job.memoryBytes = needs.memory.bytes();
  job.expiresAt = forwarder_.simulator().now() + interest.lifetime();
  job.tag = request->requestId.empty() ? request->app : request->requestId;
  job.wireBytes = interest.wireSize();
  auto held = std::make_shared<ndn::Interest>(interest);
  job.launch = [this, held, request, tenant, priority] {
    // A launch that produced no job record (cache hit, dedup, rejection)
    // holds no usage: release the admission charge immediately.
    if (!processCompute(*held, *request, tenant, priority,
                        /*checkCapacity=*/false)) {
      releaseCharge(tenant, *request);
    }
  };
  job.evict = [this, held](const std::string&) {
    ++counters_.computeRejected;
    face_->putNack(*held, ndn::NackReason::kQuotaExceeded);
  };

  switch (admission_->offer(std::move(job))) {
    case qos::AdmitDecision::kQueued:
      return;  // launch or evict will answer the Interest
    case qos::AdmitDecision::kRejectedUnknownTenant:
      // Terminal: an unknown tenant is unknown everywhere (the registry
      // is federation-wide), so an error Data beats a failover storm.
      ++counters_.computeRejected;
      replyError(interest, "unknown tenant '" + tenant + "'");
      return;
    case qos::AdmitDecision::kRejectedRate:
    case qos::AdmitDecision::kRejectedQuota:
    case qos::AdmitDecision::kRejectedQueueFull:
      ++counters_.computeRejected;
      face_->putNack(interest, ndn::NackReason::kQuotaExceeded);
      return;
  }
}

bool Gateway::processCompute(const ndn::Interest& interest,
                             const ComputeRequest& request,
                             const std::string& tenant, int priorityClass,
                             bool checkCapacity) {
  // Admission decisions become zero-duration "gateway-admission" spans on
  // the submitter's trace; the launch decision's context also parents the
  // retroactive K8s spans recorded in onJobFinished().
  const telemetry::TraceContext traceCtx = interest.traceContext();
  auto admission = [this, traceCtx](const char* decision,
                                    telemetry::SpanAttrs extra = {}) {
    // Rejections land in the flight recorder (alert post-mortems);
    // normal launches would only drown the window.
    if (std::string_view(decision).ends_with("-reject")) {
      LIDC_FR_EVENT(recorder_, kWarn, "gateway",
                    cluster_name_ + " " + decision);
    }
    if (tracer_ == nullptr) return telemetry::TraceContext{};
    telemetry::SpanAttrs attrs{{"decision", decision}};
    attrs.insert(attrs.end(), extra.begin(), extra.end());
    return tracer_->instant("gateway-admission", "gateway:" + cluster_name_,
                            traceCtx, std::move(attrs));
  };

  // Application-specific validation (paper SIV-B). Cluster-local
  // conditions (NOT_FOUND: e.g. a dataset absent from *this* lake) nack
  // so the network fails over to a cluster that can serve the request;
  // malformed requests get a terminal error Data — no cluster can help.
  if (Status valid = validators_.validate(request); !valid.ok()) {
    ++counters_.computeRejected;
    admission("validation-reject", {{"error", valid.toString()}});
    if (valid.code() == StatusCode::kNotFound) {
      face_->putNack(interest, ndn::NackReason::kNoRoute);
      return false;
    }
    replyError(interest, valid.toString());
    return false;
  }

  // --- checkpoint restore (migration plane) ---
  // A ckpt=<job_id>/<epoch> param asks this cluster to resume from a
  // named checkpoint instead of cold-starting. Resume-point validation
  // rejects stale or corrupt checkpoints (counted cold start) and nacks
  // when the object is not in this lake, so the forwarding strategy
  // steers the resume to whichever cluster holds a replica.
  ComputeRequest effective = request;
  bool restoring = false;
  std::string ckptJobId;     // checkpoint owner, for the status alias
  std::string restoredFrom;  // old cluster name (ckpt_from param)
  if (auto ckptIt = effective.params.find("ckpt");
      ckptIt != effective.params.end()) {
    const auto ref = parseCkptRef(ckptIt->second);
    if (!ref) {
      // Malformed references are terminal: no cluster can parse them.
      ++counters_.computeRejected;
      admission("ckpt-parse-reject");
      replyError(interest, "INVALID_ARGUMENT: malformed ckpt reference '" +
                               ckptIt->second + "'");
      return false;
    }
    if (ckpt_store_ == nullptr) {
      // This cluster does not serve checkpoints: steer elsewhere.
      admission("ckpt-miss-reject");
      face_->putNack(interest, ndn::NackReason::kNoRoute);
      return false;
    }
    const auto payload = ckpt_store_->get(makeCkptName(ref->jobId, ref->epoch));
    if (!payload) {
      admission("ckpt-miss-reject");
      face_->putNack(interest, ndn::NackReason::kNoRoute);
      return false;
    }
    // Resume-point validation. A ckpt_digest pin (set by the migration
    // coordinator from the manifest it read while planning) is the
    // authoritative integrity check — the local manifest replica may
    // legitimately lag the latest epoch after a crash. Without a pin,
    // the local manifest must name this exact epoch and digest.
    const std::uint64_t digest = fnv1a(*payload);
    std::string invalid;
    if (auto pin = effective.params.find("ckpt_digest");
        pin != effective.params.end()) {
      if (pin->second != std::to_string(digest)) invalid = "digest-pin-mismatch";
    } else {
      std::optional<CkptManifest> manifest;
      if (const auto bytes =
              ckpt_store_->get(makeCkptManifestName(ref->jobId))) {
        const std::string_view text(reinterpret_cast<const char*>(bytes->data()),
                                    bytes->size());
        if (auto decoded = decodeCkptManifest(text)) manifest = *decoded;
      }
      if (!manifest) {
        invalid = "manifest-missing";
      } else if (manifest->epoch != ref->epoch) {
        invalid = "stale-epoch";
      } else if (manifest->digest != digest) {
        invalid = "digest-mismatch";
      }
    }
    if (!invalid.empty()) {
      ++counters_.ckptRestoreFailures;
      LIDC_FR_EVENT(recorder_, kWarn, "gateway",
                    cluster_name_ + " ckpt-restore-fallback " + ckptIt->second +
                        " (" + invalid + ")");
      admission("ckpt-fallback", {{"why", invalid}});
      effective.params.erase("ckpt");
      effective.params.erase("ckpt_digest");
      effective.params.erase("ckpt_from");
    } else {
      restoring = true;
      ckptJobId = ref->jobId;
      if (auto from = effective.params.find("ckpt_from");
          from != effective.params.end()) {
        restoredFrom = from->second;
      }
    }
  }

  ndn::Name canonical = effective.canonicalName();

  // Result cache: identical canonical requests are answered directly
  // with the stored result location (paper SVII).
  if (options_.enableResultCache && request.requestId.empty()) {
    if (auto cached = cache_.get(canonical, forwarder_.simulator().now())) {
      ++counters_.cacheHits;
      admission("cache-hit", {{"job_id", cached->jobId}});
      reply(interest.name(), encodeCachedAck(cluster_name_, *cached), kAckFreshness);
      return false;
    }
    // In-flight dedup: join a running job for the same canonical name.
    if (auto it = inflight_.find(canonical); it != inflight_.end()) {
      ++counters_.inflightDedup;
      admission("dedup", {{"job_id", it->second}});
      reply(interest.name(),
            encodeJobAck(cluster_name_, it->second, /*deduplicated=*/true),
            kAckFreshness);
      return false;
    }
  }

  // Admission control: if this cluster cannot fit the job now, nack so
  // the forwarding strategy fails over to another cluster (the paper's
  // "any cluster with sufficient resources" property). QoS launches skip
  // this: the AdmissionController's capacity probe already gated them at
  // drain time.
  if (admission_control_ && checkCapacity) {
    // Health gate: a cluster that lost too many nodes stops admitting
    // jobs entirely, even if the survivors nominally have capacity —
    // partial failures usually cascade, and the overlay has healthier
    // clusters to offer.
    if (healthyNodeFraction() < kMinHealthyNodeFraction) {
      ++counters_.healthRejected;
      admission("health-reject",
                {{"healthy_fraction", std::to_string(healthyNodeFraction())}});
      face_->putNack(interest, ndn::NackReason::kCongestion);
      return false;
    }
    if (!JobManager::requestsFor(effective).fitsWithin(cluster_.totalFree())) {
      ++counters_.capacityRejected;
      admission("capacity-reject");
      face_->putNack(interest, ndn::NackReason::kCongestion);
      return false;
    }
  }

  auto jobId = jobs_.submit(effective, priorityClass);
  if (!jobId.ok()) {
    ++counters_.computeRejected;
    admission("launch-reject", {{"error", jobId.status().toString()}});
    if (jobId.status().code() == StatusCode::kNotFound) {
      // e.g. this cluster does not serve the application image; another
      // cluster in the overlay might.
      face_->putNack(interest, ndn::NackReason::kNoRoute);
      return false;
    }
    if (jobId.status().code() == StatusCode::kResourceExhausted) {
      // The tenant's ResourceQuota on *this* cluster is exhausted. On
      // the QoS path that is a quota signal (backoff, not failover); on
      // the legacy path quotas are per-cluster, so fail over.
      face_->putNack(interest, tenant.empty()
                                   ? ndn::NackReason::kCongestion
                                   : ndn::NackReason::kQuotaExceeded);
      return false;
    }
    replyError(interest, jobId.status().toString());
    return false;
  }

  ++counters_.jobsLaunched;
  JobRecord& record = records_[*jobId];
  record.phase = JobRecord::Phase::kLaunched;
  record.since = forwarder_.simulator().now();
  record.launch = std::make_unique<JobRecord::Launch>();
  JobRecord::Launch& launch = *record.launch;
  launch.trace = admission("launch", {{"job_id", *jobId}});
  launch.tenant = tenant;
  if (effective.requestId.empty()) {
    inflight_.emplace(canonical, *jobId);
    launch.dedupKey = std::move(canonical);
  }
  launch.request = std::move(effective);
  armReaper();

  if (restoring) {
    ++counters_.ckptRestores;
    LIDC_FR_EVENT(recorder_, kInfo, "gateway",
                  cluster_name_ + " ckpt-restore " + *jobId + " from " +
                      ckptJobId);
    // Alias the migrated-away job id so its pollers follow the move.
    if (!restoredFrom.empty()) addStatusAlias(restoredFrom, ckptJobId, *jobId);
  }

  log::ScopedTrace scopedTrace(traceCtx.trace);
  LIDC_LOG(kInfo, "gateway") << cluster_name_ << " launched " << *jobId << " for "
                             << interest.name().toUri();
  reply(interest.name(), encodeJobAck(cluster_name_, *jobId), kAckFreshness);
  return true;
}

void Gateway::onStatus(const ndn::Interest& interest) {
  ++counters_.statusReceived;
  auto parsed = parseStatusName(interest.name());
  if (!parsed.ok()) {
    face_->putNack(interest, ndn::NackReason::kNoRoute);
    return;
  }
  std::string jobKey = parsed->second;
  if (parsed->first != cluster_name_) {
    // Migration alias: polls under the old cluster's name for a job
    // that moved here are answered with the local successor's status.
    auto alias = aliases_.find(parsed->first + "/" + parsed->second);
    if (alias == aliases_.end()) {
      face_->putNack(interest, ndn::NackReason::kNoRoute);
      return;
    }
    ++counters_.aliasServed;
    jobKey = alias->second;
  }
  auto record = records_.find(jobKey);
  // Touch-eviction: an expired record is retired on contact, so status
  // GC holds even while the reaper timer is idle.
  if (record != records_.end() &&
      expired(record->second, forwarder_.simulator().now())) {
    ++counters_.statusEvicted;
    retire(jobKey);
    record = records_.end();
  }
  // A gray-admitted id has no job behind it: report Pending, exactly the
  // signature a stalled-but-alive gateway shows, until the id retires.
  if (record != records_.end() &&
      record->second.phase == JobRecord::Phase::kGray) {
    JobStatusSnapshot pending;
    pending.cluster = cluster_name_;
    reply(interest.name(), encodeStatus(pending), kStatusFreshness);
    return;
  }
  auto status = jobs_.status(jobKey);
  if (!status.ok()) {
    // The job object vanished (lost with its cluster state): retire the
    // record so a later identical request launches fresh instead of
    // joining a dead job, then answer a clean NotFound.
    if (status.status().code() == StatusCode::kNotFound &&
        record != records_.end() &&
        record->second.phase == JobRecord::Phase::kLaunched) {
      ++counters_.vanishedEvicted;
      retire(jobKey);
    }
    reply(interest.name(), encodeError(status.status().toString(), /*cluster=*/{}),
          kStatusFreshness);
    return;
  }

  if (tracer_ != nullptr) {
    tracer_->instant("status-serve", "gateway:" + cluster_name_,
                     interest.traceContext(),
                     {{"job_id", jobKey},
                      {"state", std::string(k8s::jobStateName(status->state))}});
  }

  reply(interest.name(), encodeStatus(*status), kStatusFreshness);
}

void Gateway::onInfo(const ndn::Interest& interest) {
  // Freshness on /ndn/k8s/info/<cluster> capability advertisements.
  constexpr sim::Duration kInfoFreshness = sim::Duration::seconds(2);
  ++counters_.infoReceived;
  reply(interest.name(), encodeInfo(cluster_), kInfoFreshness);
}

void Gateway::onPublish(const ndn::Interest& interest) {
  // Command Interest: /ndn/k8s/publish/<object...>/sha=<digest>, payload
  // in ApplicationParameters. The trailing digest makes the command name
  // unique per content version and lets the gateway verify integrity.
  auto reject = [this, &interest](const std::string& reason) {
    ++counters_.publishesRejected;
    reply(interest.name(), encodeError(reason, cluster_name_), kStatusFreshness);
  };

  if (publish_store_ == nullptr) {
    face_->putNack(interest, ndn::NackReason::kNoRoute);
    return;
  }
  const ndn::Name& name = interest.name();
  if (name.size() < kPublishPrefix.size() + 2) {
    reject("publish name needs /<object...>/sha=<digest>");
    return;
  }
  // Optional tenant attribution: a "tenant=<id>" component right after
  // the prefix scopes the publish to that tenant's byte quota. It is
  // stripped from the stored object name.
  std::string tenant;
  std::size_t objectStart = kPublishPrefix.size();
  if (const std::string first = name[objectStart].toString();
      strings::startsWith(first, "tenant=")) {
    tenant = first.substr(7);
    ++objectStart;
    if (name.size() < objectStart + 2) {
      reject("publish name needs /<object...>/sha=<digest>");
      return;
    }
    if (tenants_ == nullptr || tenants_->find(tenant) == nullptr) {
      reject("unknown tenant '" + tenant + "'");
      return;
    }
  }
  const std::string last = name[name.size() - 1].toString();
  if (!strings::startsWith(last, "sha=")) {
    reject("publish name missing trailing sha= component");
    return;
  }
  const auto& payload = interest.applicationParameters();
  if (payload.empty()) {
    reject("publish carries no ApplicationParameters payload");
    return;
  }
  if (payload.size() > options_.maxPublishBytes) {
    reject("publish payload exceeds " +
           std::to_string(options_.maxPublishBytes) + " bytes");
    return;
  }
  // Integrity: the digest in the name must match the payload.
  if (last != "sha=" + std::to_string(interest.applicationParametersDigest())) {
    reject("payload digest mismatch");
    return;
  }

  ndn::Name objectName = kDataPrefix;
  objectName.append(name.subName(objectStart, name.size() - objectStart - 1));
  Status stored = tenant.empty()
                      ? publish_store_->put(objectName, payload)
                      : publish_store_->put(objectName, payload, tenant);
  if (!stored.ok()) {
    if (stored.code() == StatusCode::kResourceExhausted) {
      // Over the tenant's publish byte budget: distinct quota signal so
      // the client backs off instead of failing over.
      ++counters_.publishesRejected;
      LIDC_FR_EVENT(recorder_, kWarn, "gateway",
                    cluster_name_ + " publish-quota-reject tenant=" + tenant);
      face_->putNack(interest, ndn::NackReason::kQuotaExceeded);
      return;
    }
    reject(stored.toString());
    return;
  }
  ++counters_.publishesAccepted;
  LIDC_LOG(kInfo, "gateway") << cluster_name_ << " stored published object "
                             << objectName.toUri();
  reply(interest.name(), encodePublished(objectName, payload.size(), cluster_name_),
        kStatusFreshness);
}

void Gateway::onJobFinished(const k8s::Job& job) {
  // Jobs submitted straight to jobs() (the centralized baseline) get
  // their first record here, already terminal.
  JobRecord& record = records_[job.name()];
  const sim::Time launchedAt = record.since;
  // The launch state leaves the record with the job.
  const std::unique_ptr<JobRecord::Launch> launch = std::move(record.launch);
  record.phase = JobRecord::Phase::kTerminal;
  record.since = forwarder_.simulator().now();
  if (launch == nullptr) return;
  const ComputeRequest& request = launch->request;
  eraseIfNames(inflight_, launch->dedupKey, job.name());

  // The gateway only learns scheduling/execution boundaries at terminal
  // state, so the K8s spans are recorded retroactively under the launch
  // decision's span.
  if (tracer_ != nullptr && launch->trace) {
    const auto& st = job.status();
    if (st.startTime >= launchedAt) {
      tracer_->recordSpan("k8s-schedule", "k8s:" + cluster_name_, launch->trace,
                          launchedAt, st.startTime);
      if (st.completionTime >= st.startTime) {
        tracer_->recordSpan(
            "k8s-exec", "k8s:" + cluster_name_, launch->trace, st.startTime,
            st.completionTime,
            {{"state", std::string(k8s::jobStateName(st.state))}});
      }
    }
    tracer_->bindJob(job.name(), launch->trace.trace);
  }

  if (job.status().state == k8s::JobState::kCompleted) {
    if (options_.enableResultCache && request.requestId.empty()) {
      cache_.put(launch->dedupKey,
                 CachedResult{job.name(), job.status().resultPath,
                              job.status().outputBytes,
                              forwarder_.simulator().now()});
    }
    if (predictor_ != nullptr) {
      predictor_->record(request,
                         job.status().completionTime - job.status().startTime);
    }
  }
  releaseCharge(launch->tenant, request);
}

void Gateway::attachTelemetry(telemetry::MetricsRegistry& registry,
                              telemetry::Tracer* tracer) {
  tracer_ = tracer;
  metrics_registry_ = &registry;
  if (admission_) admission_->attachTelemetry(registry);
  const telemetry::Labels labels{{"cluster", cluster_name_}};
  const auto bind = [&](const char* name, const std::uint64_t& cell) {
    registry.bindCounter(name, labels, cell);
  };
  bind("lidc_gateway_compute_received", counters_.computeReceived);
  bind("lidc_gateway_compute_rejected", counters_.computeRejected);
  bind("lidc_gateway_jobs_launched", counters_.jobsLaunched);
  bind("lidc_gateway_cache_hits", counters_.cacheHits);
  bind("lidc_gateway_inflight_dedup", counters_.inflightDedup);
  bind("lidc_gateway_status_received", counters_.statusReceived);
  bind("lidc_gateway_capacity_rejected", counters_.capacityRejected);
  bind("lidc_gateway_info_received", counters_.infoReceived);
  bind("lidc_gateway_publishes_accepted", counters_.publishesAccepted);
  bind("lidc_gateway_publishes_rejected", counters_.publishesRejected);
  bind("lidc_gateway_health_rejected", counters_.healthRejected);
  bind("lidc_gateway_orphans_reaped", counters_.orphansReaped);
  bind("lidc_gateway_vanished_evicted", counters_.vanishedEvicted);
  bind("lidc_gateway_blackout_dropped", counters_.blackoutDropped);
  bind("lidc_gateway_gray_admitted", counters_.grayAdmitted);
  bind("lidc_ckpt_restores_total", counters_.ckptRestores);
  bind("lidc_ckpt_restore_failures_total", counters_.ckptRestoreFailures);
  bind("lidc_status_evicted_total", counters_.statusEvicted);
  bind("lidc_status_alias_served_total", counters_.aliasServed);
  registry.bindCounter("lidc_result_cache_hits", labels,
                       [this] { return cache_.hits(); });
  registry.bindCounter("lidc_result_cache_misses", labels,
                       [this] { return cache_.misses(); });
  registry.bindGauge("lidc_result_cache_size", labels,
                     [this] { return static_cast<double>(cache_.size()); });
  registry.bindGauge("lidc_gateway_healthy_node_fraction", labels,
                     [this] { return healthyNodeFraction(); });
}

double Gateway::healthyNodeFraction() const {
  const std::size_t nodes = cluster_.nodeCount();
  if (nodes == 0) return 0.0;
  return static_cast<double>(cluster_.readyNodeCount()) /
         static_cast<double>(nodes);
}

bool Gateway::expired(const JobRecord& record, sim::Time now) const {
  return options_.enableStatusGc &&
         record.phase != JobRecord::Phase::kLaunched &&
         now - record.since > options_.statusRetention;
}

void Gateway::retire(const std::string& jobId) {
  auto it = records_.find(jobId);
  if (it == records_.end()) return;
  for (const auto& alias : it->second.aliases) {
    if (eraseIfNames(aliases_, alias.key, jobId)) {
      forwarder_.unregisterPrefix(alias.route, face_id_);
    }
  }
  const std::unique_ptr<JobRecord::Launch> launch = std::move(it->second.launch);
  if (launch != nullptr) eraseIfNames(inflight_, launch->dedupKey, jobId);
  records_.erase(it);
  jobs_.retire(jobId);
  if (launch != nullptr) releaseCharge(launch->tenant, launch->request);
}

void Gateway::releaseCharge(const std::string& tenant,
                            const ComputeRequest& request) {
  if (admission_ == nullptr || tenant.empty()) return;
  const k8s::Resources charged = JobManager::requestsFor(request);
  admission_->releaseJob(tenant, charged.cpu.millicores(), charged.memory.bytes());
}

void Gateway::armReaper() {
  if (reaper_pending_) return;
  reaper_pending_ = true;
  forwarder_.simulator().scheduleAfter(options_.reaperInterval, [this] {
    reaper_pending_ = false;
    if (sweep()) armReaper();
  });
}

bool Gateway::sweep() {
  const sim::Time now = forwarder_.simulator().now();
  // Collect first: retiring an orphan releases its tenant charge, which
  // can launch queued work that inserts records.
  std::vector<std::string> victims;
  bool launchedLeft = false;
  for (const auto& [jobId, record] : records_) {
    if (record.phase != JobRecord::Phase::kLaunched) {
      if (expired(record, now)) {
        ++counters_.statusEvicted;
        victims.push_back(jobId);
      }
      continue;
    }
    // A vanished job object leaves a dangling record. Of live jobs only
    // Pending counts as "stuck": a Running job has a completion event
    // scheduled and will reach a terminal state on its own, but a pod
    // that cannot be scheduled (cluster lost its nodes, capacity gone
    // for good) waits forever.
    auto status = jobs_.status(jobId);
    if (!status.ok() || (status->state == k8s::JobState::kPending &&
                         now - record.since > options_.orphanTtl)) {
      ++counters_.orphansReaped;
      LIDC_LOG(kInfo, "gateway")
          << cluster_name_ << " reaped orphaned job " << jobId;
      victims.push_back(jobId);
    } else {
      launchedLeft = true;
    }
  }
  for (const std::string& jobId : victims) retire(jobId);
  return launchedLeft;
}

void Gateway::addStatusAlias(const std::string& oldCluster,
                             const std::string& oldJobId,
                             const std::string& newJobId) {
  auto record = records_.find(newJobId);
  if (record == records_.end()) return;
  JobRecord::Alias alias{oldCluster + "/" + oldJobId,
                         makeStatusName(oldCluster, oldJobId)};
  aliases_[alias.key] = newJobId;
  // Exact route for the old status name: its 5 components beat the dead
  // cluster's 4-component /ndn/k8s/status/<cluster> registration in
  // longest-prefix match, so existing pollers are steered here without
  // learning the new name. retire() removes it with the alias.
  forwarder_.registerPrefix(alias.route, face_id_, /*cost=*/0);
  record->second.aliases.push_back(std::move(alias));
  LIDC_FR_EVENT(recorder_, kInfo, "gateway",
                cluster_name_ + " status-alias " + oldCluster + "/" +
                    oldJobId + " -> " + newJobId);
}

}  // namespace lidc::core
