#include "core/client.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <variant>

#include "common/hash.hpp"
#include "common/logging.hpp"
#include "common/strings.hpp"

namespace lidc::core {

namespace {
constexpr sim::Time kNoDeadline =
    sim::Time::fromNanos(std::numeric_limits<std::int64_t>::max());
/// Backoff growth per submit attempt, and the seeded jitter band
/// around it (a factor in [1 - kBackoffJitter, 1 + kBackoffJitter]).
constexpr double kBackoffMultiplier = 2.0;
constexpr double kBackoffJitter = 0.2;
/// A RESOURCE_EXHAUSTED retry waits this many times the normal backoff.
constexpr double kQuotaBackoffScale = 4.0;
/// Quantile of observed ack latencies that arms the hedge timer.
constexpr double kHedgeQuantile = 0.99;
}  // namespace

LidcClient::LidcClient(ndn::Forwarder& forwarder, std::string name,
                       ClientOptions options, std::uint64_t seed)
    : forwarder_(forwarder), name_(std::move(name)), options_(options), rng_(seed),
      seed_(seed) {
  // The face's nonce stream mixes in the client name: two clients built
  // with the same seed (e.g. a user poller and an ops monitor watching
  // the same status name) must not draw identical nonces, or the
  // producer's dead-nonce list nacks one of them as a looped Duplicate.
  face_ = std::make_shared<ndn::AppFace>("app://client/" + name_,
                                         forwarder_.simulator(),
                                         seed ^ fnv1a(name_));
  forwarder_.addFace(face_);
  retriever_ = std::make_unique<datalake::Retriever>(*face_);
}

namespace {

bool isRetryableNack(ndn::NackReason reason) {
  // Congestion (cluster full / unhealthy) and missing routes (route
  // flaps during failover, clusters mid-rejoin) are transient cluster or
  // network conditions; quota rejections clear once the tenant's queued
  // work drains or its token bucket refills, so a (slow) retry can
  // succeed. Duplicates and the rest are not helped by re-expressing
  // the same name.
  return reason == ndn::NackReason::kCongestion ||
         reason == ndn::NackReason::kNoRoute ||
         reason == ndn::NackReason::kQuotaExceeded;
}

/// Distinct quota signal: RESOURCE_EXHAUSTED tells the caller this is
/// its own budget, not a sick cluster — back off, don't fail over.
Status nackStatus(ndn::NackReason reason, const std::string& what, int attempts) {
  const std::string detail = what + " nacked after " +
                             std::to_string(attempts) + " attempts: " +
                             std::string(ndn::nackReasonName(reason));
  if (reason == ndn::NackReason::kQuotaExceeded) {
    return Status::ResourceExhausted(detail);
  }
  return Status::Unavailable(detail);
}
}  // namespace

struct LidcClient::Leg {
  int race = 0;  // the attempt that sent it (JobRun::race at send time)
  bool hedge = false;
  sim::Time sentAt;
  telemetry::TraceContext span;
};

/// One request's life, from its first submit Interest to its single
/// terminal callback: submitting (legs, backoff retries) -> polling ->
/// finished, where a failover (Failed job, dark status, watchdog, or
/// the health or breaker gate) goes back to submitting under a fresh
/// request id. submit() stops at the ack, waitForCompletion() starts at
/// the first poll, and runToCompletion() runs the whole machine. Each
/// field is stored once; timers and Interests hold the run, and every
/// transition is a LidcClient member.
struct LidcClient::JobRun {
  ComputeRequest request;  // carries the current submit cycle's request id
  std::variant<SubmitCallback, StatusCallback, OutcomeCallback> done;
  sim::Time startedAt;
  sim::Time deadlineAt;
  /// Parent of the run's spans and instants: the "job" span of a
  /// runToCompletion(), else the caller's context.
  telemetry::TraceContext root;
  int failovers = 0;

  // Submitting. `attempt` counts retries since the last failover; `race`
  // numbers every attempt of the run, so a leg answering after its
  // attempt settled (a hedge loser) is recognised as cancelled.
  int attempt = 0;
  int race = 0;
  bool settled = false;  // the race was won, or every leg failed
  int outstanding = 0;   // legs of the current race not yet answered

  // Polling.
  SubmitResult ack;
  ndn::Name statusName;
  telemetry::TraceContext await;  // "await-completion" span
  int pollFailures = 0;           // consecutive
  sim::Time progressSince;        // Pending watchdog anchor

  bool finished = false;

  /// Hands the terminal result to the caller; a run finishes once.
  template <typename T>
  void finish(Result<T> result) {
    assert(!finished && "a JobRun finishes at most once");
    finished = true;
    auto callback = std::get<std::function<void(Result<T>)>>(std::move(done));
    callback(std::move(result));
  }
};

ndn::Name LidcClient::requestName(const ComputeRequest& request) const {
  if (options_.tenant.empty()) return request.toName();
  return makeSubmitName(options_.tenant, request);
}

void LidcClient::attachTelemetry(telemetry::MetricsRegistry& registry,
                                 telemetry::Tracer* tracer) {
  telemetry_ = std::make_unique<Telemetry>();
  const telemetry::Labels labels{{"client", name_}};
  registry.bindCounter("lidc_client_submits", labels, submits_);
  registry.bindCounter("lidc_client_retries", labels, retries_);
  registry.bindCounter("lidc_client_failovers", labels, failovers_);
  registry.bindCounter("lidc_client_status_polls", labels, polls_);
  registry.bindCounter("lidc_hedges_issued_total", labels, hedges_issued_);
  registry.bindCounter("lidc_hedges_won_total", labels, hedges_won_);
  registry.bindCounter("lidc_hedges_cancelled_total", labels, hedges_cancelled_);
  registry.bindCounter("lidc_breaker_trips_total", labels, breaker_trips_);
  registry.bindCounter("lidc_breaker_steered_total", labels, breaker_steered_);
  registry.bindCounter("lidc_watchdog_timeouts_total", labels, watchdog_timeouts_);
  telemetry_->jobLatencyUs = &registry.histogram("lidc_client_job_latency_us", labels);
  telemetry_->tracer = tracer;
  telemetry_->registry = &registry;
}

CircuitBreaker* LidcClient::breakerFor(const std::string& cluster) {
  if (!options_.enableCircuitBreaker || cluster.empty()) return nullptr;
  auto it = breakers_.find(cluster);
  if (it == breakers_.end()) {
    auto breaker =
        std::make_unique<CircuitBreaker>(options_.breaker, seed_ ^ fnv1a(cluster));
    breaker->setListener([this, cluster](BreakerState state) {
      if (state == BreakerState::kOpen) ++breaker_trips_;
      if (telemetry_) {
        // 0 = closed, 1 = half-open, 2 = open.
        const double encoded = state == BreakerState::kClosed     ? 0.0
                               : state == BreakerState::kHalfOpen ? 1.0
                                                                  : 2.0;
        telemetry::Gauge*& gauge = telemetry_->breakerStates[cluster];
        if (gauge == nullptr) {
          gauge = &telemetry_->registry->gauge(
              "lidc_breaker_state", {{"client", name_}, {"cluster", cluster}});
        }
        gauge->set(encoded);
      }
      LIDC_FR_EVENT(recorder_, kWarn, "client",
                    name_ + " breaker " + cluster + " -> " +
                        std::string(breakerStateName(state)));
      if (options_.breakerListener) options_.breakerListener(cluster, state);
    });
    it = breakers_.emplace(cluster, std::move(breaker)).first;
  }
  return it->second.get();
}

void LidcClient::recordAckLatency(sim::Duration latency) {
  constexpr std::size_t kWindow = 128;
  const double seconds = latency.toSeconds();
  if (ack_latencies_.size() < kWindow) {
    ack_latencies_.push_back(seconds);
  } else {
    ack_latencies_[ack_latency_next_] = seconds;
    ack_latency_next_ = (ack_latency_next_ + 1) % kWindow;
  }
}

sim::Duration LidcClient::hedgeDelay() const {
  // Too little signal: fall back to the configured floor.
  if (ack_latencies_.size() < 8) return options_.hedgeDelayFloor;
  std::vector<double> sorted = ack_latencies_;
  std::sort(sorted.begin(), sorted.end());
  const auto index = std::min(
      sorted.size() - 1,
      static_cast<std::size_t>(kHedgeQuantile * static_cast<double>(sorted.size())));
  return std::max(options_.hedgeDelayFloor, sim::Duration::seconds(sorted[index]));
}

sim::Duration LidcClient::backoffDelay(int attempt) {
  double delay = options_.backoffInitial.toSeconds();
  for (int i = 0; i < attempt; ++i) delay *= kBackoffMultiplier;
  delay = std::min(delay, options_.backoffMax.toSeconds());
  const double jitter = 1.0 + kBackoffJitter * (2.0 * rng_.uniformDouble() - 1.0);
  return sim::Duration::seconds(delay * jitter);
}

void LidcClient::closeLegSpan(const Leg& leg, const char* outcome) {
  telemetry::Tracer* tracer = this->tracer();
  if (tracer != nullptr && leg.span) {
    tracer->setAttr(leg.span, "outcome", outcome);
    tracer->endSpan(leg.span);
  }
}

LidcClient::RunPtr LidcClient::newRun(telemetry::TraceContext root) {
  auto run = std::make_shared<JobRun>();
  run->startedAt = forwarder_.simulator().now();
  run->deadlineAt = options_.deadline.toNanos() > 0
                        ? run->startedAt + options_.deadline
                        : kNoDeadline;
  run->root = root;
  return run;
}

void LidcClient::submit(ComputeRequest request, SubmitCallback done,
                        telemetry::TraceContext parent) {
  RunPtr run = newRun(parent);
  run->request = std::move(request);
  run->done.emplace<SubmitCallback>(std::move(done));
  startSubmitting(run);
}

void LidcClient::waitForCompletion(const ndn::Name& statusName, StatusCallback done,
                                   telemetry::TraceContext parent) {
  RunPtr run = newRun(parent);
  run->done.emplace<StatusCallback>(std::move(done));
  run->statusName = statusName;
  run->progressSince = run->startedAt;
  poll(run);
}

void LidcClient::runToCompletion(ComputeRequest request, OutcomeCallback done,
                                 telemetry::TraceContext parent) {
  // Root of the job's span tree: a fresh trace, or a child of the
  // caller's span (e.g. a workflow-stage span).
  telemetry::TraceContext root;
  if (telemetry::Tracer* tracer = this->tracer()) {
    const telemetry::SpanAttrs attrs{{"app", request.app}};
    root = parent ? tracer->startSpan("job", "client:" + name_, parent, attrs)
                  : tracer->startTrace("job", "client:" + name_, attrs);
  }
  RunPtr run = newRun(root);
  run->request = std::move(request);
  run->done.emplace<OutcomeCallback>(std::move(done));
  startSubmitting(run);
}

void LidcClient::startSubmitting(const RunPtr& run) {
  std::string& requestId = run->request.requestId;
  if (run->failovers > 0) {
    // A fresh request id guarantees the resubmission is a new name: no
    // content store, PIT aggregation, or gateway dedup entry can answer
    // with the dead job, so the forwarding strategy is free to place it
    // on a healthy cluster.
    requestId = name_ + "-fo" + std::to_string(run->failovers) + "-" +
                std::to_string(next_request_id_++);
  }
  if (options_.bypassCache && requestId.empty()) {
    // Unique request id defeats caches and Interest aggregation.
    requestId = name_ + "-" + std::to_string(next_request_id_++);
  }
  run->attempt = 0;
  submitAttempt(run);
}

void LidcClient::submitAttempt(const RunPtr& run) {
  const int race = ++run->race;
  run->settled = false;
  run->outstanding = 0;
  sendLeg(run, run->request, /*hedge=*/false);
  if (!options_.enableHedging) return;
  const sim::Duration delay = hedgeDelay();
  forwarder_.simulator().scheduleAfter(delay, [this, run, race, delay] {
    // Already answered (or every leg failed), or a later attempt began.
    if (run->race != race || run->settled) return;
    if (forwarder_.simulator().now() >= run->deadlineAt) return;
    ++hedges_issued_;
    if (telemetry::Tracer* tracer = this->tracer()) {
      tracer->instant("hedge", "client:" + name_, run->root,
                      {{"delay_ms", std::to_string(delay.toMillis())}});
    }
    LIDC_FR_EVENT(recorder_, kWarn, "client",
                  name_ + " hedge after " + std::to_string(delay.toMillis()) +
                      "ms attempt=" + std::to_string(run->attempt));
    // A fresh request id makes the backup a new name: no PIT entry
    // or content store can collapse it onto the stalled primary, so
    // the forwarding strategy is free to try another path.
    ComputeRequest backup = run->request;
    backup.requestId = (backup.requestId.empty() ? name_ : backup.requestId) +
                       "-h" + std::to_string(next_request_id_++);
    sendLeg(run, backup, /*hedge=*/true);
  });
}

void LidcClient::sendLeg(const RunPtr& run, const ComputeRequest& request,
                         bool hedge) {
  ++submits_;
  const sim::Time now = forwarder_.simulator().now();
  submit_attempt_log_.push_back(now);
  ++run->outstanding;

  Leg leg{run->race, hedge, now, {}};
  if (telemetry::Tracer* tracer = this->tracer()) {
    telemetry::SpanAttrs attrs{{"attempt", std::to_string(run->attempt)}};
    if (options_.enableHedging) attrs.emplace_back("hedge", hedge ? "1" : "0");
    leg.span = tracer->startSpan("submit-attempt", "client:" + name_, run->root,
                                 std::move(attrs));
  }

  ndn::Interest interest(requestName(request));
  interest.setLifetime(options_.interestLifetime);
  interest.setTraceContext(leg.span);
  interest.setFlowLabel({options_.tenant, request.flowTag});
  // MustBeFresh keeps network caches from answering with acks older
  // than their freshness period (5 s, set by the gateway); within that
  // window, identical canonical requests may legitimately be served
  // from any CS.
  interest.setMustBeFresh(true);

  face_->expressInterest(
      std::move(interest),
      [this, run, leg](const ndn::Interest&, const ndn::Data& data) {
        onAck(run, leg, data);
      },
      [this, run, leg](const ndn::Interest&, const ndn::Nack& nack) {
        onLegFailed(run, leg, &nack);
      },
      [this, run, leg](const ndn::Interest&) { onLegFailed(run, leg, nullptr); });
}

void LidcClient::onAck(const RunPtr& run, const Leg& leg, const ndn::Data& data) {
  if (leg.race != run->race || run->settled) {
    // Another leg already won: this is the cancelled loser.
    ++hedges_cancelled_;
    closeLegSpan(leg, "hedge-lost");
    return;
  }
  run->settled = true;
  --run->outstanding;
  if (leg.hedge) ++hedges_won_;
  const sim::Time now = forwarder_.simulator().now();
  recordAckLatency(now - leg.sentAt);
  Result<SubmitResult> ack = decodeAck(data.contentView());
  if (!ack.ok()) {
    closeLegSpan(leg, "error");
    onSubmitted(run, std::move(ack));
    return;
  }
  ack->placementLatency = now - run->startedAt;
  closeLegSpan(leg, leg.hedge           ? "hedge-won"
                    : ack->cached       ? "cache-hit"
                    : ack->deduplicated ? "dedup"
                                        : "ack");
  onSubmitted(run, std::move(ack));
}

void LidcClient::onLegFailed(const RunPtr& run, const Leg& leg,
                             const ndn::Nack* nack) {
  closeLegSpan(leg, nack != nullptr ? "nack" : "timeout");
  if (leg.race != run->race || run->settled) return;
  // The last leg to fail settles the attempt, so a pending hedge timer
  // is a no-op.
  if (--run->outstanding > 0) return;
  run->settled = true;
  if (nack == nullptr) {
    retryOrGiveUp(run, Status::Timeout("compute request timed out after " +
                                       std::to_string(run->attempt + 1) +
                                       " attempts"));
    return;
  }
  Status why = nackStatus(nack->reason(), "compute request", run->attempt + 1);
  if (isRetryableNack(nack->reason())) {
    retryOrGiveUp(run, std::move(why));
  } else {
    onSubmitted(run, std::move(why));
  }
}

void LidcClient::retryOrGiveUp(const RunPtr& run, Status why) {
  const int attempt = run->attempt;
  if (attempt + 1 > options_.maxSubmitRetries) {
    onSubmitted(run, std::move(why));
    return;
  }
  sim::Duration delay = backoffDelay(attempt);
  if (why.code() == StatusCode::kResourceExhausted) {
    // Quota pressure is global (the tenant's budget, not this path):
    // retrying fast or failing over cannot help, so wait it out.
    delay = delay * kQuotaBackoffScale;
  }
  if (forwarder_.simulator().now() + delay > run->deadlineAt) {
    onSubmitted(run, Status::Timeout("deadline exceeded after " +
                                     std::to_string(attempt + 1) +
                                     " submit attempts (" + why.toString() + ")"));
    return;
  }
  ++retries_;
  if (telemetry::Tracer* tracer = this->tracer()) {
    tracer->instant("backoff", "client:" + name_, run->root,
                    {{"delay_ms", std::to_string(delay.toMillis())},
                     {"after", why.toString()}});
  }
  LIDC_FR_EVENT(recorder_, kWarn, "client",
                name_ + " backoff attempt=" + std::to_string(attempt + 1) +
                    " delay_ms=" + std::to_string(delay.toMillis()) + " after " +
                    why.toString());
  forwarder_.simulator().scheduleAfter(delay, [this, run] {
    ++run->attempt;
    submitAttempt(run);
  });
}

void LidcClient::onSubmitted(const RunPtr& run, Result<SubmitResult> ack) {
  if (std::holds_alternative<SubmitCallback>(run->done)) {
    run->finish(std::move(ack));
    return;
  }
  if (!ack.ok()) {
    if (ack.status().code() == StatusCode::kResourceExhausted) {
      // The tenant's quota is exhausted federation-wide; a fresh
      // request id on another cluster hits the same budget. Report
      // RESOURCE_EXHAUSTED instead of burning the failover budget.
      finishJob(*run, ack.status());
      return;
    }
    failOver(run, ack.status());
    return;
  }
  telemetry::Tracer* tracer = this->tracer();
  if (tracer != nullptr && run->root && !ack->jobId.empty()) {
    // Bind early so explain(job_id) works even for jobs that never
    // reach a terminal state (e.g. lost with their cluster).
    tracer->bindJob(ack->jobId, run->root.trace);
  }
  const sim::Time now = forwarder_.simulator().now();
  if (ack->cached) {
    // Cache hit: no job to wait for.
    JobOutcome outcome;
    outcome.finalStatus.state = k8s::JobState::kCompleted;
    outcome.finalStatus.cluster = ack->cluster;
    outcome.finalStatus.resultPath = ack->resultPath;
    outcome.finalStatus.outputBytes = ack->outputBytes;
    outcome.submit = std::move(*ack);
    outcome.totalLatency = now - run->startedAt;
    outcome.failovers = run->failovers;
    finishJob(*run, std::move(outcome));
    return;
  }
  // Both gates are skipped once the failover budget is spent — a
  // possible job beats an error.
  const bool canFailOver = run->failovers < options_.maxFailovers;
  // Telemetry-steered proactive failover: the ack names the cluster the
  // job landed on; if the health plane says it is degraded, resubmit
  // elsewhere now rather than poll a job that is likely to stall or
  // fail. It runs before the breaker gate because a half-open breaker
  // counts every request it allows as a probe awaiting an outcome, and
  // a job steered off here never reports one.
  if (options_.healthProvider && options_.minClusterHealth > 0.0 && canFailOver &&
      !ack->cluster.empty() &&
      options_.healthProvider(ack->cluster) < options_.minClusterHealth) {
    LIDC_FR_EVENT(recorder_, kWarn, "client", name_ + " steering off " + ack->cluster);
    failOver(run, Status::Unavailable("cluster " + ack->cluster +
                                      " health below minimum"));
    return;
  }
  // Circuit breaker gate: if the cluster's breaker refuses requests
  // (tripped by consecutive failures — gray gateways, limping nodes),
  // abandon this attempt and fail over with a fresh request id instead
  // of parking the job on a cluster that keeps answering but never
  // delivers.
  if (CircuitBreaker* breaker = breakerFor(ack->cluster);
      breaker != nullptr && canFailOver && !breaker->allowRequest(now)) {
    ++breaker_steered_;
    LIDC_FR_EVENT(recorder_, kWarn, "client",
                  name_ + " breaker open, steering off " + ack->cluster);
    failOver(run, Status::Unavailable("circuit breaker open for " + ack->cluster));
    return;
  }
  if (tracer != nullptr) {
    run->await = tracer->startSpan("await-completion", "client:" + name_, run->root,
                                   {{"job_id", ack->jobId}});
  }
  run->statusName = ndn::Name(ack->statusName);
  run->ack = std::move(*ack);
  run->pollFailures = 0;
  run->progressSince = now;
  poll(run);
}

template <typename OnStatus>
void LidcClient::expressStatus(const ndn::Name& statusName,
                               telemetry::TraceContext parent, OnStatus onStatus) {
  ++polls_;
  ndn::Interest interest(statusName);
  interest.setTraceContext(parent);
  interest.setMustBeFresh(true);  // never accept a stale cached state
  interest.setLifetime(options_.interestLifetime);

  face_->expressInterest(
      std::move(interest),
      [onStatus](const ndn::Interest&, const ndn::Data& data) {
        onStatus(decodeStatus(data.contentView()));
      },
      [onStatus](const ndn::Interest&, const ndn::Nack& nack) {
        onStatus(Status::Unavailable("status query nacked: " +
                                     std::string(ndn::nackReasonName(nack.reason()))));
      },
      [onStatus](const ndn::Interest& i) {
        onStatus(Status::Timeout("status query timed out: " + i.name().toUri()));
      });
}

void LidcClient::queryStatus(const ndn::Name& statusName, StatusCallback done,
                             telemetry::TraceContext parent) {
  expressStatus(statusName, parent, std::move(done));
}

void LidcClient::poll(const RunPtr& run) {
  expressStatus(run->statusName, run->await ? run->await : run->root,
                [this, run](Result<JobStatusSnapshot> status) {
                  onPolled(run, std::move(status));
                });
}

void LidcClient::onPolled(const RunPtr& run, Result<JobStatusSnapshot> status) {
  const sim::Time now = forwarder_.simulator().now();
  if (!status.ok()) {
    // Timeouts on a lossy path and Nacks (transient kNoRoute/
    // kCongestion during a route flap mid-failover) are transient:
    // keep polling within the consecutive-failure budget. NotFound
    // (the job vanished) and other errors are terminal.
    const StatusCode code = status.status().code();
    const bool transient =
        code == StatusCode::kTimeout || code == StatusCode::kUnavailable;
    if (transient && run->pollFailures + 1 < options_.maxStatusPollFailures &&
        now + options_.statusPollInterval <= run->deadlineAt) {
      ++run->pollFailures;
      forwarder_.simulator().scheduleAfter(options_.statusPollInterval,
                                           [this, run] { poll(run); });
      return;
    }
    onPollDone(run, std::move(status));
    return;
  }
  run->pollFailures = 0;
  if (status->state == k8s::JobState::kCompleted ||
      status->state == k8s::JobState::kFailed) {
    onPollDone(run, std::move(status));
    return;
  }
  // Progress watchdog: a healthy cluster moves a job to Running
  // quickly; one that answers polls with Pending forever is a gray
  // gateway (it admitted the job but never scheduled it). Treat the
  // stall as a dark status so the caller records a breaker failure
  // and fails over — the poll itself keeps "succeeding", which is
  // exactly why a plain failure budget never fires here.
  if (options_.pendingProgressTtl.toNanos() > 0) {
    if (status->state != k8s::JobState::kPending) {
      run->progressSince = now;  // Running counts as progress
    } else if (now - run->progressSince >= options_.pendingProgressTtl) {
      ++watchdog_timeouts_;
      LIDC_FR_EVENT(recorder_, kWarn, "client",
                    name_ + " watchdog: no progress on " + run->statusName.toUri());
      onPollDone(run, Status::Unavailable(
                          "progress watchdog: job still Pending after " +
                          std::to_string(options_.pendingProgressTtl.toMillis()) +
                          "ms"));
      return;
    }
  }
  if (now + options_.statusPollInterval > run->deadlineAt) {
    onPollDone(run, Status::Timeout("deadline exceeded while job still " +
                                    std::string(k8s::jobStateName(status->state))));
    return;
  }
  forwarder_.simulator().scheduleAfter(options_.statusPollInterval,
                                       [this, run] { poll(run); });
}

void LidcClient::onPollDone(const RunPtr& run, Result<JobStatusSnapshot> status) {
  if (std::holds_alternative<StatusCallback>(run->done)) {
    run->finish(std::move(status));
    return;
  }
  telemetry::Tracer* tracer = this->tracer();
  if (tracer != nullptr && run->await) {
    tracer->setAttr(run->await, "outcome",
                    status.ok() ? std::string(k8s::jobStateName(status->state))
                                : status.status().toString());
    tracer->endSpan(run->await);
  }
  const sim::Time now = forwarder_.simulator().now();
  CircuitBreaker* breaker = breakerFor(run->ack.cluster);
  if (!status.ok()) {
    // Status endpoint dark past the poll budget, the progress watchdog
    // fired, or the job vanished (reaped after its cluster died): count
    // the failure against the cluster's breaker and resubmit.
    if (breaker != nullptr) breaker->recordFailure(now);
    failOver(run, status.status());
    return;
  }
  JobOutcome outcome;
  outcome.submit = std::move(run->ack);
  outcome.finalStatus = std::move(*status);
  outcome.totalLatency = now - run->startedAt;
  outcome.failovers = run->failovers;
  if (outcome.finalStatus.state == k8s::JobState::kFailed) {
    if (breaker != nullptr) breaker->recordFailure(now);
    Status why = Status::Unavailable("job failed: " + outcome.finalStatus.error);
    failOver(run, std::move(why), std::move(outcome));
    return;
  }
  if (breaker != nullptr) breaker->recordSuccess(now);
  finishJob(*run, std::move(outcome));
}

void LidcClient::failOver(const RunPtr& run, Status why,
                          std::optional<JobOutcome> failed) {
  if (run->failovers + 1 > options_.maxFailovers ||
      forwarder_.simulator().now() >= run->deadlineAt) {
    // Out of budget: a job that terminated Failed is still a valid
    // outcome (the pre-failover behaviour); everything else is an error.
    if (failed.has_value()) {
      finishJob(*run, std::move(*failed));
    } else {
      finishJob(*run, std::move(why));
    }
    return;
  }
  ++failovers_;
  if (telemetry::Tracer* tracer = this->tracer()) {
    tracer->instant("failover", "client:" + name_, run->root,
                    {{"after", why.toString()}});
  }
  const int failover = ++run->failovers;
  log::ScopedTrace scopedTrace(run->root.trace);
  LIDC_FR_EVENT(recorder_, kWarn, "client",
                name_ + " failover attempt=" + std::to_string(failover) + " after " +
                    why.toString());
  LIDC_LOG(kInfo, "client") << name_ << " failing over (attempt " << failover
                            << "): " << why.toString();
  startSubmitting(run);
}

void LidcClient::finishJob(JobRun& run, Result<JobOutcome> outcome) {
  telemetry::Tracer* tracer = this->tracer();
  if (outcome.ok()) {
    outcome->trace = run.root;
    if (telemetry_) {
      // Tail samples carry the job's trace id as an exemplar, so a
      // latency-regression alert links to a concrete slow trace.
      telemetry_->jobLatencyUs->observe(
          static_cast<double>(outcome->totalLatency.toNanos()) / 1e3, run.root.trace);
    }
  }
  if (tracer != nullptr && run.root) {
    if (outcome.ok()) {
      tracer->setAttr(run.root, "job_id", outcome->submit.jobId);
      tracer->setAttr(run.root, "cluster", outcome->finalStatus.cluster);
      tracer->setAttr(run.root, "failovers", std::to_string(outcome->failovers));
      if (!outcome->submit.jobId.empty()) {
        tracer->bindJob(outcome->submit.jobId, run.root.trace);
      }
    } else {
      tracer->setAttr(run.root, "error", outcome.status().toString());
    }
    tracer->endSpan(run.root);
  }
  run.finish(std::move(outcome));
}

void LidcClient::fetchData(const ndn::Name& objectName, FetchCallback done,
                           telemetry::TraceContext parent,
                           std::string flowTag) {
  telemetry::FlowLabel label{options_.tenant, std::move(flowTag)};
  telemetry::Tracer* tracer = this->tracer();
  if (tracer == nullptr || !parent) {
    retriever_->fetch(objectName, std::move(done), {}, std::move(label));
    return;
  }
  const telemetry::TraceContext span =
      tracer->startSpan("data-retrieval", "client:" + name_, parent,
                        {{"object", objectName.toUri()}});
  retriever_->fetch(
      objectName,
      [tracer, span, done = std::move(done)](
          Result<std::vector<std::uint8_t>> result) {
        if (result.ok()) {
          tracer->setAttr(span, "bytes", std::to_string(result->size()));
        } else {
          tracer->setAttr(span, "error", result.status().toString());
        }
        tracer->endSpan(span);
        done(std::move(result));
      },
      span, std::move(label));
}

void LidcClient::publishData(const std::string& path,
                             std::vector<std::uint8_t> bytes,
                             PublishCallback done,
                             telemetry::TraceContext parent,
                             std::string flowTag) {
  telemetry::Tracer* tracer = this->tracer();
  telemetry::TraceContext span;
  if (tracer != nullptr && parent) {
    span = tracer->startSpan("data-publish", "client:" + name_, parent,
                             {{"path", path},
                              {"bytes", std::to_string(bytes.size())}});
  }
  auto closeSpan = [tracer, span](const std::string& outcome) {
    if (tracer != nullptr && span) {
      tracer->setAttr(span, "outcome", outcome);
      tracer->endSpan(span);
    }
  };

  ndn::Interest interest;
  interest.setApplicationParameters(std::move(bytes));
  ndn::Name name = kPublishPrefix;
  // Tenant attribution: QoS gateways charge the publish against the
  // tenant's byte quota and strip the component from the stored name.
  if (!options_.tenant.empty()) name.append("tenant=" + options_.tenant);
  for (auto part : strings::splitSkipEmpty(path, '/')) name.append(part);
  // The digest binds the command name to the exact payload bytes. Copies
  // carry the memo, so the gateway's check does not hash them again.
  name.append("sha=" + std::to_string(interest.applicationParametersDigest()));
  interest.setName(std::move(name));
  interest.setMustBeFresh(true);
  interest.setLifetime(options_.interestLifetime);
  interest.setTraceContext(span);
  interest.setFlowLabel({options_.tenant, std::move(flowTag)});

  face_->expressInterest(
      interest,
      [done, closeSpan](const ndn::Interest&, const ndn::Data& data) {
        Result<ndn::Name> stored = decodePublished(data.contentView());
        closeSpan(stored.ok() ? "stored" : "error");
        done(std::move(stored));
      },
      [done, closeSpan](const ndn::Interest&, const ndn::Nack& nack) {
        closeSpan("nack");
        done(nackStatus(nack.reason(), "publish", 1));
      },
      [done, closeSpan](const ndn::Interest& i) {
        closeSpan("timeout");
        done(Status::Timeout("publish timed out: " + i.name().toUri()));
      });
}

void LidcClient::queryClusterInfo(const std::string& cluster, InfoCallback done) {
  ndn::Name name = kInfoPrefix;
  name.append(cluster);
  ndn::Interest interest(name);
  interest.setMustBeFresh(true);  // capabilities change with load
  interest.setLifetime(options_.interestLifetime);

  face_->expressInterest(
      interest,
      [done](const ndn::Interest&, const ndn::Data& data) {
        done(decodeInfo(data.contentView()));
      },
      [done](const ndn::Interest&, const ndn::Nack& nack) {
        done(Status::Unavailable("info query nacked: " +
                                 std::string(ndn::nackReasonName(nack.reason()))));
      },
      [done](const ndn::Interest& i) {
        done(Status::Timeout("info query timed out: " + i.name().toUri()));
      });
}

}  // namespace lidc::core
