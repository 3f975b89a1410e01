#include "core/client.hpp"

#include <algorithm>
#include <limits>

#include "common/logging.hpp"
#include "core/wire_format.hpp"

namespace lidc::core {

namespace {
constexpr sim::Time kNoDeadline =
    sim::Time::fromNanos(std::numeric_limits<std::int64_t>::max());

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (char c : text) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}
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

sim::Time LidcClient::deadlineFor(sim::Time startedAt) const {
  if (options_.deadline.toNanos() <= 0) return kNoDeadline;
  return startedAt + options_.deadline;
}

ndn::Name LidcClient::requestName(const ComputeRequest& request) const {
  if (options_.tenant.empty()) return request.toName();
  return makeSubmitName(options_.tenant, request);
}

void LidcClient::attachTelemetry(telemetry::MetricsRegistry& registry,
                                 telemetry::Tracer* tracer) {
  telemetry_ = std::make_unique<Telemetry>();
  const telemetry::Labels labels{{"client", name_}};
  telemetry_->submits = &registry.counter("lidc_client_submits", labels);
  telemetry_->submits->set(submits_);
  telemetry_->retries = &registry.counter("lidc_client_retries", labels);
  telemetry_->failovers = &registry.counter("lidc_client_failovers", labels);
  telemetry_->polls = &registry.counter("lidc_client_status_polls", labels);
  telemetry_->hedgesIssued = &registry.counter("lidc_hedges_issued_total", labels);
  telemetry_->hedgesIssued->set(hedges_issued_);
  telemetry_->hedgesWon = &registry.counter("lidc_hedges_won_total", labels);
  telemetry_->hedgesWon->set(hedges_won_);
  telemetry_->hedgesCancelled =
      &registry.counter("lidc_hedges_cancelled_total", labels);
  telemetry_->hedgesCancelled->set(hedges_cancelled_);
  telemetry_->breakerTrips = &registry.counter("lidc_breaker_trips_total", labels);
  telemetry_->breakerTrips->set(breaker_trips_);
  telemetry_->breakerSteered =
      &registry.counter("lidc_breaker_steered_total", labels);
  telemetry_->breakerSteered->set(breaker_steered_);
  telemetry_->watchdogTimeouts =
      &registry.counter("lidc_watchdog_timeouts_total", labels);
  telemetry_->watchdogTimeouts->set(watchdog_timeouts_);
  telemetry_->jobLatencyUs =
      &registry.histogram("lidc_client_job_latency_us", labels);
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
      if (state == BreakerState::kOpen) {
        ++breaker_trips_;
        if (telemetry_) telemetry_->breakerTrips->inc();
      }
      if (telemetry_ && telemetry_->registry != nullptr) {
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
      static_cast<std::size_t>(options_.hedgeQuantile *
                               static_cast<double>(sorted.size())));
  return std::max(options_.hedgeDelayFloor, sim::Duration::seconds(sorted[index]));
}

sim::Duration LidcClient::backoffDelay(int attempt) {
  double delay = options_.backoffInitial.toSeconds();
  for (int i = 0; i < attempt; ++i) delay *= options_.backoffMultiplier;
  delay = std::min(delay, options_.backoffMax.toSeconds());
  const double jitter =
      1.0 + options_.backoffJitter * (2.0 * rng_.uniformDouble() - 1.0);
  return sim::Duration::seconds(delay * jitter);
}

void LidcClient::submit(ComputeRequest request, SubmitCallback done,
                        telemetry::TraceContext parent) {
  if (options_.bypassCache && request.requestId.empty()) {
    // Unique request id defeats caches and Interest aggregation.
    request.requestId = name_ + "-" + std::to_string(next_request_id_++);
  }
  auto shared = std::make_shared<ComputeRequest>(std::move(request));
  const sim::Time now = forwarder_.simulator().now();
  submitAttempt(std::move(shared), 0, now, deadlineFor(now), std::move(done),
                parent);
}

void LidcClient::retryOrGiveUp(std::shared_ptr<ComputeRequest> request,
                               int attempt, sim::Time startedAt,
                               sim::Time deadlineAt, SubmitCallback done,
                               Status why, telemetry::TraceContext parent) {
  if (attempt + 1 > options_.maxSubmitRetries) {
    done(std::move(why));
    return;
  }
  sim::Duration delay = backoffDelay(attempt);
  if (why.code() == StatusCode::kResourceExhausted &&
      options_.quotaBackoffScale > 1.0) {
    // Quota pressure is global (the tenant's budget, not this path):
    // retrying fast or failing over cannot help, so wait it out.
    delay = delay * options_.quotaBackoffScale;
  }
  if (forwarder_.simulator().now() + delay > deadlineAt) {
    done(Status::Timeout("deadline exceeded after " +
                         std::to_string(attempt + 1) + " submit attempts (" +
                         why.toString() + ")"));
    return;
  }
  if (telemetry_) {
    telemetry_->retries->inc();
    if (telemetry_->tracer != nullptr) {
      telemetry_->tracer->instant(
          "backoff", "client:" + name_, parent,
          {{"delay_ms", std::to_string(delay.toMillis())},
           {"after", why.toString()}});
    }
  }
  LIDC_FR_EVENT(recorder_, kWarn, "client",
                name_ + " backoff attempt=" + std::to_string(attempt + 1) +
                    " delay_ms=" + std::to_string(delay.toMillis()) + " after " +
                    why.toString());
  forwarder_.simulator().scheduleAfter(
      delay, [this, request = std::move(request), attempt, startedAt, deadlineAt,
              done = std::move(done), parent] {
        submitAttempt(request, attempt + 1, startedAt, deadlineAt, done, parent);
      });
}

void LidcClient::submitAttempt(std::shared_ptr<ComputeRequest> request, int attempt,
                               sim::Time startedAt, sim::Time deadlineAt,
                               SubmitCallback done,
                               telemetry::TraceContext parent) {
  if (options_.enableHedging) {
    submitAttemptHedged(std::move(request), attempt, startedAt, deadlineAt,
                        std::move(done), parent);
    return;
  }
  ++submits_;
  if (telemetry_) telemetry_->submits->inc();
  submit_attempt_log_.push_back(forwarder_.simulator().now());

  telemetry::TraceContext span;
  telemetry::Tracer* tracer = telemetry_ ? telemetry_->tracer : nullptr;
  if (tracer != nullptr) {
    span = tracer->startSpan("submit-attempt", "client:" + name_, parent,
                             {{"attempt", std::to_string(attempt)}});
  }
  auto closeSpan = [tracer, span](const char* outcome) {
    if (tracer != nullptr && span) {
      tracer->setAttr(span, "outcome", outcome);
      tracer->endSpan(span);
    }
  };

  ndn::Interest interest(requestName(*request));
  interest.setLifetime(options_.interestLifetime);
  interest.setTraceContext(span);
  interest.setFlowLabel({options_.tenant, request->flowTag});
  // MustBeFresh keeps network caches from answering with acks older
  // than the gateway's ackFreshness; within that window, identical
  // canonical requests may legitimately be served from any CS.
  interest.setMustBeFresh(true);

  const sim::Time sentAt = forwarder_.simulator().now();
  face_->expressInterest(
      interest,
      [this, startedAt, sentAt, done, closeSpan](const ndn::Interest&,
                                                 const ndn::Data& data) {
        recordAckLatency(forwarder_.simulator().now() - sentAt);
        const KvMap fields = decodeKv(data.contentAsString());
        if (auto it = fields.find("error"); it != fields.end()) {
          closeSpan("error");
          done(Status::InvalidArgument(it->second));
          return;
        }
        SubmitResult result;
        if (auto it = fields.find("job_id"); it != fields.end()) {
          result.jobId = it->second;
        }
        if (auto it = fields.find("cluster"); it != fields.end()) {
          result.cluster = it->second;
        }
        if (auto it = fields.find("status_name"); it != fields.end()) {
          result.statusName = it->second;
        } else if (!result.jobId.empty() && !result.cluster.empty()) {
          result.statusName = makeStatusName(result.cluster, result.jobId).toUri();
        }
        result.cached = fields.count("cached") > 0;
        result.deduplicated = fields.count("deduplicated") > 0;
        if (auto it = fields.find("result"); it != fields.end()) {
          result.resultPath = it->second;
        }
        if (auto it = fields.find("output_bytes"); it != fields.end()) {
          result.outputBytes = strings::parseUint(it->second).value_or(0);
        }
        result.placementLatency = forwarder_.simulator().now() - startedAt;
        closeSpan(result.cached ? "cache-hit"
                                : (result.deduplicated ? "dedup" : "ack"));
        done(std::move(result));
      },
      [this, request, attempt, startedAt, deadlineAt, done, closeSpan,
       parent](const ndn::Interest&, const ndn::Nack& nack) {
        closeSpan("nack");
        Status why = nackStatus(nack.reason(), "compute request", attempt + 1);
        if (isRetryableNack(nack.reason())) {
          retryOrGiveUp(request, attempt, startedAt, deadlineAt, done,
                        std::move(why), parent);
        } else {
          done(std::move(why));
        }
      },
      [this, request, attempt, startedAt, deadlineAt, done, closeSpan,
       parent](const ndn::Interest&) {
        closeSpan("timeout");
        retryOrGiveUp(request, attempt, startedAt, deadlineAt, done,
                      Status::Timeout("compute request timed out after " +
                                      std::to_string(attempt + 1) +
                                      " attempts"),
                      parent);
      });
}

/// Shared state of one hedged submit attempt. A race is "settled" once
/// a winner delivered its result (or every leg failed); late responses
/// after that are cancelled losers and only bump counters.
struct LidcClient::HedgeRace {
  bool settled = false;
  int outstanding = 0;
  Status error;
  bool retryable = false;
};

void LidcClient::submitAttemptHedged(std::shared_ptr<ComputeRequest> request,
                                     int attempt, sim::Time startedAt,
                                     sim::Time deadlineAt, SubmitCallback done,
                                     telemetry::TraceContext parent) {
  auto race = std::make_shared<HedgeRace>();
  sendSubmitLeg(race, /*isHedge=*/false, request, request, attempt, startedAt,
                deadlineAt, done, parent);
  const sim::Duration delay = hedgeDelay();
  forwarder_.simulator().scheduleAfter(
      delay, [this, race, request, attempt, startedAt, deadlineAt, done, parent,
              delay] {
        if (race->settled) return;  // already answered (or already failed)
        if (forwarder_.simulator().now() >= deadlineAt) return;
        ++hedges_issued_;
        if (telemetry_) {
          telemetry_->hedgesIssued->inc();
          if (telemetry_->tracer != nullptr) {
            telemetry_->tracer->instant(
                "hedge", "client:" + name_, parent,
                {{"delay_ms", std::to_string(delay.toMillis())}});
          }
        }
        LIDC_FR_EVENT(recorder_, kWarn, "client",
                      name_ + " hedge after " + std::to_string(delay.toMillis()) +
                          "ms attempt=" + std::to_string(attempt));
        // A fresh request id makes the backup a new name: no PIT entry
        // or content store can collapse it onto the stalled primary, so
        // the forwarding strategy is free to try another path.
        auto backup = std::make_shared<ComputeRequest>(*request);
        backup->requestId = (backup->requestId.empty() ? name_ : backup->requestId) +
                            "-h" + std::to_string(next_request_id_++);
        sendSubmitLeg(race, /*isHedge=*/true, std::move(backup), request, attempt,
                      startedAt, deadlineAt, done, parent);
      });
}

void LidcClient::sendSubmitLeg(std::shared_ptr<HedgeRace> race, bool isHedge,
                               std::shared_ptr<ComputeRequest> legRequest,
                               std::shared_ptr<ComputeRequest> request, int attempt,
                               sim::Time startedAt, sim::Time deadlineAt,
                               SubmitCallback done,
                               telemetry::TraceContext parent) {
  ++submits_;
  if (telemetry_) telemetry_->submits->inc();
  submit_attempt_log_.push_back(forwarder_.simulator().now());
  ++race->outstanding;
  const sim::Time sentAt = forwarder_.simulator().now();

  telemetry::TraceContext span;
  telemetry::Tracer* tracer = telemetry_ ? telemetry_->tracer : nullptr;
  if (tracer != nullptr) {
    span = tracer->startSpan("submit-attempt", "client:" + name_, parent,
                             {{"attempt", std::to_string(attempt)},
                              {"hedge", isHedge ? "1" : "0"}});
  }
  auto closeSpan = [tracer, span](const char* outcome) {
    if (tracer != nullptr && span) {
      tracer->setAttr(span, "outcome", outcome);
      tracer->endSpan(span);
    }
  };

  ndn::Interest interest(requestName(*legRequest));
  interest.setLifetime(options_.interestLifetime);
  interest.setTraceContext(span);
  interest.setFlowLabel({options_.tenant, legRequest->flowTag});
  interest.setMustBeFresh(true);

  face_->expressInterest(
      interest,
      [this, race, isHedge, sentAt, startedAt, done, closeSpan](
          const ndn::Interest&, const ndn::Data& data) {
        if (race->settled) {
          // The other leg already won: this is the cancelled loser.
          ++hedges_cancelled_;
          if (telemetry_) telemetry_->hedgesCancelled->inc();
          closeSpan("hedge-lost");
          return;
        }
        race->settled = true;
        --race->outstanding;
        if (isHedge) {
          ++hedges_won_;
          if (telemetry_) telemetry_->hedgesWon->inc();
        }
        recordAckLatency(forwarder_.simulator().now() - sentAt);
        const KvMap fields = decodeKv(data.contentAsString());
        if (auto it = fields.find("error"); it != fields.end()) {
          closeSpan("error");
          done(Status::InvalidArgument(it->second));
          return;
        }
        SubmitResult result;
        if (auto it = fields.find("job_id"); it != fields.end()) {
          result.jobId = it->second;
        }
        if (auto it = fields.find("cluster"); it != fields.end()) {
          result.cluster = it->second;
        }
        if (auto it = fields.find("status_name"); it != fields.end()) {
          result.statusName = it->second;
        } else if (!result.jobId.empty() && !result.cluster.empty()) {
          result.statusName = makeStatusName(result.cluster, result.jobId).toUri();
        }
        result.cached = fields.count("cached") > 0;
        result.deduplicated = fields.count("deduplicated") > 0;
        if (auto it = fields.find("result"); it != fields.end()) {
          result.resultPath = it->second;
        }
        if (auto it = fields.find("output_bytes"); it != fields.end()) {
          result.outputBytes = strings::parseUint(it->second).value_or(0);
        }
        result.placementLatency = forwarder_.simulator().now() - startedAt;
        closeSpan(isHedge ? "hedge-won"
                          : (result.cached ? "cache-hit"
                                           : (result.deduplicated ? "dedup" : "ack")));
        done(std::move(result));
      },
      [this, race, request, attempt, startedAt, deadlineAt, done, closeSpan,
       parent](const ndn::Interest&, const ndn::Nack& nack) {
        closeSpan("nack");
        if (race->settled) return;
        --race->outstanding;
        race->error = nackStatus(nack.reason(), "compute request", attempt + 1);
        race->retryable = isRetryableNack(nack.reason());
        if (race->outstanding == 0) {
          // Every leg failed; settle so a pending hedge timer is a no-op.
          race->settled = true;
          if (race->retryable) {
            retryOrGiveUp(request, attempt, startedAt, deadlineAt, done,
                          race->error, parent);
          } else {
            done(race->error);
          }
        }
      },
      [this, race, request, attempt, startedAt, deadlineAt, done, closeSpan,
       parent](const ndn::Interest&) {
        closeSpan("timeout");
        if (race->settled) return;
        --race->outstanding;
        race->error =
            Status::Timeout("compute request timed out after " +
                            std::to_string(attempt + 1) + " attempts");
        race->retryable = true;
        if (race->outstanding == 0) {
          race->settled = true;
          retryOrGiveUp(request, attempt, startedAt, deadlineAt, done,
                        race->error, parent);
        }
      });
}

void LidcClient::queryStatus(const ndn::Name& statusName, StatusCallback done,
                             telemetry::TraceContext parent) {
  if (telemetry_) telemetry_->polls->inc();
  ndn::Interest interest(statusName);
  interest.setTraceContext(parent);
  interest.setMustBeFresh(true);  // never accept a stale cached state
  interest.setLifetime(options_.interestLifetime);

  face_->expressInterest(
      interest,
      [done](const ndn::Interest&, const ndn::Data& data) {
        const KvMap fields = decodeKv(data.contentAsString());
        JobStatusSnapshot snapshot;
        if (auto it = fields.find("error");
            it != fields.end() && fields.count("state") == 0) {
          done(Status::NotFound(it->second));
          return;
        }
        if (auto it = fields.find("state"); it != fields.end()) {
          const std::string& state = it->second;
          if (state == "Pending") {
            snapshot.state = k8s::JobState::kPending;
          } else if (state == "Running") {
            snapshot.state = k8s::JobState::kRunning;
          } else if (state == "Completed") {
            snapshot.state = k8s::JobState::kCompleted;
          } else {
            snapshot.state = k8s::JobState::kFailed;
          }
        }
        if (auto it = fields.find("cluster"); it != fields.end()) {
          snapshot.cluster = it->second;
        }
        if (auto it = fields.find("result"); it != fields.end()) {
          snapshot.resultPath = it->second;
        }
        if (auto it = fields.find("output_bytes"); it != fields.end()) {
          snapshot.outputBytes = strings::parseUint(it->second).value_or(0);
        }
        if (auto it = fields.find("runtime_s"); it != fields.end()) {
          snapshot.runtime =
              sim::Duration::seconds(strings::parseDouble(it->second).value_or(0));
        }
        if (auto it = fields.find("error"); it != fields.end()) {
          snapshot.error = it->second;
        }
        done(std::move(snapshot));
      },
      [done](const ndn::Interest&, const ndn::Nack& nack) {
        done(Status::Unavailable("status query nacked: " +
                                 std::string(ndn::nackReasonName(nack.reason()))));
      },
      [done](const ndn::Interest& i) {
        done(Status::Timeout("status query timed out: " + i.name().toUri()));
      });
}

void LidcClient::waitForCompletion(const ndn::Name& statusName, StatusCallback done,
                                   telemetry::TraceContext parent) {
  const sim::Time now = forwarder_.simulator().now();
  pollLoop(statusName, 0, deadlineFor(now), now, std::move(done), parent);
}

void LidcClient::pollLoop(const ndn::Name& statusName, int consecutiveFailures,
                          sim::Time deadlineAt, sim::Time progressSince,
                          StatusCallback done, telemetry::TraceContext parent) {
  queryStatus(
      statusName,
      [this, statusName, consecutiveFailures, deadlineAt, progressSince, done,
       parent](Result<JobStatusSnapshot> result) {
    const sim::Time now = forwarder_.simulator().now();
    if (!result.ok()) {
      // Timeouts on a lossy path and Nacks (transient kNoRoute/
      // kCongestion during a route flap mid-failover) are transient:
      // keep polling within the consecutive-failure budget. NotFound
      // (the job vanished) and other errors are terminal.
      const StatusCode code = result.status().code();
      const bool transient =
          code == StatusCode::kTimeout || code == StatusCode::kUnavailable;
      if (transient && consecutiveFailures + 1 < options_.maxStatusPollFailures &&
          now + options_.statusPollInterval <= deadlineAt) {
        forwarder_.simulator().scheduleAfter(
            options_.statusPollInterval, [this, statusName, consecutiveFailures,
                                          deadlineAt, progressSince, done, parent] {
              pollLoop(statusName, consecutiveFailures + 1, deadlineAt,
                       progressSince, done, parent);
            });
        return;
      }
      done(std::move(result));
      return;
    }
    if (result->state == k8s::JobState::kCompleted ||
        result->state == k8s::JobState::kFailed) {
      done(std::move(result));
      return;
    }
    // Progress watchdog: a healthy cluster moves a job to Running
    // quickly; one that answers polls with Pending forever is a gray
    // gateway (it admitted the job but never scheduled it). Treat the
    // stall as a dark status so the caller records a breaker failure
    // and fails over — the poll itself keeps "succeeding", which is
    // exactly why a plain failure budget never fires here.
    sim::Time nextProgress = progressSince;
    if (options_.pendingProgressTtl.toNanos() > 0) {
      if (result->state == k8s::JobState::kPending) {
        if (now - progressSince >= options_.pendingProgressTtl) {
          ++watchdog_timeouts_;
          if (telemetry_) telemetry_->watchdogTimeouts->inc();
          LIDC_FR_EVENT(recorder_, kWarn, "client",
                        name_ + " watchdog: no progress on " +
                            statusName.toUri());
          done(Status::Unavailable(
              "progress watchdog: job still Pending after " +
              std::to_string(options_.pendingProgressTtl.toMillis()) + "ms"));
          return;
        }
      } else {
        nextProgress = now;  // Running counts as progress
      }
    }
    if (now + options_.statusPollInterval > deadlineAt) {
      done(Status::Timeout("deadline exceeded while job still " +
                           std::string(k8s::jobStateName(result->state))));
      return;
    }
    forwarder_.simulator().scheduleAfter(
        options_.statusPollInterval,
        [this, statusName, deadlineAt, nextProgress, done, parent] {
          pollLoop(statusName, 0, deadlineAt, nextProgress, done, parent);
        });
      },
      parent);
}

void LidcClient::runToCompletion(ComputeRequest request, OutcomeCallback done,
                                 telemetry::TraceContext parent) {
  const sim::Time startedAt = forwarder_.simulator().now();

  // Root of the job's span tree: a fresh trace, or a child of the
  // caller's span (e.g. a workflow-stage span).
  telemetry::TraceContext root;
  telemetry::Tracer* tracer = telemetry_ ? telemetry_->tracer : nullptr;
  if (tracer != nullptr) {
    const telemetry::SpanAttrs attrs{{"app", request.app}};
    root = parent ? tracer->startSpan("job", "client:" + name_, parent, attrs)
                  : tracer->startTrace("job", "client:" + name_, attrs);
  }

  auto shared = std::make_shared<ComputeRequest>(std::move(request));
  auto finish = [this, tracer, root, startedAt,
                 done = std::move(done)](Result<JobOutcome> outcome) {
    if (outcome.ok()) {
      outcome->trace = root;
      if (telemetry_) {
        // Tail samples carry the job's trace id as an exemplar, so a
        // latency-regression alert links to a concrete slow trace.
        telemetry_->jobLatencyUs->observe(
            static_cast<double>(outcome->totalLatency.toNanos()) / 1e3,
            root.trace);
      }
    }
    if (tracer != nullptr && root) {
      if (outcome.ok()) {
        tracer->setAttr(root, "job_id", outcome->submit.jobId);
        tracer->setAttr(root, "cluster", outcome->finalStatus.cluster);
        tracer->setAttr(root, "failovers",
                        std::to_string(outcome->failovers));
        if (!outcome->submit.jobId.empty()) {
          tracer->bindJob(outcome->submit.jobId, root.trace);
        }
      } else {
        tracer->setAttr(root, "error", outcome.status().toString());
      }
      tracer->endSpan(root);
    }
    done(std::move(outcome));
  };
  runAttempt(std::move(shared), 0, startedAt, deadlineFor(startedAt),
             std::move(finish), root);
}

void LidcClient::failoverOrGiveUp(std::shared_ptr<ComputeRequest> request,
                                  int failover, sim::Time startedAt,
                                  sim::Time deadlineAt, OutcomeCallback done,
                                  Status why,
                                  std::optional<JobOutcome> failedOutcome,
                                  telemetry::TraceContext root) {
  if (failover + 1 > options_.maxFailovers ||
      forwarder_.simulator().now() >= deadlineAt) {
    // Out of budget: a job that terminated Failed is still a valid
    // outcome (the pre-failover behaviour); everything else is an error.
    if (failedOutcome.has_value()) {
      done(std::move(*failedOutcome));
    } else {
      done(std::move(why));
    }
    return;
  }
  if (telemetry_) {
    telemetry_->failovers->inc();
    if (telemetry_->tracer != nullptr) {
      telemetry_->tracer->instant("failover", "client:" + name_, root,
                                  {{"after", why.toString()}});
    }
  }
  log::ScopedTrace scopedTrace(root.trace);
  LIDC_FR_EVENT(recorder_, kWarn, "client",
                name_ + " failover attempt=" + std::to_string(failover + 1) +
                    " after " + why.toString());
  LIDC_LOG(kInfo, "client") << name_ << " failing over (attempt "
                            << (failover + 1) << "): " << why.toString();
  runAttempt(std::move(request), failover + 1, startedAt, deadlineAt,
             std::move(done), root);
}

void LidcClient::runAttempt(std::shared_ptr<ComputeRequest> request, int failover,
                            sim::Time startedAt, sim::Time deadlineAt,
                            OutcomeCallback done, telemetry::TraceContext root) {
  ComputeRequest attemptRequest = *request;
  if (failover > 0) {
    // A fresh request id guarantees the resubmission is a new name: no
    // content store, PIT aggregation, or gateway dedup entry can answer
    // with the dead job, so the forwarding strategy is free to place it
    // on a healthy cluster.
    attemptRequest.requestId = name_ + "-fo" + std::to_string(failover) + "-" +
                               std::to_string(next_request_id_++);
  }
  if (options_.bypassCache && attemptRequest.requestId.empty()) {
    attemptRequest.requestId = name_ + "-" + std::to_string(next_request_id_++);
  }
  auto shared = std::make_shared<ComputeRequest>(std::move(attemptRequest));
  submitAttempt(
      std::move(shared), 0, startedAt, deadlineAt,
      [this, request, failover, startedAt, deadlineAt, done,
       root](Result<SubmitResult> submitted) {
        if (!submitted.ok()) {
          if (submitted.status().code() == StatusCode::kResourceExhausted) {
            // The tenant's quota is exhausted federation-wide; a fresh
            // request id on another cluster hits the same budget. Report
            // RESOURCE_EXHAUSTED instead of burning the failover budget.
            done(submitted.status());
            return;
          }
          failoverOrGiveUp(request, failover, startedAt, deadlineAt, done,
                           submitted.status(), std::nullopt, root);
          return;
        }
        telemetry::Tracer* tracer = telemetry_ ? telemetry_->tracer : nullptr;
        if (tracer != nullptr && root && !submitted->jobId.empty()) {
          // Bind early so explain(job_id) works even for jobs that never
          // reach a terminal state (e.g. lost with their cluster).
          tracer->bindJob(submitted->jobId, root.trace);
        }
        if (submitted->cached) {
          // Cache hit: no job to wait for.
          JobOutcome outcome;
          outcome.submit = *submitted;
          outcome.finalStatus.state = k8s::JobState::kCompleted;
          outcome.finalStatus.cluster = submitted->cluster;
          outcome.finalStatus.resultPath = submitted->resultPath;
          outcome.finalStatus.outputBytes = submitted->outputBytes;
          outcome.totalLatency = forwarder_.simulator().now() - startedAt;
          outcome.failovers = failover;
          done(std::move(outcome));
          return;
        }
        // Circuit breaker gate: the ack names the cluster; if its
        // breaker refuses requests (tripped by consecutive failures —
        // gray gateways, limping nodes), abandon this attempt and fail
        // over with a fresh request id instead of parking the job on a
        // cluster that keeps answering but never delivers. Skipped once
        // the failover budget is spent — a possible job beats an error.
        if (CircuitBreaker* breaker = breakerFor(submitted->cluster);
            breaker != nullptr && failover < options_.maxFailovers &&
            !breaker->allowRequest(forwarder_.simulator().now())) {
          ++breaker_steered_;
          if (telemetry_) telemetry_->breakerSteered->inc();
          LIDC_FR_EVENT(recorder_, kWarn, "client",
                        name_ + " breaker open, steering off " +
                            submitted->cluster);
          failoverOrGiveUp(request, failover, startedAt, deadlineAt, done,
                           Status::Unavailable("circuit breaker open for " +
                                               submitted->cluster),
                           std::nullopt, root);
          return;
        }
        // Telemetry-steered proactive failover: the ack names the
        // cluster the job landed on; if the health plane says it is
        // degraded, resubmit elsewhere now rather than poll a job that
        // is likely to stall or fail. Skipped once the failover budget
        // is spent — a running job beats an error.
        if (options_.healthProvider && options_.minClusterHealth > 0.0 &&
            failover < options_.maxFailovers && !submitted->cluster.empty()) {
          const double health = options_.healthProvider(submitted->cluster);
          if (health < options_.minClusterHealth) {
            LIDC_FR_EVENT(recorder_, kWarn, "client",
                          name_ + " steering off " + submitted->cluster);
            failoverOrGiveUp(
                request, failover, startedAt, deadlineAt, done,
                Status::Unavailable("cluster " + submitted->cluster +
                                    " health below minimum"),
                std::nullopt, root);
            return;
          }
        }
        const SubmitResult submitCopy = *submitted;
        telemetry::TraceContext await;
        if (tracer != nullptr) {
          await = tracer->startSpan("await-completion", "client:" + name_, root,
                                    {{"job_id", submitCopy.jobId}});
        }
        const sim::Time pollStart = forwarder_.simulator().now();
        pollLoop(
            ndn::Name(submitCopy.statusName), 0, deadlineAt, pollStart,
            [this, request, failover, startedAt, deadlineAt, submitCopy, done,
             root, await, tracer](Result<JobStatusSnapshot> status) {
              if (tracer != nullptr && await) {
                tracer->setAttr(await, "outcome",
                                status.ok()
                                    ? std::string(k8s::jobStateName(status->state))
                                    : status.status().toString());
                tracer->endSpan(await);
              }
              const sim::Time now = forwarder_.simulator().now();
              if (!status.ok()) {
                // Status endpoint dark past the poll budget, the
                // progress watchdog fired, or the job vanished (reaped
                // after its cluster died): count the failure against
                // the cluster's breaker and resubmit.
                if (CircuitBreaker* b = breakerFor(submitCopy.cluster)) {
                  b->recordFailure(now);
                }
                failoverOrGiveUp(request, failover, startedAt, deadlineAt,
                                 done, status.status(), std::nullopt, root);
                return;
              }
              JobOutcome outcome;
              outcome.submit = submitCopy;
              outcome.finalStatus = *status;
              outcome.totalLatency = forwarder_.simulator().now() - startedAt;
              outcome.failovers = failover;
              if (status->state == k8s::JobState::kFailed) {
                if (CircuitBreaker* b = breakerFor(submitCopy.cluster)) {
                  b->recordFailure(now);
                }
                failoverOrGiveUp(request, failover, startedAt, deadlineAt,
                                 done,
                                 Status::Unavailable("job failed: " +
                                                     status->error),
                                 std::move(outcome), root);
                return;
              }
              if (CircuitBreaker* b = breakerFor(submitCopy.cluster)) {
                b->recordSuccess(now);
              }
              done(std::move(outcome));
            },
            await ? await : root);
      },
      root);
}

void LidcClient::fetchData(const ndn::Name& objectName, FetchCallback done,
                           telemetry::TraceContext parent,
                           std::string flowTag) {
  telemetry::FlowLabel label{options_.tenant, std::move(flowTag)};
  telemetry::Tracer* tracer = telemetry_ ? telemetry_->tracer : nullptr;
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
  // Digest binds the command name to the exact payload bytes.
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  for (std::uint8_t byte : bytes) {
    digest ^= byte;
    digest *= 0x100000001b3ULL;
  }
  ndn::Name name = kPublishPrefix;
  // Tenant attribution: QoS gateways charge the publish against the
  // tenant's byte quota and strip the component from the stored name.
  if (!options_.tenant.empty()) name.append("tenant=" + options_.tenant);
  for (auto part : strings::splitSkipEmpty(path, '/')) name.append(part);
  name.append("sha=" + std::to_string(digest));

  telemetry::Tracer* tracer = telemetry_ ? telemetry_->tracer : nullptr;
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

  ndn::Interest interest(name);
  interest.setMustBeFresh(true);
  interest.setLifetime(options_.interestLifetime);
  interest.setApplicationParameters(std::move(bytes));
  interest.setTraceContext(span);
  interest.setFlowLabel({options_.tenant, std::move(flowTag)});

  face_->expressInterest(
      interest,
      [done, closeSpan](const ndn::Interest&, const ndn::Data& data) {
        const KvMap fields = decodeKv(data.contentAsString());
        if (auto it = fields.find("error"); it != fields.end()) {
          closeSpan("error");
          done(Status::InvalidArgument(it->second));
          return;
        }
        if (auto it = fields.find("stored"); it != fields.end()) {
          closeSpan("stored");
          done(ndn::Name(it->second));
          return;
        }
        closeSpan("malformed-ack");
        done(Status::Internal("malformed publish ack"));
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
        const KvMap fields = decodeKv(data.contentAsString());
        ClusterInfo info;
        if (auto it = fields.find("cluster"); it != fields.end()) {
          info.cluster = it->second;
        }
        if (auto it = fields.find("free_cpu_m"); it != fields.end()) {
          info.freeCpu = MilliCpu(strings::parseUint(it->second).value_or(0));
        }
        if (auto it = fields.find("free_mem_bytes"); it != fields.end()) {
          info.freeMemory = ByteSize(strings::parseUint(it->second).value_or(0));
        }
        if (auto it = fields.find("total_cpu_m"); it != fields.end()) {
          info.totalCpu = MilliCpu(strings::parseUint(it->second).value_or(0));
        }
        if (auto it = fields.find("total_mem_bytes"); it != fields.end()) {
          info.totalMemory = ByteSize(strings::parseUint(it->second).value_or(0));
        }
        if (auto it = fields.find("running_jobs"); it != fields.end()) {
          info.runningJobs = strings::parseUint(it->second).value_or(0);
        }
        if (auto it = fields.find("nodes"); it != fields.end()) {
          info.nodes = strings::parseUint(it->second).value_or(0);
        }
        if (auto it = fields.find("apps"); it != fields.end()) {
          for (auto app : strings::splitSkipEmpty(it->second, ',')) {
            info.apps.emplace_back(app);
          }
        }
        done(std::move(info));
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
