// LidcClient: the user-side application (the paper's "sample client
// application", SIV-A). Expresses semantically named compute Interests,
// polls /ndn/k8s/status, and retrieves results from the data lake —
// without ever naming a cluster.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "core/circuit_breaker.hpp"
#include "core/semantic_name.hpp"
#include "core/wire_format.hpp"
#include "datalake/retriever.hpp"
#include "k8s/job.hpp"
#include "ndn/app_face.hpp"
#include "ndn/forwarder.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace lidc::core {

/// Terminal outcome of runToCompletion().
struct JobOutcome {
  SubmitResult submit;         // the ack of the attempt that finished
  JobStatusSnapshot finalStatus;
  sim::Duration totalLatency;  // first submit -> terminal status observed
  int failovers = 0;           // resubmissions after Failed / dark status
  /// Root of the job's span tree when tracing was attached (trace id +
  /// root span id); invalid otherwise.
  telemetry::TraceContext trace;
};

struct ClientOptions {
  /// Attach a unique request id to every submission, bypassing result
  /// caches (false = canonical names; identical requests may be served
  /// from caches, the paper's SVII behaviour).
  bool bypassCache = true;
  sim::Duration interestLifetime = sim::Duration::seconds(10);
  sim::Duration statusPollInterval = sim::Duration::seconds(2);
  /// Extra submit attempts on timeout or a retryable Nack (kCongestion /
  /// kNoRoute), paced by exponential backoff below.
  int maxSubmitRetries = 2;
  /// Status polling gives up at the maxStatusPollFailures-th
  /// *consecutive* failed poll (a timeout or Nack: lossy networks,
  /// route flaps), in waitForCompletion() and runToCompletion() alike;
  /// the latter then fails over.
  int maxStatusPollFailures = 5;
  /// Exponential backoff between submit attempts: attempt n waits
  /// backoffInitial * 2^n (capped at backoffMax), scaled by a seeded
  /// jitter factor in [0.8, 1.2].
  sim::Duration backoffInitial = sim::Duration::millis(200);
  sim::Duration backoffMax = sim::Duration::seconds(5);
  /// Simulated-time budget for one request, from its start: it covers
  /// every retry, poll and failover of a runToCompletion(), and also
  /// bounds submit()'s retries and waitForCompletion()'s polling.
  /// Zero = unbounded.
  sim::Duration deadline{};
  /// runToCompletion() resubmits (with a fresh request id, so the
  /// forwarding strategy can fail over to a healthy cluster) when a job
  /// lands Failed or its status endpoint goes dark past the poll budget.
  int maxFailovers = 2;
  /// Telemetry-steered proactive failover: when set and a submit ack
  /// names a cluster whose health (as reported by this provider, e.g.
  /// TelemetryCollector::healthScore) is below minClusterHealth, the
  /// client fails over with a fresh request id instead of parking the
  /// job on a degraded cluster. Zero threshold = disabled.
  std::function<double(const std::string& cluster)> healthProvider;
  double minClusterHealth = 0.0;
  /// Per-cluster circuit breakers: runToCompletion() records every job
  /// outcome against the cluster that took it; after `breaker.
  /// failureThreshold` consecutive failures the breaker opens and acks
  /// naming that cluster are refused locally (the attempt fails over
  /// with a fresh request id instead of parking on a gray cluster).
  bool enableCircuitBreaker = false;
  BreakerOptions breaker;
  /// Observes every breaker transition (wire to placement steering,
  /// e.g. AdaptivePlacement::observeBreaker).
  std::function<void(const std::string& cluster, BreakerState state)>
      breakerListener;
  /// Hedged submits: when a submit ack has not arrived after a p99
  /// delay (derived from this client's observed ack latencies, floored
  /// at hedgeDelayFloor), a backup Interest with a fresh request id
  /// races the primary; the first answer wins and the loser is
  /// abandoned (and counted).
  bool enableHedging = false;
  sim::Duration hedgeDelayFloor = sim::Duration::millis(500);
  /// Progress watchdog: a job still Pending this long after polling
  /// began is treated as dark (gray gateways admit jobs that never
  /// run), so runToCompletion() records a breaker failure and fails
  /// over. Zero disables the watchdog.
  sim::Duration pendingProgressTtl{};
  /// Tenant context: when set, submits go out under the tenant-scoped
  /// /ndn/k8s/submit/<tenant>/... namespace (QoS gateways apply quotas
  /// and fair-share queueing) and publishes carry a tenant component
  /// charged against the tenant's byte quota. A kQuotaExceeded nack maps
  /// to RESOURCE_EXHAUSTED and backs off 4x slower than ordinary
  /// retries — quota pressure is global, so hammering the overlay
  /// cannot help.
  std::string tenant;
};

class LidcClient {
 public:
  LidcClient(ndn::Forwarder& forwarder, std::string name, ClientOptions options = {},
             std::uint64_t seed = 1234);

  using SubmitCallback = std::function<void(Result<SubmitResult>)>;
  using StatusCallback = std::function<void(Result<JobStatusSnapshot>)>;
  using OutcomeCallback = std::function<void(Result<JobOutcome>)>;
  using FetchCallback = datalake::Retriever::CompletionCallback;

  /// Sends the compute Interest; the callback fires with the gateway ack
  /// (job id / cached result) or an error. `parent` (optional) attaches
  /// the submit-attempt spans to an existing trace.
  void submit(ComputeRequest request, SubmitCallback done,
              telemetry::TraceContext parent = {});

  /// One status poll by status name ("/ndn/k8s/status/<cluster>/<job>").
  void queryStatus(const ndn::Name& statusName, StatusCallback done,
                   telemetry::TraceContext parent = {});

  /// Polls until the job reaches Completed or Failed.
  void waitForCompletion(const ndn::Name& statusName, StatusCallback done,
                         telemetry::TraceContext parent = {});

  /// Full workflow: submit -> poll -> final status (Fig. 5's timeline).
  /// With a tracer attached, opens a root "job" span (or a child of
  /// `parent`) covering every retry, poll, and failover; the outcome
  /// carries its TraceContext.
  void runToCompletion(ComputeRequest request, OutcomeCallback done,
                       telemetry::TraceContext parent = {});

  /// Retrieves a named object from the data lake. `flowTag` (e.g.
  /// "wf/<id>") rides the segment Interests as a FlowLabel alongside
  /// the client's tenant, so link flow accounting can attribute the
  /// transferred bytes; empty means untagged.
  void fetchData(const ndn::Name& objectName, FetchCallback done,
                 telemetry::TraceContext parent = {},
                 std::string flowTag = {});

  /// Queries a cluster's advertised capabilities (paper SVII: "once the
  /// network knows cluster capabilities, it can select the best cluster").
  using InfoCallback = std::function<void(Result<ClusterInfo>)>;
  void queryClusterInfo(const std::string& cluster, InfoCallback done);

  /// Publishes a dataset into the nearest lake that accepts publishes
  /// (paper: workflows "publish intermediate datasets back to the
  /// lake"). `path` is '/'-separated under /ndn/k8s/data. The callback
  /// receives the stored content name.
  using PublishCallback = std::function<void(Result<ndn::Name>)>;
  void publishData(const std::string& path, std::vector<std::uint8_t> bytes,
                   PublishCallback done, telemetry::TraceContext parent = {},
                   std::string flowTag = {});

  /// Binds the client's counters into `registry` (submits, retries,
  /// failovers, polls, hedges, breakers, watchdog), adds its end-to-end
  /// latency histogram and — with a tracer — records the client-side
  /// span tree for every runToCompletion(). The client must outlive any
  /// snapshot of the registry.
  void attachTelemetry(telemetry::MetricsRegistry& registry,
                       telemetry::Tracer* tracer = nullptr);
  [[nodiscard]] telemetry::Tracer* tracer() noexcept {
    return telemetry_ ? telemetry_->tracer : nullptr;
  }

  /// Records retry/backoff and failover steps into `recorder` for
  /// alert post-mortem windows.
  void setFlightRecorder(telemetry::FlightRecorder* recorder) noexcept {
    recorder_ = recorder;
  }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::uint64_t submitsSent() const noexcept { return submits_; }

  // --- gray-failure defense counters ------------------------------------
  [[nodiscard]] std::uint64_t hedgesIssued() const noexcept { return hedges_issued_; }
  [[nodiscard]] std::uint64_t hedgesWon() const noexcept { return hedges_won_; }
  [[nodiscard]] std::uint64_t hedgesCancelled() const noexcept {
    return hedges_cancelled_;
  }
  [[nodiscard]] std::uint64_t breakerTrips() const noexcept { return breaker_trips_; }
  [[nodiscard]] std::uint64_t breakerSteered() const noexcept {
    return breaker_steered_;
  }
  [[nodiscard]] std::uint64_t watchdogTimeouts() const noexcept {
    return watchdog_timeouts_;
  }

  /// The simulator this client's forwarder runs on; layered components
  /// (e.g. the workflow engine) need it for timestamps and scheduling.
  [[nodiscard]] sim::Simulator& simulator() noexcept {
    return forwarder_.simulator();
  }

  /// Times at which submit Interests actually left this client (one
  /// entry per attempt, across all submissions). Exposed so tests can
  /// assert that backoff schedules are deterministic per seed.
  [[nodiscard]] const std::vector<sim::Time>& submitAttemptLog() const noexcept {
    return submit_attempt_log_;
  }

 private:
  /// One request's life as a state machine; see client.cpp.
  struct JobRun;
  /// One submit Interest of an attempt: the primary or a hedge.
  struct Leg;
  using RunPtr = std::shared_ptr<JobRun>;

  /// A run started now, its deadline set, its spans under `root`.
  [[nodiscard]] RunPtr newRun(telemetry::TraceContext root);
  // JobRun transitions.
  /// Gives the request its id for this submit cycle (a fresh one after
  /// a failover) and starts attempt 0.
  void startSubmitting(const RunPtr& run);
  /// Sends the primary leg and, with hedging on, arms the hedge timer.
  void submitAttempt(const RunPtr& run);
  void sendLeg(const RunPtr& run, const ComputeRequest& request, bool hedge);
  void onAck(const RunPtr& run, const Leg& leg, const ndn::Data& data);
  /// A leg's Nack, or its timeout when `nack` is null.
  void onLegFailed(const RunPtr& run, const Leg& leg, const ndn::Nack* nack);
  /// Retries after a jittered backoff delay, or settles the submit with
  /// `why` when the attempt budget or the deadline is exhausted.
  void retryOrGiveUp(const RunPtr& run, Status why);
  void onSubmitted(const RunPtr& run, Result<SubmitResult> ack);
  void poll(const RunPtr& run);
  void onPolled(const RunPtr& run, Result<JobStatusSnapshot> status);
  void onPollDone(const RunPtr& run, Result<JobStatusSnapshot> status);
  /// Resubmits with a fresh request id within the failover/deadline
  /// budget; otherwise finishes with `why` (or `failed` when the job
  /// terminated Failed and no budget remains).
  void failOver(const RunPtr& run, Status why,
                std::optional<JobOutcome> failed = std::nullopt);
  /// Closes the job's root span, then finishes a runToCompletion().
  void finishJob(JobRun& run, Result<JobOutcome> outcome);

  /// Sends one status poll (counted) and hands its Data, Nack or
  /// timeout to `onStatus` as one Result.
  template <typename OnStatus>
  void expressStatus(const ndn::Name& statusName, telemetry::TraceContext parent,
                     OnStatus onStatus);
  void closeLegSpan(const Leg& leg, const char* outcome);
  /// p99 of observed ack latencies, floored at hedgeDelayFloor (used
  /// until enough samples accumulate).
  [[nodiscard]] sim::Duration hedgeDelay() const;
  void recordAckLatency(sim::Duration latency);
  /// The breaker guarding `cluster`, created (seeded from the client
  /// seed and the cluster name) on first use; nullptr when breakers are
  /// disabled or the cluster is unknown.
  CircuitBreaker* breakerFor(const std::string& cluster);
  [[nodiscard]] sim::Duration backoffDelay(int attempt);
  /// The Interest name a request goes out under: the tenant-scoped
  /// submit name when a tenant context is set, else the compute name.
  [[nodiscard]] ndn::Name requestName(const ComputeRequest& request) const;

  /// Registry handles + tracer; null until attachTelemetry().
  struct Telemetry {
    telemetry::Histogram* jobLatencyUs = nullptr;
    telemetry::Tracer* tracer = nullptr;
    /// Kept for the lazily created per-cluster lidc_breaker_state gauge.
    telemetry::MetricsRegistry* registry = nullptr;
    /// cluster -> its lidc_breaker_state gauge, created at the breaker's
    /// first transition.
    std::unordered_map<std::string, telemetry::Gauge*> breakerStates;
  };

  ndn::Forwarder& forwarder_;
  std::string name_;
  ClientOptions options_;
  telemetry::FlightRecorder* recorder_ = nullptr;
  Rng rng_;
  std::uint64_t seed_;
  std::shared_ptr<ndn::AppFace> face_;
  std::unique_ptr<datalake::Retriever> retriever_;
  std::uint64_t submits_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t failovers_ = 0;
  std::uint64_t polls_ = 0;
  std::uint64_t next_request_id_ = 1;
  std::vector<sim::Time> submit_attempt_log_;
  std::unique_ptr<Telemetry> telemetry_;
  /// cluster name -> its circuit breaker (created on first outcome).
  std::unordered_map<std::string, std::unique_ptr<CircuitBreaker>> breakers_;
  /// Ring buffer of submit-ack latencies in seconds (hedge-delay input).
  std::vector<double> ack_latencies_;
  std::size_t ack_latency_next_ = 0;
  std::uint64_t hedges_issued_ = 0;
  std::uint64_t hedges_won_ = 0;
  std::uint64_t hedges_cancelled_ = 0;
  std::uint64_t breaker_trips_ = 0;
  std::uint64_t breaker_steered_ = 0;
  std::uint64_t watchdog_timeouts_ = 0;
};

}  // namespace lidc::core
