// The LIDC Gateway (paper SIII-C, Fig. 4): the decision-maker running
// at each cluster's edge. It receives compute Interests from the NDN
// network, parses the semantic name, runs application-specific
// validation, launches a Kubernetes Job, and answers with the job id.
// It also serves /ndn/k8s/status/<cluster>/<job_id> queries and — for
// canonical (request-id-free) names — a result cache so identical
// requests never recompute (paper SVII).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/job_manager.hpp"
#include "core/predictor.hpp"
#include "core/result_cache.hpp"
#include "core/semantic_name.hpp"
#include "core/validators.hpp"
#include "core/wire_format.hpp"
#include "ndn/app_face.hpp"
#include "ndn/forwarder.hpp"
#include "qos/admission.hpp"
#include "qos/tenant.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace lidc::core {

struct GatewayOptions {
  bool enableResultCache = true;
  /// Largest object accepted through a single publish command Interest.
  std::size_t maxPublishBytes = 1 << 20;
  /// Orphan reaper: every `reaperInterval` while a launched job exists, a
  /// sweep retires jobs still Pending `orphanTtl` after launch, so dedup
  /// never joins a dead job and their status is a clean NotFound.
  sim::Duration orphanTtl = sim::Duration::minutes(10);
  sim::Duration reaperInterval = sim::Duration::seconds(30);
  /// Status GC: a job terminal (or a gray id handed out) longer than
  /// `statusRetention` is retired with its K8s Job, Pods and aliases, by
  /// the sweep or when a poll touches it. It arms no timer of its own,
  /// so idle simulations still drain.
  bool enableStatusGc = true;
  sim::Duration statusRetention = sim::Duration::minutes(30);
};

struct GatewayCounters {
  std::uint64_t computeReceived = 0;
  std::uint64_t computeRejected = 0;   // validation/parse failures
  std::uint64_t jobsLaunched = 0;
  std::uint64_t cacheHits = 0;         // served from the result cache
  std::uint64_t inflightDedup = 0;     // joined an already-running job
  std::uint64_t statusReceived = 0;
  std::uint64_t capacityRejected = 0;  // cluster could not fit the job
  std::uint64_t infoReceived = 0;      // capability queries served
  std::uint64_t publishesAccepted = 0;
  std::uint64_t publishesRejected = 0;
  std::uint64_t healthRejected = 0;    // nacked by the health gate
  std::uint64_t orphansReaped = 0;     // launched records reaped by the sweep
  std::uint64_t vanishedEvicted = 0;   // retired when the job object vanished
  std::uint64_t blackoutDropped = 0;   // Interests dropped during a blackout
  std::uint64_t grayAdmitted = 0;      // jobs "accepted" by a gray gateway
  std::uint64_t ckptRestores = 0;      // jobs launched from a checkpoint
  std::uint64_t ckptRestoreFailures = 0;  // stale/corrupt ckpt -> cold start
  std::uint64_t statusEvicted = 0;     // terminal/gray records GC'd
  std::uint64_t aliasServed = 0;       // polls served through a migration alias
};

class Gateway {
 public:
  /// Attaches to `forwarder`, registering /ndn/k8s/compute and
  /// /ndn/k8s/status/<clusterName> toward a new AppFace.
  Gateway(ndn::Forwarder& forwarder, k8s::Cluster& cluster,
          ValidatorRegistry validators, GatewayOptions options = {},
          CompletionTimePredictor* predictor = nullptr);

  /// Enables /ndn/k8s/publish: clients push named objects into this
  /// cluster's data lake via command Interests.
  void enablePublish(datalake::ObjectStore& store);

  /// Enables the multi-tenant QoS front door: registers the
  /// /ndn/k8s/submit prefix and routes tenant-scoped submit Interests
  /// through an AdmissionController (rate limits, quotas, weighted fair
  /// queueing) before they reach the JobManager. Publishes carrying a
  /// tenant component are charged against the tenant's byte quota.
  void enableQos(qos::TenantRegistry& tenants,
                 qos::AdmissionOptions admission = {});

  /// Null until enableQos().
  [[nodiscard]] qos::AdmissionController* admission() noexcept {
    return admission_.get();
  }

  /// Enables checkpoint restore (migration plane): compute Interests
  /// carrying a ckpt=<job_id>/<epoch> param resume from the named
  /// /ndn/k8s/ckpt object in `store` instead of cold-starting. When the
  /// object is not in this lake the Interest is nacked kNoRoute, so the
  /// forwarding strategy steers the resume to a cluster holding a
  /// replica — checkpoints stay location-independent like any dataset.
  void enableCheckpointRestore(datalake::ObjectStore& store) noexcept {
    ckpt_store_ = &store;
  }

  /// Migration alias: /ndn/k8s/status/<oldCluster>/<oldJobId> polls are
  /// answered with the status of `newJobId` on this cluster, so pollers
  /// follow a migrated job without learning the new name. Registers the
  /// exact old status name on this gateway's forwarder — the
  /// 5-component route wins longest-prefix match over the dead
  /// cluster's 4-component status prefix. The alias lives exactly as
  /// long as `newJobId`'s record (a no-op when there is none); after
  /// that, polls of the old name are nacked.
  void addStatusAlias(const std::string& oldCluster,
                      const std::string& oldJobId, const std::string& newJobId);

  [[nodiscard]] const std::string& clusterName() const noexcept {
    return cluster_name_;
  }
  [[nodiscard]] JobManager& jobs() noexcept { return jobs_; }
  [[nodiscard]] ResultCache& cache() noexcept { return cache_; }
  [[nodiscard]] const GatewayCounters& counters() const noexcept { return counters_; }
  [[nodiscard]] ValidatorRegistry& validators() noexcept { return validators_; }
  [[nodiscard]] ndn::FaceId faceId() const noexcept { return face_id_; }

  /// Reject new jobs when the cluster's free capacity cannot fit them
  /// (the gateway nacks, letting the network fail over to another
  /// cluster). Enabled by default.
  void setAdmissionControl(bool enabled) noexcept { admission_control_ = enabled; }

  /// Simulated gateway-process outage: while blacked out every Interest
  /// is dropped silently (no Data, no Nack), so clients see PIT timeouts
  /// exactly as if the gateway pod died. Driven by the chaos engine.
  void setBlackout(bool on) noexcept { blackout_ = on; }

  /// Gray failure (chaos kGrayGateway): unlike a blackout, the gateway
  /// keeps answering — compute Interests get a plausible ack with a job
  /// id, but nothing is ever scheduled and status polls for those ids
  /// return Pending until status GC retires the id, `statusRetention`
  /// after it was handed out (NotFound from then on). Health probes,
  /// info queries, and real jobs' status keep working, so only a
  /// progress watchdog can tell. Jobs admitted during the gray window
  /// stay dark even after recovery (the fabricated ids never map to
  /// real work).
  void setGrayFailure(bool on) noexcept { gray_ = on; }

  /// Fraction of this cluster's nodes currently Ready, in [0, 1].
  [[nodiscard]] double healthyNodeFraction() const;

  /// Sizes of the per-job record table and its two indexes.
  struct JobTableSizes { std::size_t records, dedup, aliases; };
  [[nodiscard]] JobTableSizes jobTableSizes() const noexcept {
    return {records_.size(), inflight_.size(), aliases_.size()};
  }

  /// Binds GatewayCounters, result-cache stats, and the health gauge
  /// into `registry`, read at snapshot time (lidc_gateway_*{cluster=...}).
  /// With a tracer, traced compute Interests get a "gateway-admission"
  /// span, status serves get instants, and finished jobs get
  /// retroactive "k8s-schedule" / "k8s-exec" spans from the recorded
  /// launch and job timestamps.
  void attachTelemetry(telemetry::MetricsRegistry& registry,
                       telemetry::Tracer* tracer = nullptr);

  /// Records admission rejections and blackout drops into `recorder`,
  /// so fired alerts carry the gateway's recent decisions.
  void setFlightRecorder(telemetry::FlightRecorder* recorder) noexcept {
    recorder_ = recorder;
    if (admission_) admission_->setFlightRecorder(recorder);
  }

 private:
  void handleInterest(const ndn::Interest& interest);
  void onCompute(const ndn::Interest& interest);
  void onSubmit(const ndn::Interest& interest);
  /// The shared back half of the compute pipeline (validation, cache,
  /// dedup, capacity, launch, ack). Returns true iff a launched record
  /// was created — QoS launches use this to release usage for answers
  /// that hold no job (cache hits, dedups, rejections).
  bool processCompute(const ndn::Interest& interest,
                      const ComputeRequest& request, const std::string& tenant,
                      int priorityClass, bool checkCapacity);
  /// Gray-failure fabricated admission (shared by compute and submit).
  void grayAdmit(const ndn::Interest& interest);
  void onStatus(const ndn::Interest& interest);
  void onInfo(const ndn::Interest& interest);
  void onPublish(const ndn::Interest& interest);
  /// Signs and sends one encoded record as the Data content, uncopied.
  void reply(const ndn::Name& name, ReplyBytes content, sim::Duration freshness);
  /// Terminal error answer to a compute or submit Interest.
  void replyError(const ndn::Interest& interest, const std::string& error);
  void onJobFinished(const k8s::Job& job);

  /// One job id's gateway-side state, from launch (or gray admission)
  /// until retire(): the server-side half of the client's JobRun.
  struct JobRecord {
    enum class Phase { kLaunched, kTerminal, kGray };
    /// What a launched job needs until it turns terminal: the request,
    /// the launching Interest's trace (parents the retroactive K8s
    /// spans), the QoS tenant charged for it (empty on the legacy path)
    /// and the canonical name it holds in inflight_ (empty if none).
    struct Launch {
      ComputeRequest request;
      telemetry::TraceContext trace;
      std::string tenant;
      ndn::Name dedupKey;
    };
    Phase phase = Phase::kTerminal;
    sim::Time since;                   // when the record entered `phase`
    std::unique_ptr<Launch> launch;    // set exactly while launched
    /// A migration alias naming this job: its aliases_ key
    /// ("<oldCluster>/<oldJobId>") and the exact route it registered.
    struct Alias {
      std::string key;
      ndn::Name route;
    };
    std::vector<Alias> aliases;
  };
  /// True for a terminal or gray record older than statusRetention.
  [[nodiscard]] bool expired(const JobRecord& record, sim::Time now) const;
  /// The only way out of records_: drops the record and its index
  /// entries (with the exact route of each alias still naming it),
  /// deletes the job's K8s Job and Pods, then releases its tenant charge.
  void retire(const std::string& jobId);
  /// Releases the QoS usage `tenant` was charged for `request`. Call it
  /// last: releaseJob can launch queued work, which inserts records.
  void releaseCharge(const std::string& tenant, const ComputeRequest& request);
  /// Arms the reaper timer unless it is pending. Called only while a
  /// launched record exists (lazy, so idle simulations drain).
  void armReaper();
  /// One reaper sweep over records_: reaps launched records whose job
  /// vanished or sat Pending past orphanTtl, and retires expired
  /// terminal and gray records. Returns whether a launched record is left.
  bool sweep();

  ndn::Forwarder& forwarder_;
  k8s::Cluster& cluster_;
  std::string cluster_name_;
  ValidatorRegistry validators_;
  GatewayOptions options_;
  CompletionTimePredictor* predictor_;
  datalake::ObjectStore* publish_store_ = nullptr;
  qos::TenantRegistry* tenants_ = nullptr;
  std::unique_ptr<qos::AdmissionController> admission_;
  telemetry::MetricsRegistry* metrics_registry_ = nullptr;
  JobManager jobs_;
  ResultCache cache_;
  std::shared_ptr<ndn::AppFace> face_;
  ndn::FaceId face_id_ = ndn::kInvalidFaceId;
  GatewayCounters counters_;
  telemetry::Tracer* tracer_ = nullptr;
  telemetry::FlightRecorder* recorder_ = nullptr;
  bool admission_control_ = true;
  bool blackout_ = false;
  bool gray_ = false;
  std::uint64_t next_gray_id_ = 1;
  bool reaper_pending_ = false;
  /// Checkpoint lake for ckpt= restores (null until enableCheckpointRestore).
  datalake::ObjectStore* ckpt_store_ = nullptr;

  /// Every job id this gateway answers for, ordered so sweeps retire in
  /// a deterministic order.
  std::map<std::string, JobRecord> records_;
  /// canonical name -> id of the launched job running it (dedup).
  std::unordered_map<ndn::Name, std::string, ndn::NameHash> inflight_;
  /// "<oldCluster>/<oldJobId>" -> id of the migrated-in successor.
  std::unordered_map<std::string, std::string> aliases_;
};

}  // namespace lidc::core
