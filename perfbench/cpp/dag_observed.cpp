// dag_observed: three tenants submit fan-out/fan-in transform DAGs
// (prep -> t0..t7 -> merge) through QoS admission on three clusters
// 4-35 ms away (latencies drawn from the seed), over links that drop 1%
// of packets. Intermediates live in the data lake and placement is
// locality-aware. Every observability and replica plane is on: metrics
// registry, flow accounting, collector scraping, alert rules, flight
// recorder, replica catalogs scraped by a directory, and lookahead
// pre-staging into the nearest cluster. One DAG arrives in each 3 s
// slot, at a seeded point within it (open loop), and DAGs take turns
// among tenants and raw-input lakes. An op is one stage, from dispatch
// until it is terminal; every completed merge output must equal
// the concatenation the benchmark computes from the raw inputs.
#include <algorithm>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "apps/transform_app.hpp"
#include "common/rng.hpp"
#include "core/client.hpp"
#include "core/overlay.hpp"
#include "harness.hpp"
#include "qos/tenant.hpp"
#include "replica/catalog.hpp"
#include "replica/directory.hpp"
#include "replica/prestage.hpp"
#include "telemetry/alerts.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/monitor.hpp"
#include "telemetry/trace.hpp"
#include "workflow/engine.hpp"

namespace perfbench {
namespace {

using namespace lidc;

const std::vector<std::string> kTenants = {"t-a", "t-b", "t-c"};
struct Site {
  const char* name;
  int minMs;  // the link latency is drawn from [minMs, maxMs] per seed
  int maxMs;
};
constexpr Site kSites[] = {{"east", 4, 6}, {"west", 12, 18}, {"north", 25, 35}};
constexpr int kFanOut = 8;
constexpr std::size_t kStagesPerDag = kFanOut + 2;
constexpr double kDagGapSeconds = 3.0;
constexpr double kLossRate = 0.01;
// Slow enough that a stage runs for seconds, so polling and scraping
// interleave with execution the way they do on a real federation.
constexpr double kTransformBytesPerSecond = 8 * 1024;
constexpr std::size_t kCapturedNames = 1024;

struct Dag {
  sim::Time at;
  std::size_t tenant = 0;
  std::size_t home = 0;  // cluster whose lake holds the raw input
  std::vector<std::uint8_t> raw;
  std::uint64_t mergeDigest = 0;  // reference output of "merge"
  workflow::WorkflowSpec spec;
};

std::string rawPath(std::size_t dag) { return "raw/dag-" + std::to_string(dag); }

workflow::WorkflowSpec dagSpec(std::size_t dag) {
  workflow::WorkflowSpec spec;
  spec.id = "dag-" + std::to_string(dag);
  const auto stage = [](std::string name) {
    workflow::StageSpec s;
    s.name = std::move(name);
    s.app = "transform";
    s.cpu = MilliCpu::fromCores(1);
    s.memory = ByteSize::fromGiB(1);
    return s;
  };
  workflow::StageSpec prep = stage("prep");
  prep.lakeInputs = {rawPath(dag)};
  spec.addStage(prep);
  workflow::StageSpec merge = stage("merge");
  for (int i = 0; i < kFanOut; ++i) {
    workflow::StageSpec branch = stage("t" + std::to_string(i));
    branch.params["tag"] = "branch-" + std::to_string(i);
    branch.stageInputs = {{"prep", "input"}};
    spec.addStage(branch);
    merge.stageInputs.push_back({branch.name, ""});
  }
  spec.addStage(merge);
  return spec;
}

/// What the transform app must produce for "merge": each branch's tag
/// line followed by the raw bytes, concatenated in branch order.
std::uint64_t referenceMerge(const std::vector<std::uint8_t>& raw) {
  std::vector<std::uint8_t> merged;
  for (int i = 0; i < kFanOut; ++i) {
    const std::string tag = "branch-" + std::to_string(i) + "\n";
    merged.insert(merged.end(), tag.begin(), tag.end());
    merged.insert(merged.end(), raw.begin(), raw.end());
  }
  return fnv1a(merged.data(), merged.size());
}

class DagScenario final : public Scenario {
 public:
  DagScenario(const std::vector<Dag>& dags, const std::vector<sim::Duration>& links,
              bool traced)
      : dags_(dags),
        overlay_(sim_),
        recorder_(sim_),
        alerts_(sim_) {
    for (const std::string& id : kTenants) {
      qos::TenantSpec spec;
      spec.id = id;
      (void)tenants_.registerTenant(spec);
    }
    const net::LinkParams lossy{sim::Duration::millis(1), 0.0, kLossRate};
    overlay_.addNode("client-host");
    overlay_.addNode("core");
    overlay_.connect("client-host", "core", lossy);
    for (std::size_t c = 0; c < std::size(kSites); ++c) {
      const Site& site = kSites[c];
      core::ComputeClusterConfig config;
      config.name = site.name;
      config.nodeCount = 4;
      config.perNode = k8s::Resources{MilliCpu::fromCores(8), ByteSize::fromGiB(32)};
      config.tenants = &tenants_;
      core::ComputeCluster& cluster = overlay_.addCluster(config);
      apps::TransformConfig slow;
      slow.bytesPerSecondPerCore = kTransformBytesPerSecond;
      cluster.cluster().registerApp(
          "transform", [this, runner = apps::makeTransformRunner(cluster.store(), slow)](
                           k8s::AppContext& context) {
            HostTimer timer(appsHostS_);
            return runner(context);
          });
      net::LinkParams link = lossy;
      link.latency = links[c];
      overlay_.connect("core", site.name, link);
      overlay_.announceCluster(site.name);
      clusters_.push_back(&cluster);
    }
    for (std::size_t d = 0; d < dags_.size(); ++d) {
      (void)clusters_[dags_[d].home]->store().put(core::makeDataName(rawPath(d)),
                                                  dags_[d].raw);
    }

    // Observability planes.
    if (traced) tracer_ = std::make_unique<telemetry::Tracer>(sim_);
    overlay_.attachTelemetry(registry_, tracer_.get());
    overlay_.attachFlightRecorder(&recorder_);
    overlay_.enableFlowAccounting();
    ndn::Forwarder& host = *overlay_.topology().node("client-host");
    collector_ = std::make_unique<telemetry::TelemetryCollector>(host);
    for (const Site& site : kSites) collector_->watchCluster(site.name);
    collector_->attachTelemetry(registry_);
    alerts_.setValueSource(telemetry::collectorValueSource(*collector_));
    alerts_.setFlightRecorder(&recorder_);
    for (const Site& site : kSites) {
      const std::string name = site.name;
      alerts_.addThresholdRule(name + "-stale", name + "/stale",
                               telemetry::AlertComparison::kAbove, 0.5, 3);
      alerts_.addThresholdRule(name + "-unhealthy", name + "/health",
                               telemetry::AlertComparison::kBelow, 0.5, 3);
    }
    alerts_.attachTelemetry(registry_);

    // Replica planes: a catalog per lake, a directory scraping them, and
    // lookahead pre-staging into the nearest cluster.
    for (core::ComputeCluster* cluster : clusters_) {
      catalogs_.push_back(
          std::make_unique<replica::ReplicaCatalog>(cluster->forwarder(), cluster->name()));
      catalogs_.back()->syncFromStore(cluster->store(), core::kDataPrefix);
    }
    directory_ = std::make_unique<replica::ReplicaDirectory>(host);
    for (const Site& site : kSites) directory_->watchCluster(site.name);
    directory_->attachTelemetry(registry_);
    core::ComputeCluster& hub = *clusters_.front();
    scheduler_ = std::make_unique<replica::TransferScheduler>(
        hub.forwarder(), hub.store(), hub.name(), replica::TransferOptions{},
        catalogs_.front().get());
    scheduler_->attachTelemetry(registry_);
    scheduler_->setFlightRecorder(&recorder_);
    prestage_ = std::make_unique<replica::PrestageCoordinator>(*scheduler_, hub.store());

    for (std::size_t t = 0; t < kTenants.size(); ++t) {
      core::ClientOptions options;
      options.tenant = kTenants[t];
      options.maxSubmitRetries = 4;
      options.maxStatusPollFailures = 8;
      clients_.push_back(std::make_unique<core::LidcClient>(
          host, "user-" + kTenants[t], options, 500 + t));
      clients_.back()->attachTelemetry(registry_, tracer_.get());
      clients_.back()->setFlightRecorder(&recorder_);
      workflow::WorkflowOptions engineOptions;
      engineOptions.tenant = kTenants[t];
      engineOptions.prestageHook = [this](const std::string& consumer,
                                          const std::vector<std::string>& inputs) {
        prestage_->prestage(consumer, lakeUris(inputs));
      };
      engineOptions.ensureInputsLocal = [this](const std::string& stage,
                                               const std::vector<std::string>& inputs,
                                               std::function<void(std::uint64_t)> done) {
        prestage_->ensureLocal(stage, lakeUris(inputs), std::move(done));
      };
      engines_.push_back(
          std::make_unique<workflow::WorkflowEngine>(*clients_.back(), engineOptions));
      engines_.back()->attachTelemetry(registry_, tracer_.get());
    }
    latency_.assign(dags_.size() * kStagesPerDag, -1);
    outcomes_.resize(dags_.size());
  }

  void run() override {
    collector_->start();
    alerts_.start();
    directory_->start();
    for (std::size_t d = 0; d < dags_.size(); ++d) {
      sim_.scheduleAt(dags_[d].at, [this, d] {
        engines_[dags_[d].tenant]->run(dags_[d].spec,
                                       [this, d](Result<workflow::WorkflowOutcome> outcome) {
                                         finishDag(d, std::move(outcome));
                                       });
      });
    }
    events_ = sim_.run();
  }

  RepResult collect() override {
    RepResult result;
    result.latencyNs = latency_;
    result.makespanS = lastTerminal_.toSeconds();
    result.appsHostS = appsHostS_;
    result.checkError = checkError_;
    for (std::size_t d = 0; d < dags_.size() && result.checkError.empty(); ++d) {
      if (!outcomes_[d]) {
        result.checkError = "dag_observed: " + dags_[d].spec.id + " never finished";
      }
    }
    const double ops = static_cast<double>(latency_.size());
    result.counts["sim.events_per_op"] = static_cast<double>(events_) / ops;
    addNetworkCounts(overlay_.topology(), ops, result);
    double submits = 0, dispatched = 0, moved = 0;
    for (const auto& client : clients_) submits += static_cast<double>(client->submitsSent());
    for (const auto& engine : engines_) {
      dispatched += static_cast<double>(engine->stagesDispatched());
      moved += static_cast<double>(engine->bytesMoved());
    }
    moved += static_cast<double>(scheduler_->bytesMoved());
    addFederationCounts(clusters_, kTenants, submits, ops, result);
    addTelemetryCounts(&registry_, &collector_->counters(), result);
    result.counts["workflow.dispatches_per_stage"] = dispatched / ops;
    result.counts["workflow.bytes_moved_per_op"] = moved / ops;
    if (tracer_) addTraceCounts(*tracer_, ops, result);

    Capture& capture = result.capture;
    for (std::size_t d = 0; d < dags_.size() && capture.names.size() < kCapturedNames; ++d) {
      if (!outcomes_[d]) break;
      const workflow::WorkflowEngine& engine = *engines_[dags_[d].tenant];
      for (const workflow::StageSpec& stage : dags_[d].spec.stages) {
        capture.names.push_back(
            core::makeSubmitName(kTenants[dags_[d].tenant],
                                 engine.buildRequest(dags_[d].spec, stage))
                .toUri());
        const workflow::StageStatus& status = outcomes_[d]->stages.at(stage.name);
        capture.names.push_back(
            core::makeStatusName(status.cluster, status.lastJobId).toUri());
        capture.objectSizes.push_back(status.outputBytes);
      }
    }
    capture.podRequest = k8s::Resources{MilliCpu::fromCores(1), ByteSize::fromGiB(1)};
    return result;
  }

  LiveState live() override {
    return {overlay_.topology().node("core"), &clusters_.front()->cluster(), &registry_};
  }

 private:
  static std::vector<std::string> lakeUris(const std::vector<std::string>& paths) {
    std::vector<std::string> uris;
    for (const std::string& path : paths) uris.push_back(core::makeDataName(path).toUri());
    return uris;
  }

  void finishDag(std::size_t d, Result<workflow::WorkflowOutcome> outcome) {
    HostTimer timer(appsHostS_);
    // The periodic planes stop with the last DAG, or the simulation
    // would never drain.
    if (++finished_ == dags_.size()) {
      collector_->stop();
      alerts_.stop();
      directory_->stop();
    }
    if (!outcome.ok()) {
      fail("dag_observed: " + dags_[d].spec.id + ": " + outcome.status().message());
      return;
    }
    lastTerminal_ = std::max(lastTerminal_, sim_.now());
    const workflow::WorkflowSpec& spec = dags_[d].spec;
    for (std::size_t s = 0; s < spec.stages.size(); ++s) {
      const workflow::StageStatus& status = outcome->stages.at(spec.stages[s].name);
      if (status.state == workflow::StageState::kCompleted) {
        latency_[d * kStagesPerDag + s] = (status.finishedAt - status.dispatchedAt).toNanos();
      }
    }
    const workflow::StageStatus& merge = outcome->stages.at("merge");
    if (merge.state == workflow::StageState::kCompleted) {
      core::ComputeCluster* holder = overlay_.cluster(merge.cluster);
      const auto bytes = holder ? holder->store().get(workflow::intermediateName(spec.id, "merge"))
                                : std::nullopt;
      if (!bytes || fnv1a(bytes->data(), bytes->size()) != dags_[d].mergeDigest) {
        fail("dag_observed: merge output of " + spec.id + " differs from reference");
      }
    }
    outcomes_[d] = std::move(outcome).value();
  }

  void fail(const std::string& why) {
    if (checkError_.empty()) checkError_ = why;
  }

  const std::vector<Dag>& dags_;
  sim::Simulator sim_;
  qos::TenantRegistry tenants_;
  core::ClusterOverlay overlay_;
  std::vector<core::ComputeCluster*> clusters_;
  telemetry::MetricsRegistry registry_;
  std::unique_ptr<telemetry::Tracer> tracer_;
  telemetry::FlightRecorder recorder_;
  telemetry::AlertEngine alerts_;
  std::unique_ptr<telemetry::TelemetryCollector> collector_;
  std::vector<std::unique_ptr<replica::ReplicaCatalog>> catalogs_;
  std::unique_ptr<replica::ReplicaDirectory> directory_;
  std::unique_ptr<replica::TransferScheduler> scheduler_;
  std::unique_ptr<replica::PrestageCoordinator> prestage_;
  std::vector<std::unique_ptr<core::LidcClient>> clients_;
  std::vector<std::unique_ptr<workflow::WorkflowEngine>> engines_;
  std::vector<std::int64_t> latency_;
  std::vector<std::optional<workflow::WorkflowOutcome>> outcomes_;
  std::size_t finished_ = 0;
  std::string checkError_;
  sim::Time lastTerminal_;
  std::size_t events_ = 0;
  double appsHostS_ = 0;
};

class DagObserved final : public Workload {
 public:
  DagObserved(std::uint64_t seed, std::size_t ops) {
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 3);
    for (const Site& site : kSites) {
      links_.push_back(sim::Duration::micros(rng.uniformInRange(site.minMs * 1000, site.maxMs * 1000)));
    }
    const std::size_t count = std::max<std::size_t>(1, ops / kStagesPerDag);
    // Raw input sizes are one stratified sample of 8-24 KiB in seed
    // order, so the stage runtimes (and the latency tail) match across seeds.
    std::vector<double> sizeFractions(count);
    for (std::size_t k = 0; k < count; ++k) {
      sizeFractions[k] = (static_cast<double>(k) + rng.uniformDouble()) / static_cast<double>(count);
    }
    for (std::size_t k = count; k > 1; --k) {
      std::swap(sizeFractions[k - 1], sizeFractions[rng.uniform(k)]);
    }
    for (std::size_t d = 0; d < count; ++d) {
      Dag dag;
      // One DAG per 3 s slot at a seeded point within the slot, so the
      // offered load (and with it the makespan) is the same for every seed.
      dag.at = sim::Time() + sim::Duration::seconds(
                                 kDagGapSeconds * (static_cast<double>(d) + rng.uniformDouble()));
      dag.tenant = d % kTenants.size();
      dag.home = d % std::size(kSites);
      dag.raw = randomBytes(
          rng(), 8 * 1024 + static_cast<std::size_t>(sizeFractions[d] * 16 * 1024));
      dag.mergeDigest = referenceMerge(dag.raw);
      dag.spec = dagSpec(d);
      dags_.push_back(std::move(dag));
    }
  }

  [[nodiscard]] std::size_t ops() const override { return dags_.size() * kStagesPerDag; }
  [[nodiscard]] std::unique_ptr<Scenario> build(bool traced) const override {
    return std::make_unique<DagScenario>(dags_, links_, traced);
  }

 private:
  std::vector<Dag> dags_;
  std::vector<sim::Duration> links_;
};

}  // namespace

std::unique_ptr<Workload> makeDagObserved(std::uint64_t seed, std::size_t ops) {
  return std::make_unique<DagObserved>(seed, ops == 0 ? 2000 : ops);
}

}  // namespace perfbench
