// control_storm: a stream of short compute jobs. One client host sits
// behind a core router; four 4-node clusters sit 5-60 ms away (each
// link's latency is drawn from the seed within its range) and the
// compute prefix uses best-route anycast. Arrivals are Poisson on the
// simulated clock and scheduled up front (open loop). Every tenth job is
// a canonical repeat from a second client that keeps result caching on,
// so gateway result caches and Content Store ack aggregation see hits.
// An op is one job, from its arrival until its terminal outcome.
#include <algorithm>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/strings.hpp"
#include "core/client.hpp"
#include "core/overlay.hpp"
#include "harness.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace perfbench {
namespace {

using namespace lidc;

struct Site {
  const char* name;
  int minMs;  // the link latency is drawn from [minMs, maxMs] per seed
  int maxMs;
};
constexpr Site kSites[] = {
    {"near", 5, 10}, {"mid", 15, 25}, {"far", 35, 45}, {"remote", 50, 60}};
constexpr int kNodesPerCluster = 4;
constexpr int kCoresPerNode = 8;
// 128 cores in all; 5 jobs/s of 1-core, ~20 s jobs keeps ~100 busy.
constexpr double kJobsPerSecond = 5.0;
constexpr std::size_t kRepeatEvery = 10;
constexpr std::uint64_t kCanonicalJobs = 16;
constexpr std::size_t kCapturedNames = 512;

struct Job {
  sim::Time at;
  bool repeat = false;
  std::int64_t durationMs = 0;
  std::uint64_t canonical = 0;
};

core::ComputeRequest requestFor(const Job& job) {
  core::ComputeRequest request;
  request.app = "sleep";
  request.cpu = MilliCpu::fromCores(1);
  request.memory = ByteSize::fromGiB(1);
  request.params["dur"] = std::to_string(job.durationMs);
  if (job.repeat) request.params["key"] = std::to_string(job.canonical);
  return request;
}

class StormScenario final : public Scenario {
 public:
  StormScenario(const std::vector<Job>& jobs, const std::vector<sim::Duration>& links,
                bool traced)
      : jobs_(jobs), overlay_(sim_) {
    overlay_.addNode("client-host");
    overlay_.addNode("core");
    overlay_.connect("client-host", "core", net::LinkParams{sim::Duration::millis(1)});
    for (std::size_t c = 0; c < std::size(kSites); ++c) {
      const Site& site = kSites[c];
      core::ComputeClusterConfig config;
      config.name = site.name;
      config.nodeCount = kNodesPerCluster;
      config.perNode = k8s::Resources{MilliCpu::fromCores(kCoresPerNode),
                                      ByteSize::fromGiB(32)};
      core::ComputeCluster& cluster = overlay_.addCluster(config);
      cluster.cluster().registerApp("sleeper", [this](k8s::AppContext& context) {
        HostTimer timer(appsHostS_);
        k8s::AppResult result;
        const auto it = context.spec.args.find("dur");
        const auto ms = it == context.spec.args.end()
                            ? std::nullopt
                            : strings::parseUint(it->second);
        result.runtime =
            sim::Duration::millis(static_cast<std::int64_t>(ms.value_or(1000)));
        return result;
      });
      cluster.gateway().jobs().mapAppToImage("sleep", "sleeper");
      overlay_.connect("core", site.name, net::LinkParams{links[c]});
      overlay_.announceCluster(site.name);
      clusters_.push_back(&cluster);
    }
    overlay_.setPlacementStrategy(core::PlacementStrategy::kBestRoute);

    ndn::Forwarder& host = *overlay_.topology().node("client-host");
    fresh_ = std::make_unique<core::LidcClient>(host, "fresh", core::ClientOptions{}, 11);
    core::ClientOptions canonical;
    canonical.bypassCache = false;
    repeat_ = std::make_unique<core::LidcClient>(host, "repeat", canonical, 22);
    if (traced) {
      registry_ = std::make_unique<telemetry::MetricsRegistry>();
      tracer_ = std::make_unique<telemetry::Tracer>(sim_);
      overlay_.attachTelemetry(*registry_, tracer_.get());
      fresh_->attachTelemetry(*registry_, tracer_.get());
      repeat_->attachTelemetry(*registry_, tracer_.get());
    }
    callbacks_.assign(jobs_.size(), 0);
    latency_.assign(jobs_.size(), -1);
  }

  void run() override {
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      sim_.scheduleAt(jobs_[i].at, [this, i] { submit(i); });
    }
    events_ = sim_.run();
  }

  RepResult collect() override {
    RepResult result;
    result.latencyNs = latency_;
    result.makespanS = lastTerminal_.toSeconds();
    result.appsHostS = appsHostS_;
    for (std::size_t i = 0; i < jobs_.size() && result.checkError.empty(); ++i) {
      if (callbacks_[i] != 1) {
        result.checkError = "control_storm: job " + std::to_string(i) + " got " +
                            std::to_string(callbacks_[i]) + " terminal callbacks";
      }
    }
    const double ops = static_cast<double>(jobs_.size());
    result.counts["sim.events_per_op"] = static_cast<double>(events_) / ops;
    addNetworkCounts(overlay_.topology(), ops, result);
    addFederationCounts(clusters_, {},
                        static_cast<double>(fresh_->submitsSent() + repeat_->submitsSent()),
                        ops, result);
    addTelemetryCounts(registry_.get(), nullptr, result);
    addAbsent(result, {"workflow.dispatches_per_stage", "workflow.bytes_moved_per_op"});
    if (tracer_) addTraceCounts(*tracer_, ops, result);

    Capture& capture = result.capture;
    for (std::size_t i = 0; i < jobs_.size() && capture.names.size() < kCapturedNames; ++i) {
      core::ComputeRequest request = requestFor(jobs_[i]);
      if (!jobs_[i].repeat) request.requestId = "r" + std::to_string(i);
      capture.names.push_back(request.toName().toUri());
    }
    capture.names.insert(capture.names.end(), statusNames_.begin(), statusNames_.end());
    capture.podRequest = k8s::Resources{MilliCpu::fromCores(1), ByteSize::fromGiB(1)};
    return result;
  }

  LiveState live() override {
    return {overlay_.topology().node("core"), &clusters_.front()->cluster(),
            registry_.get()};
  }

 private:
  void submit(std::size_t index) {
    const Job& job = jobs_[index];
    core::LidcClient& client = job.repeat ? *repeat_ : *fresh_;
    client.runToCompletion(requestFor(job), [this, index](Result<core::JobOutcome> outcome) {
      HostTimer timer(appsHostS_);
      if (++callbacks_[index] > 1) return;
      lastTerminal_ = std::max(lastTerminal_, sim_.now());
      const bool completed =
          outcome.ok() && outcome->finalStatus.state == k8s::JobState::kCompleted;
      latency_[index] = completed ? (sim_.now() - jobs_[index].at).toNanos() : -1;
      if (completed && statusNames_.size() < kCapturedNames &&
          !outcome->submit.statusName.empty()) {
        statusNames_.push_back(outcome->submit.statusName);
      }
    });
  }

  const std::vector<Job>& jobs_;
  sim::Simulator sim_;
  core::ClusterOverlay overlay_;
  std::vector<core::ComputeCluster*> clusters_;
  std::unique_ptr<core::LidcClient> fresh_;
  std::unique_ptr<core::LidcClient> repeat_;
  std::unique_ptr<telemetry::MetricsRegistry> registry_;
  std::unique_ptr<telemetry::Tracer> tracer_;
  std::vector<int> callbacks_;
  std::vector<std::int64_t> latency_;
  std::vector<std::string> statusNames_;
  sim::Time lastTerminal_;
  std::size_t events_ = 0;
  double appsHostS_ = 0;
};

class ControlStorm final : public Workload {
 public:
  ControlStorm(std::uint64_t seed, std::size_t ops) {
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
    for (const Site& site : kSites) {
      links_.push_back(sim::Duration::micros(rng.uniformInRange(site.minMs * 1000, site.maxMs * 1000)));
    }
    double t = 0;
    jobs_.resize(ops);
    for (std::size_t i = 0; i < ops; ++i) {
      t += rng.exponential(1.0 / kJobsPerSecond);
      Job& job = jobs_[i];
      job.at = sim::Time() + sim::Duration::seconds(t);
      job.repeat = i % kRepeatEvery == kRepeatEvery - 1;
      if (job.repeat) {
        job.canonical = rng.uniform(kCanonicalJobs);
        job.durationMs = 5000 + 1000 * static_cast<std::int64_t>(job.canonical);
      } else {
        job.durationMs = rng.uniformInRange(10'000, 30'000);
      }
    }
  }

  [[nodiscard]] std::size_t ops() const override { return jobs_.size(); }
  [[nodiscard]] std::unique_ptr<Scenario> build(bool traced) const override {
    return std::make_unique<StormScenario>(jobs_, links_, traced);
  }

 private:
  std::vector<Job> jobs_;
  std::vector<sim::Duration> links_;
};

}  // namespace

std::unique_ptr<Workload> makeControlStorm(std::uint64_t seed, std::size_t ops) {
  return std::make_unique<ControlStorm>(seed, ops == 0 ? 2400 : ops);
}

}  // namespace perfbench
