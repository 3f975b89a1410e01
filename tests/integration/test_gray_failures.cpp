// End-to-end gray-failure resilience: the failures here are NOT
// fail-stop — a link quietly flips payload bits, a node limps at 10x
// while reporting Ready, and the nearest gateway admits every job but
// never runs one. The defenses under test: on-path integrity drops
// (corrupt Data never reaches an app), the client's progress watchdog
// (Pending-forever becomes a failure), per-cluster circuit breakers
// wired into adaptive placement (post-trip submissions steer away from
// the gray cluster), and the retriever's verified transfers (fetched
// bytes are exactly the published bytes). All of it deterministic: the
// same chaos seed reproduces the run byte-for-byte.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/adaptive.hpp"
#include "core/client.hpp"
#include "core/overlay.hpp"
#include "sim/chaos.hpp"
#include "telemetry/alerts.hpp"
#include "telemetry/metrics.hpp"

namespace lidc {
namespace {

core::ClientOptions defendedOptions() {
  core::ClientOptions options;
  options.interestLifetime = sim::Duration::seconds(2);
  options.statusPollInterval = sim::Duration::seconds(1);
  options.maxSubmitRetries = 8;
  options.maxStatusPollFailures = 4;
  options.maxFailovers = 4;
  options.deadline = sim::Duration::minutes(10);
  // Gray-failure defenses. The watchdog TTL is comfortably above the
  // worst-case honest queueing delay (a 5 s sleeper slot turning over),
  // so only the gray gateway's Pending-forever fabrications trip it.
  options.pendingProgressTtl = sim::Duration::seconds(8);
  options.enableHedging = true;
  options.hedgeDelayFloor = sim::Duration::millis(500);
  options.enableCircuitBreaker = true;
  options.breaker.failureThreshold = 2;
  // Long open window: the gray gateway stays gray for the whole run,
  // so there is nothing useful for half-open probes to discover.
  options.breaker.openDuration = sim::Duration::seconds(120);
  return options;
}

/// Three clusters behind one client. "gray" is nearest (best-route
/// bait) and goes gray; "beta" hides a 10x slow node; "alpha" is
/// healthy. Every access link corrupts ~1% of Data payloads.
struct GrayScenario {
  explicit GrayScenario(std::uint64_t chaosSeed) {
    overlay = std::make_unique<core::ClusterOverlay>(sim);
    overlay->addNode("client-host");
    gray = &addSleeperCluster("gray");
    beta = &addSleeperCluster("beta");
    alpha = &addSleeperCluster("alpha");
    overlay->connect("client-host", "gray",
                     net::LinkParams{sim::Duration::millis(5)});
    overlay->connect("client-host", "beta",
                     net::LinkParams{sim::Duration::millis(15)});
    overlay->connect("client-host", "alpha",
                     net::LinkParams{sim::Duration::millis(30)});
    for (const char* name : {"gray", "beta", "alpha"}) {
      overlay->announceCluster(name);
    }

    placement = std::make_unique<core::AdaptivePlacement>(*overlay);
    core::ClientOptions options = defendedOptions();
    options.breakerListener = [this](const std::string& cluster,
                                     core::BreakerState state) {
      placement->observeBreaker(cluster, state == core::BreakerState::kOpen);
      placement->tick();
      if (cluster == "gray" && state == core::BreakerState::kOpen &&
          submitsAtTrip == 0) {
        // First trip of the gray breaker: snapshot for the avoidance
        // assertion below.
        submitsAtTrip = client->submitAttemptLog().size();
        grayComputeAtTrip = gray->gateway().counters().computeReceived;
      }
    };
    client = std::make_unique<core::LidcClient>(
        *overlay->topology().node("client-host"), "gray-user", options,
        /*seed=*/777);
    overlay->topology().node("client-host")->attachTelemetry(registry);

    chaos = std::make_unique<sim::ChaosEngine>(sim, chaosSeed);
    const sim::Time start = sim::Time::fromNanos(0) + sim::Duration::seconds(1);
    const sim::Duration window = sim::Duration::minutes(10);
    for (const char* name : {"gray", "beta", "alpha"}) {
      chaos->corruption(std::string(name) + "-link-corruption",
                        *overlay->topology().linkBetween("client-host", name),
                        start, window, /*corruptRate=*/0.01);
    }
    chaos->slowNode("beta-limps", beta->cluster(), "beta-node-0", start, window,
                    /*factor=*/10.0);
    chaos->grayGateway("gray-gw-gray", start, window,
                       [this](bool on) { gray->gateway().setGrayFailure(on); });
  }

  core::ComputeCluster& addSleeperCluster(const std::string& name) {
    core::ComputeClusterConfig config;
    config.name = name;
    config.nodeCount = 2;
    config.perNode = k8s::Resources{MilliCpu::fromCores(8), ByteSize::fromGiB(16)};
    auto& cc = overlay->addCluster(config);
    cc.cluster().registerApp("sleeper", [](k8s::AppContext&) {
      k8s::AppResult result;
      result.runtime = sim::Duration::seconds(5);
      return result;
    });
    cc.gateway().jobs().mapAppToImage("sleep", "sleeper");
    return cc;
  }

  /// Publishes a dataset before the chaos window opens, launches
  /// `count` jobs 1.5 s apart, fetches the dataset back mid-chaos, and
  /// runs the world to quiescence.
  void run(int count) {
    published.resize(16 * 1024);
    for (std::size_t i = 0; i < published.size(); ++i) {
      published[i] = static_cast<std::uint8_t>((i * 131) & 0xff);
    }
    client->publishData("gray-test/input", published,
                        [this](Result<ndn::Name> r) {
                          ASSERT_TRUE(r.ok()) << r.status();
                          publishedName = *r;
                        });
    outcomes.resize(static_cast<std::size_t>(count));
    // Jobs start at t=2 s — after every chaos fault is live at t=1 s —
    // so no job slips into the gray gateway before it turns gray.
    for (int i = 0; i < count; ++i) {
      sim.scheduleAt(
          sim::Time::fromNanos(0) + sim::Duration::millis(2000 + 1500 * i),
          [this, i] {
            core::ComputeRequest request;
            request.app = "sleep";
            request.cpu = MilliCpu::fromCores(2);
            request.memory = ByteSize::fromGiB(1);
            client->runToCompletion(request, [this, i](Result<core::JobOutcome> r) {
              outcomes[static_cast<std::size_t>(i)] = std::move(r);
            });
          });
    }
    // Fetch the published object back through the corrupting links:
    // the verified transfer must deliver the exact published bytes.
    sim.scheduleAt(sim::Time::fromNanos(0) + sim::Duration::seconds(20), [this] {
      client->fetchData(publishedName, [this](Result<std::vector<std::uint8_t>> r) {
        ASSERT_TRUE(r.ok()) << r.status();
        fetched = *r;
      });
    });
    sim.run();
  }

  [[nodiscard]] std::uint64_t totalCorrupted() const {
    std::uint64_t total = 0;
    for (const char* name : {"gray", "beta", "alpha"}) {
      total += const_cast<net::Topology&>(overlay->topology())
                   .linkBetween("client-host", name)
                   ->packetsCorrupted();
    }
    return total;
  }

  [[nodiscard]] std::uint64_t totalIntegrityDrops() const {
    std::uint64_t total = 0;
    for (const char* name : {"client-host", "gray", "beta", "alpha"}) {
      total += const_cast<net::Topology&>(overlay->topology())
                   .node(name)
                   ->counters()
                   .nIntegrityDrops;
    }
    return total;
  }

  /// Every observable that must be reproducible, as one string.
  [[nodiscard]] std::string fingerprint() const {
    std::ostringstream out;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      const auto& r = outcomes[i];
      out << "job" << i << ": ";
      if (!r.has_value()) {
        out << "<no outcome>\n";
        continue;
      }
      if (!r->ok()) {
        out << r->status() << "\n";
        continue;
      }
      out << "cluster=" << (*r)->finalStatus.cluster
          << " state=" << k8s::jobStateName((*r)->finalStatus.state)
          << " failovers=" << (*r)->failovers << "\n";
    }
    out << "corrupted=" << totalCorrupted()
        << " integrity_drops=" << totalIntegrityDrops()
        << " watchdog=" << client->watchdogTimeouts()
        << " trips=" << client->breakerTrips()
        << " hedges=" << client->hedgesIssued() << "/" << client->hedgesWon()
        << "/" << client->hedgesCancelled() << "\n";
    out << chaos->traceString();
    for (const auto t : client->submitAttemptLog()) {
      out << "submit_ns=" << t.toNanos() << "\n";
    }
    return out.str();
  }

  sim::Simulator sim;
  std::unique_ptr<core::ClusterOverlay> overlay;
  core::ComputeCluster* gray = nullptr;
  core::ComputeCluster* beta = nullptr;
  core::ComputeCluster* alpha = nullptr;
  std::unique_ptr<core::AdaptivePlacement> placement;
  std::unique_ptr<core::LidcClient> client;
  std::unique_ptr<sim::ChaosEngine> chaos;
  telemetry::MetricsRegistry registry;
  std::vector<std::optional<Result<core::JobOutcome>>> outcomes;
  std::vector<std::uint8_t> published;
  std::vector<std::uint8_t> fetched;
  ndn::Name publishedName;
  std::size_t submitsAtTrip = 0;
  std::uint64_t grayComputeAtTrip = 0;
};

TEST(GrayFailuresTest, AllJobsCompleteWithZeroCorruptResultsDelivered) {
  GrayScenario scenario(/*chaosSeed=*/2024);
  scenario.run(/*count=*/10);

  // Every job completed despite the corruption + slow node + gray
  // gateway cocktail — and none of them "completed" on the gray
  // cluster, whose admissions were fabrications.
  for (std::size_t i = 0; i < scenario.outcomes.size(); ++i) {
    const auto& r = scenario.outcomes[i];
    ASSERT_TRUE(r.has_value()) << "job " << i << " never finished";
    ASSERT_TRUE((*r).ok()) << "job " << i << ": " << (*r).status();
    EXPECT_EQ((**r).finalStatus.state, k8s::JobState::kCompleted) << "job " << i;
    EXPECT_NE((**r).finalStatus.cluster, "gray") << "job " << i;
  }

  // The gray gateway really did bait jobs, and the watchdog + breaker
  // machinery caught it.
  EXPECT_GE(scenario.gray->gateway().counters().grayAdmitted, 1u);
  EXPECT_GE(scenario.client->watchdogTimeouts(), 1u);
  EXPECT_GE(scenario.client->breakerTrips(), 1u);
  ASSERT_GT(scenario.submitsAtTrip, 0u) << "gray breaker never tripped";

  // Post-trip, >= 90% of new submissions avoid the gray cluster (the
  // breaker cost steers the compute anycast to beta/alpha).
  const std::size_t submitsAfter =
      scenario.client->submitAttemptLog().size() - scenario.submitsAtTrip;
  const std::uint64_t grayAfter =
      scenario.gray->gateway().counters().computeReceived -
      scenario.grayComputeAtTrip;
  ASSERT_GT(submitsAfter, 0u);
  EXPECT_LE(static_cast<double>(grayAfter),
            0.10 * static_cast<double>(submitsAfter))
      << grayAfter << " of " << submitsAfter
      << " post-trip submissions still reached the gray cluster";

  // The data plane corrupted packets, every one was caught on-path
  // (corruption preserves the stale signature, so verification cannot
  // miss), and the retrieved object is byte-identical to the published
  // one: zero corrupt results delivered.
  EXPECT_GE(scenario.totalCorrupted(), 1u);
  EXPECT_EQ(scenario.totalIntegrityDrops(), scenario.totalCorrupted());
  ASSERT_FALSE(scenario.fetched.empty()) << "fetch never completed";
  EXPECT_EQ(scenario.fetched, scenario.published);

  // The alert plane sees the same story: integrity drops at the client
  // host cross the threshold rule.
  telemetry::AlertEngine alerts(scenario.sim);
  alerts.setValueSource([&](std::string_view series) -> std::optional<double> {
    const auto flat = scenario.registry.flatten();
    const auto it = flat.find(std::string(series));
    if (it == flat.end()) return std::nullopt;
    return it->second;
  });
  alerts.addThresholdRule("integrity-drops", R"(lidc_integrity_drops_total{node="client-host"})",
                          telemetry::AlertComparison::kAbove, 0.0);
  alerts.evaluate();
  EXPECT_GE(alerts.firedTotal(), 1u);
}

TEST(GrayFailuresTest, StaleReplayWindowTogglesCacheAndIsTraced) {
  sim::Simulator sim;
  ndn::ContentStore cs;
  ndn::Data data((ndn::Name("/ndn/k8s/data/stale/v1")));
  data.setContent("old bytes");
  data.setFreshnessPeriod(sim::Duration::millis(100));
  data.sign();
  cs.insert(data, sim.now());

  ndn::Interest fresh((ndn::Name("/ndn/k8s/data/stale/v1")));
  fresh.setMustBeFresh(true);

  sim::ChaosEngine chaos(sim, /*seed=*/7);
  chaos.staleReplay("cache-replays", sim::Time::fromNanos(0) + sim::Duration::seconds(1),
                    sim::Duration::seconds(2),
                    [&cs](bool on) { cs.setServeStale(on); });

  bool beforeServed = true, duringServed = false, afterServed = true;
  sim.scheduleAt(sim::Time::fromNanos(0) + sim::Duration::millis(500),
                 [&] { beforeServed = cs.find(fresh, sim.now()).has_value(); });
  sim.scheduleAt(sim::Time::fromNanos(0) + sim::Duration::seconds(2),
                 [&] { duringServed = cs.find(fresh, sim.now()).has_value(); });
  sim.scheduleAt(sim::Time::fromNanos(0) + sim::Duration::seconds(4),
                 [&] { afterServed = cs.find(fresh, sim.now()).has_value(); });
  sim.run();

  // Entry expired at t=100 ms: a healthy cache misses, the gray window
  // re-serves the stale bytes, recovery restores freshness semantics.
  EXPECT_FALSE(beforeServed);
  EXPECT_TRUE(duringServed);
  EXPECT_FALSE(afterServed);
  EXPECT_NE(chaos.traceString().find("inject cache-replays"), std::string::npos);
  EXPECT_NE(chaos.traceString().find("recover cache-replays"), std::string::npos);
}

TEST(GrayFailuresTest, SameSeedGivesByteIdenticalRuns) {
  GrayScenario first(/*chaosSeed=*/2024);
  first.run(10);
  GrayScenario second(/*chaosSeed=*/2024);
  second.run(10);
  EXPECT_EQ(first.fingerprint(), second.fingerprint());

  // The corruption draws really are seed-dependent.
  GrayScenario reseeded(/*chaosSeed=*/9090);
  reseeded.run(10);
  EXPECT_NE(first.fingerprint(), reseeded.fingerprint());
}

}  // namespace
}  // namespace lidc
