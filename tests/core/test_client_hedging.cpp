// Hedged submits and the progress watchdog (gray-failure defenses in
// the client). A hedge is a second submit leg with a fresh request id,
// fired when the primary's ack is slower than the learned p-quantile;
// the first valid answer wins the race and the loser is cancelled —
// never double-counted as both won and cancelled. The watchdog turns
// "admitted but Pending forever" (a gray gateway) into a failure the
// failover/breaker machinery can act on. With every defence on, a job
// still calls its callback once and the client never copies it, and a
// health steer-off leaves a half-open breaker's probe slot free.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "core/adaptive.hpp"
#include "core/client.hpp"
#include "core/overlay.hpp"
#include "net/topology.hpp"

namespace lidc {
namespace {

core::ComputeRequest sleepRequest() {
  core::ComputeRequest request;
  request.app = "sleep";
  request.cpu = MilliCpu::fromCores(1);
  request.memory = ByteSize::fromGiB(1);
  return request;
}

/// One cluster behind a configurable access link.
struct HedgeWorld {
  HedgeWorld(core::ClientOptions options, net::LinkParams linkParams,
             std::uint64_t seed = 7)
      : overlay(sim) {
    overlay.addNode("client-host");
    core::ComputeClusterConfig config;
    config.name = "solo";
    config.perNode = k8s::Resources{MilliCpu::fromCores(8), ByteSize::fromGiB(16)};
    cc = &overlay.addCluster(config);
    cc->cluster().registerApp("sleeper", [](k8s::AppContext&) {
      k8s::AppResult result;
      result.runtime = sim::Duration::seconds(1);
      return result;
    });
    cc->gateway().jobs().mapAppToImage("sleep", "sleeper");
    overlay.connect("client-host", "solo", linkParams);
    overlay.announceCluster("solo");
    link = overlay.topology().linkBetween("client-host", "solo");
    client = std::make_unique<core::LidcClient>(
        *overlay.topology().node("client-host"), "user", options, seed);
  }

  sim::Simulator sim;
  core::ClusterOverlay overlay;
  core::ComputeCluster* cc = nullptr;
  net::Link* link = nullptr;
  std::unique_ptr<core::LidcClient> client;
};

TEST(ClientHedgingTest, SlowAckFiresHedgeAndLoserIsCancelledNotWon) {
  core::ClientOptions options;
  options.enableHedging = true;
  options.hedgeDelayFloor = sim::Duration::millis(500);
  // 400 ms each way: the primary's ack lands at ~800 ms, after the
  // hedge timer — both legs race, the primary (sent first) wins.
  HedgeWorld world(options, net::LinkParams{sim::Duration::millis(400)});

  bool submitted = false;
  world.client->submit(sleepRequest(), [&](Result<core::SubmitResult> r) {
    ASSERT_TRUE(r.ok()) << r.status();
    submitted = true;
  });
  world.sim.run();

  EXPECT_TRUE(submitted);
  EXPECT_EQ(world.client->hedgesIssued(), 1u);
  EXPECT_EQ(world.client->hedgesWon(), 0u);      // primary won the race
  EXPECT_EQ(world.client->hedgesCancelled(), 1u);  // loser ack arrived late
  // Two legs, no retries: exactly two submit attempts in the log.
  EXPECT_EQ(world.client->submitAttemptLog().size(), 2u);
}

TEST(ClientHedgingTest, HedgeWinsWhenPrimaryInterestIsLost) {
  core::ClientOptions options;
  options.enableHedging = true;
  options.hedgeDelayFloor = sim::Duration::millis(500);
  // Start with a fully lossy link so the primary submit Interest
  // vanishes; heal the link before the hedge fires.
  net::LinkParams lossy{sim::Duration::millis(5)};
  lossy.lossRate = 1.0;
  HedgeWorld world(options, lossy);
  world.sim.scheduleAfter(sim::Duration::millis(100), [&] {
    world.link->setParams(net::LinkParams{sim::Duration::millis(5)});
  });

  std::optional<core::SubmitResult> result;
  world.client->submit(sleepRequest(), [&](Result<core::SubmitResult> r) {
    ASSERT_TRUE(r.ok()) << r.status();
    result = *r;
  });
  world.sim.run();

  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(world.client->hedgesIssued(), 1u);
  EXPECT_EQ(world.client->hedgesWon(), 1u);
  EXPECT_EQ(world.client->hedgesCancelled(), 0u);  // the primary never answered
  // The hedge rescued the attempt well before the primary's lifetime
  // would have burned a retry.
  EXPECT_EQ(world.client->submitAttemptLog().size(), 2u);
  // A hedge can never be both won and cancelled.
  EXPECT_LE(world.client->hedgesWon() + world.client->hedgesCancelled(),
            world.client->hedgesIssued());
}

TEST(ClientHedgingTest, HedgingOffIssuesNoHedges) {
  core::ClientOptions options;  // enableHedging defaults to false
  HedgeWorld world(options, net::LinkParams{sim::Duration::millis(400)});
  bool submitted = false;
  world.client->submit(sleepRequest(), [&](Result<core::SubmitResult> r) {
    submitted = r.ok();
  });
  world.sim.run();
  EXPECT_TRUE(submitted);
  EXPECT_EQ(world.client->hedgesIssued(), 0u);
  EXPECT_EQ(world.client->submitAttemptLog().size(), 1u);
}

// Gray gateway: jobs are admitted and then sit Pending forever while
// the gateway keeps answering polls. The progress watchdog converts
// that stall into a failure; with a breaker wired into placement the
// retry lands on the healthy cluster and the job completes.
TEST(ClientHedgingTest, WatchdogEscapesGrayGatewayAndFailsOver) {
  sim::Simulator sim;
  core::ClusterOverlay overlay(sim);
  overlay.addNode("client-host");
  auto addCluster = [&](const std::string& name, int linkMs) {
    core::ComputeClusterConfig config;
    config.name = name;
    config.perNode = k8s::Resources{MilliCpu::fromCores(8), ByteSize::fromGiB(16)};
    auto& cluster = overlay.addCluster(config);
    cluster.cluster().registerApp("sleeper", [](k8s::AppContext&) {
      k8s::AppResult result;
      result.runtime = sim::Duration::seconds(1);
      return result;
    });
    cluster.gateway().jobs().mapAppToImage("sleep", "sleeper");
    overlay.connect("client-host", name,
                    net::LinkParams{sim::Duration::millis(linkMs)});
    overlay.announceCluster(name);
    return &cluster;
  };
  auto* gray = addCluster("gray", 5);    // nearest: routing prefers it
  auto* good = addCluster("good", 50);
  (void)good;
  gray->gateway().setGrayFailure(true);

  core::AdaptivePlacement placement(overlay);
  core::ClientOptions options;
  options.pendingProgressTtl = sim::Duration::seconds(5);
  options.statusPollInterval = sim::Duration::millis(500);
  options.maxFailovers = 2;
  options.enableCircuitBreaker = true;
  options.breaker.failureThreshold = 1;  // one watchdog strike trips it
  options.breakerListener = [&](const std::string& cluster,
                                core::BreakerState state) {
    placement.observeBreaker(cluster, state == core::BreakerState::kOpen);
    placement.tick();
  };
  core::LidcClient client(*overlay.topology().node("client-host"), "user",
                          options, /*seed=*/7);

  std::optional<core::JobOutcome> outcome;
  client.runToCompletion(sleepRequest(), [&](Result<core::JobOutcome> r) {
    ASSERT_TRUE(r.ok()) << r.status();
    outcome = *r;
  });
  sim.run();

  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->finalStatus.state, k8s::JobState::kCompleted);
  EXPECT_EQ(outcome->finalStatus.cluster, "good");
  EXPECT_GE(outcome->failovers, 1);
  EXPECT_GE(client.watchdogTimeouts(), 1u);
  EXPECT_GE(client.breakerTrips(), 1u);
  EXPECT_GE(gray->gateway().counters().grayAdmitted, 1u);
  EXPECT_TRUE(placement.breakerOpen("gray"));
}

/// A runToCompletion() callback that counts its own copies and, per
/// job, its calls. It has no move constructor, so a move counts too.
struct CountingCallback {
  CountingCallback(std::vector<int>* calls, int* copies, std::size_t job)
      : calls(calls), copies(copies), job(job) {}
  CountingCallback(const CountingCallback& other)
      : calls(other.calls), copies(other.copies), job(other.job) {
    ++*copies;
  }
  CountingCallback& operator=(const CountingCallback&) = delete;
  void operator()(Result<core::JobOutcome>) const { ++(*calls)[job]; }

  std::vector<int>* calls;
  int* copies;
  std::size_t job;
};

// Every defence on over a slow, lossy link: hedges race, polls time
// out, breakers and the watchdog watch. Each job still reports exactly
// once, and its callback is stored once: the only copy is the one that
// builds the std::function.
TEST(ClientHedgingTest, OutcomeCallbackRunsOnceAndIsNeverCopied) {
  core::ClientOptions options;
  options.enableHedging = true;
  options.enableCircuitBreaker = true;
  options.pendingProgressTtl = sim::Duration::seconds(30);
  net::LinkParams slow{sim::Duration::millis(400)};
  slow.lossRate = 0.05;
  HedgeWorld world(options, slow);

  constexpr std::size_t kJobs = 20;
  std::vector<int> calls(kJobs, 0);
  int copies = 0;
  for (std::size_t job = 0; job < kJobs; ++job) {
    world.client->runToCompletion(sleepRequest(),
                                  CountingCallback(&calls, &copies, job));
  }
  world.sim.run();

  for (std::size_t job = 0; job < kJobs; ++job) {
    EXPECT_EQ(calls[job], 1) << "job " << job;
  }
  EXPECT_LE(copies, static_cast<int>(kJobs));
  EXPECT_GE(world.client->hedgesIssued(), 1u);
}

// A health steer-off must not reserve a half-open breaker's probe slot:
// that probe would never report an outcome, so the breaker would refuse
// every later ack from the cluster, and each of those jobs would burn a
// failover.
TEST(ClientHedgingTest, HealthSteerOffLeavesHalfOpenProbeFree) {
  sim::Simulator sim;
  core::ClusterOverlay overlay(sim);
  overlay.addNode("client-host");
  core::ComputeClusterConfig config;
  config.name = "a";
  config.perNode = k8s::Resources{MilliCpu::fromCores(8), ByteSize::fromGiB(16)};
  auto& cluster = overlay.addCluster(config);
  cluster.cluster().registerApp("sleeper", [](k8s::AppContext&) {
    k8s::AppResult result;
    result.runtime = sim::Duration::seconds(1);
    return result;
  });
  cluster.cluster().registerApp("crasher", [](k8s::AppContext&) {
    k8s::AppResult result;
    result.runtime = sim::Duration::seconds(1);
    result.status = Status::Internal("boom");
    return result;
  });
  cluster.gateway().jobs().mapAppToImage("sleep", "sleeper");
  cluster.gateway().jobs().mapAppToImage("crash", "crasher");
  overlay.connect("client-host", "a", net::LinkParams{sim::Duration::millis(5)});
  overlay.announceCluster("a");

  bool degraded = false;
  core::ClientOptions options;
  options.maxFailovers = 1;
  options.enableCircuitBreaker = true;
  options.breaker.failureThreshold = 1;
  options.breaker.openDuration = sim::Duration::seconds(1);
  options.breaker.openJitter = 0.0;
  options.minClusterHealth = 0.5;
  options.healthProvider = [&](const std::string& name) {
    if (!degraded) return 1.0;
    overlay.withdrawCluster(name);  // so the failover finds no route
    return 0.1;
  };
  core::LidcClient client(*overlay.topology().node("client-host"), "user",
                          options, /*seed=*/7);
  auto runJob = [&](core::ComputeRequest request) {
    std::optional<Result<core::JobOutcome>> outcome;
    client.runToCompletion(std::move(request),
                           [&](Result<core::JobOutcome> r) { outcome = std::move(r); });
    sim.run();
    EXPECT_TRUE(outcome.has_value());
    return outcome.value_or(Status::Internal("no callback"));
  };

  // Trip the breaker, then let its open window pass.
  core::ComputeRequest crash = sleepRequest();
  crash.app = "crash";
  const Result<core::JobOutcome> crashed = runJob(crash);
  ASSERT_TRUE(crashed.ok()) << crashed.status();
  EXPECT_EQ(crashed->finalStatus.state, k8s::JobState::kFailed);
  EXPECT_GE(client.breakerTrips(), 1u);
  sim.runUntil(sim.now() + sim::Duration::seconds(2));

  // Degraded: the health gate steers the job off and the failover finds
  // no route.
  degraded = true;
  EXPECT_FALSE(runJob(sleepRequest()).ok());

  // Healthy again: the breaker's half-open probe goes to the next job.
  degraded = false;
  overlay.announceCluster("a");
  const Result<core::JobOutcome> healthy = runJob(sleepRequest());
  ASSERT_TRUE(healthy.ok()) << healthy.status();
  EXPECT_EQ(healthy->finalStatus.state, k8s::JobState::kCompleted);
  EXPECT_EQ(healthy->failovers, 0);
  EXPECT_EQ(client.breakerSteered(), 0u);
}

}  // namespace
}  // namespace lidc
