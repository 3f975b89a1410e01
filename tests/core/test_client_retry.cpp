// Client-side recovery machinery in isolation: exponential backoff with
// seeded jitter, the nack/timeout retry budget, the per-request deadline,
// and the poll-failure budget. The backoff schedule must be a pure
// function of the client seed — same seed, identical attempt times;
// different seed, a visibly different (jittered) schedule.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <vector>

#include "core/client.hpp"
#include "core/overlay.hpp"

namespace lidc {
namespace {

core::ComputeRequest sleepRequest() {
  core::ComputeRequest request;
  request.app = "sleep";
  request.cpu = MilliCpu::fromCores(1);
  request.memory = ByteSize::fromGiB(1);
  return request;
}

/// A client alone on a routeless node: every submit is nacked kNoRoute
/// (retryable), so the attempt log records the full backoff schedule.
struct NoRouteWorld {
  NoRouteWorld(core::ClientOptions options, std::uint64_t seed) {
    forwarder = &topology.addNode("lonely-host");
    client = std::make_unique<core::LidcClient>(*forwarder, "user", options, seed);
  }

  /// Submits once and drains the simulation; returns the final error.
  Status submitAndDrain() {
    std::optional<Status> result;
    client->submit(sleepRequest(), [&](Result<core::SubmitResult> r) {
      ASSERT_FALSE(r.ok());
      result = r.status();
    });
    sim.run();
    EXPECT_TRUE(result.has_value());
    return result.value_or(Status::Internal("no callback"));
  }

  sim::Simulator sim;
  net::Topology topology{sim};
  ndn::Forwarder* forwarder = nullptr;
  std::unique_ptr<core::LidcClient> client;
};

core::ClientOptions retryOptions() {
  core::ClientOptions options;
  options.maxSubmitRetries = 4;
  options.backoffInitial = sim::Duration::millis(100);
  options.backoffMax = sim::Duration::seconds(2);
  return options;
}

TEST(ClientRetryTest, RetryableNackExhaustsFullBudget) {
  NoRouteWorld world(retryOptions(), /*seed=*/7);
  const Status error = world.submitAndDrain();
  EXPECT_EQ(error.code(), StatusCode::kUnavailable);
  EXPECT_NE(error.message().find("5 attempts"), std::string::npos) << error;
  // One initial attempt + maxSubmitRetries retries, all logged.
  EXPECT_EQ(world.client->submitAttemptLog().size(), 5u);
}

TEST(ClientRetryTest, BackoffGapsGrowExponentiallyWithinJitterBounds) {
  NoRouteWorld world(retryOptions(), /*seed=*/7);
  world.submitAndDrain();
  const auto& log = world.client->submitAttemptLog();
  ASSERT_EQ(log.size(), 5u);
  for (std::size_t i = 0; i + 1 < log.size(); ++i) {
    const double gap = (log[i + 1] - log[i]).toSeconds();
    const double base = std::min(0.1 * std::pow(2.0, static_cast<double>(i)), 2.0);
    // Gap = jittered backoff + nack round-trip (local, ~0).
    EXPECT_GE(gap, base * 0.8) << "attempt " << i;
    EXPECT_LE(gap, base * 1.2 + 0.01) << "attempt " << i;
  }
}

TEST(ClientRetryTest, SameSeedGivesIdenticalSchedule) {
  NoRouteWorld first(retryOptions(), /*seed=*/42);
  const Status errorA = first.submitAndDrain();
  NoRouteWorld second(retryOptions(), /*seed=*/42);
  const Status errorB = second.submitAndDrain();

  ASSERT_EQ(first.client->submitAttemptLog().size(),
            second.client->submitAttemptLog().size());
  for (std::size_t i = 0; i < first.client->submitAttemptLog().size(); ++i) {
    EXPECT_EQ(first.client->submitAttemptLog()[i].toNanos(),
              second.client->submitAttemptLog()[i].toNanos())
        << "attempt " << i;
  }
  EXPECT_EQ(errorA.code(), errorB.code());
  EXPECT_EQ(errorA.message(), errorB.message());
}

TEST(ClientRetryTest, DifferentSeedsJitterTheSchedule) {
  NoRouteWorld first(retryOptions(), /*seed=*/42);
  first.submitAndDrain();
  NoRouteWorld second(retryOptions(), /*seed=*/43);
  second.submitAndDrain();

  const auto& logA = first.client->submitAttemptLog();
  const auto& logB = second.client->submitAttemptLog();
  ASSERT_EQ(logA.size(), logB.size());
  bool anyDiffer = false;
  for (std::size_t i = 0; i < logA.size(); ++i) {
    if (logA[i].toNanos() != logB[i].toNanos()) anyDiffer = true;
  }
  EXPECT_TRUE(anyDiffer);
}

TEST(ClientRetryTest, DeadlineCutsRetriesShort) {
  auto options = retryOptions();
  options.maxSubmitRetries = 50;  // the deadline must bind first
  options.deadline = sim::Duration::seconds(1);
  NoRouteWorld world(options, /*seed=*/7);

  const Status error = world.submitAndDrain();
  EXPECT_EQ(error.code(), StatusCode::kTimeout);
  EXPECT_NE(error.message().find("deadline"), std::string::npos) << error;
  EXPECT_LT(world.client->submitAttemptLog().size(), 10u);
  EXPECT_LE(world.sim.now().toNanos(), sim::Duration::seconds(2).toNanos());
}

/// One healthy single-node cluster; used for the poll-budget tests.
struct ClusterWorld {
  explicit ClusterWorld(core::ClientOptions options, std::uint64_t seed = 7)
      : overlay(sim) {
    overlay.addNode("client-host");
    core::ComputeClusterConfig config;
    config.name = "solo";
    config.perNode = k8s::Resources{MilliCpu::fromCores(4), ByteSize::fromGiB(8)};
    cc = &overlay.addCluster(config);
    cc->cluster().registerApp("sleeper", [](k8s::AppContext&) {
      k8s::AppResult result;
      result.runtime = sim::Duration::seconds(30);
      return result;
    });
    cc->gateway().jobs().mapAppToImage("sleep", "sleeper");
    overlay.connect("client-host", "solo", net::LinkParams{sim::Duration::millis(5)});
    overlay.announceCluster("solo");
    client = std::make_unique<core::LidcClient>(
        *overlay.topology().node("client-host"), "user", options, seed);
  }

  sim::Simulator sim;
  core::ClusterOverlay overlay;
  core::ComputeCluster* cc = nullptr;
  std::unique_ptr<core::LidcClient> client;
};

TEST(ClientRetryTest, StatusNacksCountAgainstThePollBudget) {
  core::ClientOptions options;
  options.statusPollInterval = sim::Duration::millis(500);
  options.maxStatusPollFailures = 3;
  options.maxFailovers = 0;  // isolate the poll budget
  ClusterWorld world(options);

  std::optional<Status> error;
  sim::Time erroredAt;
  world.client->runToCompletion(sleepRequest(), [&](Result<core::JobOutcome> r) {
    ASSERT_FALSE(r.ok());
    error = r.status();
    erroredAt = world.sim.now();
  });
  // Let the submit land, then withdraw the cluster's routes: every later
  // status poll is nacked kNoRoute instead of timing out.
  world.sim.runUntil(world.sim.now() + sim::Duration::seconds(2));
  world.overlay.withdrawCluster("solo");
  world.sim.run();

  ASSERT_TRUE(error.has_value());
  // The nacked polls must burn the same budget as timed-out ones and
  // surface as the poll error, well before the 30 s job would finish.
  EXPECT_EQ(error->code(), StatusCode::kUnavailable);
  EXPECT_NE(error->message().find("status query nacked"), std::string::npos)
      << *error;
  EXPECT_LE(erroredAt.toNanos(), sim::Duration::seconds(10).toNanos());
}

TEST(ClientRetryTest, FailedJobWithoutFailoverBudgetReturnsFailedOutcome) {
  core::ClientOptions options;
  options.statusPollInterval = sim::Duration::millis(500);
  options.maxFailovers = 0;
  ClusterWorld world(options);
  world.cc->cluster().registerApp("boom", [](k8s::AppContext&) {
    k8s::AppResult result;
    result.runtime = sim::Duration::seconds(1);
    result.status = Status::Internal("segfault");
    return result;
  });
  world.cc->gateway().jobs().mapAppToImage("crashy", "boom");

  auto request = sleepRequest();
  request.app = "crashy";
  std::optional<core::JobOutcome> outcome;
  world.client->runToCompletion(request, [&](Result<core::JobOutcome> r) {
    ASSERT_TRUE(r.ok()) << r.status();
    outcome = *r;
  });
  world.sim.run();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->finalStatus.state, k8s::JobState::kFailed);
  EXPECT_EQ(outcome->failovers, 0);
}

}  // namespace
}  // namespace lidc
