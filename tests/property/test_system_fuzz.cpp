// System-level fuzz: a random interleaving of job submissions (valid
// and invalid), status polls, data fetches, cluster failures/recoveries
// and membership churn against a 3-cluster overlay, plus full jobs run
// by a second client with every client-side defence on (hedging,
// breakers, the Pending watchdog, a health gate and a deadline).
// Invariants:
//   - every client callback eventually fires exactly once (no lost or
//     duplicated completions),
//   - the simulation drains (no runaway event loops),
//   - cluster resource accounting returns to zero once all jobs end,
//   - the run is deterministic for a given seed.
#include <gtest/gtest.h>

#include "core/client.hpp"
#include "core/overlay.hpp"

namespace lidc {
namespace {

struct FuzzOutcome {
  int submitted = 0;
  int submitResolved = 0;
  int fetches = 0;
  int fetchResolved = 0;
  int infoQueries = 0;
  int infoResolved = 0;
  std::map<std::string, int> placements;
  /// Per runToCompletion() on the defended client: times its callback
  /// fired, and what it reported.
  std::vector<int> runCalls;
  std::vector<std::string> runOutcomes;
};

FuzzOutcome runFuzz(std::uint64_t seed) {
  Rng rng(seed);
  sim::Simulator sim;
  core::ClusterOverlay overlay(sim);
  overlay.addNode("client-host");

  std::vector<std::string> clusterNames{"c0", "c1", "c2"};
  for (std::size_t i = 0; i < clusterNames.size(); ++i) {
    core::ComputeClusterConfig config;
    config.name = clusterNames[i];
    config.perNode = k8s::Resources{MilliCpu::fromCores(16), ByteSize::fromGiB(32)};
    auto& cluster = overlay.addCluster(config);
    cluster.cluster().registerApp("sleeper", [&rng](k8s::AppContext&) {
      k8s::AppResult result;
      result.runtime = sim::Duration::seconds(5 + rng.uniform(60));
      if (rng.bernoulli(0.1)) result.status = Status::Internal("flaky");
      result.resultPath = "/ndn/k8s/data/results/r";
      return result;
    });
    cluster.gateway().jobs().mapAppToImage("sleep", "sleeper");
    (void)cluster.store().putText(ndn::Name("/ndn/k8s/data/seeded-object"),
                                  std::string(2'000, 'x'));
    overlay.connect("client-host", config.name,
                    net::LinkParams{sim::Duration::millis(5 + 10 * i)});
    overlay.announceCluster(config.name);
  }

  core::LidcClient client(*overlay.topology().node("client-host"), "fuzzer",
                          core::ClientOptions{}, seed);
  core::ClientOptions defences;
  defences.enableHedging = true;
  defences.hedgeDelayFloor = sim::Duration::millis(30);
  defences.enableCircuitBreaker = true;
  defences.breaker.failureThreshold = 1;
  defences.pendingProgressTtl = sim::Duration::seconds(10);
  defences.healthProvider = [](const std::string& cluster) {
    return cluster == "c1" ? 0.4 : 1.0;
  };
  defences.minClusterHealth = 0.5;
  defences.deadline = sim::Duration::seconds(120);
  core::LidcClient defended(*overlay.topology().node("client-host"), "defended",
                            defences, seed + 1);
  FuzzOutcome outcome;
  std::map<std::string, bool> failedClusters;

  for (int op = 0; op < 150; ++op) {
    const auto dice = rng.uniform(100);
    if (dice < 45) {
      // Submit a job (sometimes malformed).
      ++outcome.submitted;
      core::ComputeRequest request;
      request.app = rng.bernoulli(0.9) ? "sleep" : "no-such-app";
      request.cpu = MilliCpu::fromCores(1 + rng.uniform(4));
      request.memory = ByteSize::fromGiB(1 + rng.uniform(4));
      client.submit(request, [&outcome](Result<core::SubmitResult> r) {
        ++outcome.submitResolved;
        if (r.ok()) ++outcome.placements[r->cluster];
      });
    } else if (dice < 60) {
      // Fetch an object that exists everywhere (or a ghost).
      ++outcome.fetches;
      const char* object =
          rng.bernoulli(0.8) ? "/ndn/k8s/data/seeded-object" : "/ndn/k8s/data/ghost";
      client.fetchData(ndn::Name(object),
                       [&outcome](Result<std::vector<std::uint8_t>>) {
                         ++outcome.fetchResolved;
                       });
    } else if (dice < 72) {
      // Capability query (sometimes for a bogus cluster).
      ++outcome.infoQueries;
      const std::string target = rng.bernoulli(0.8)
                                     ? clusterNames[rng.uniform(3)]
                                     : std::string("phantom");
      client.queryClusterInfo(target, [&outcome](Result<core::ClusterInfo>) {
        ++outcome.infoResolved;
      });
    } else if (dice < 82) {
      // Fail or recover a random cluster.
      const std::string victim = clusterNames[rng.uniform(3)];
      if (failedClusters[victim]) {
        overlay.recoverCluster(victim);
        failedClusters[victim] = false;
      } else {
        overlay.failCluster(victim);
        failedClusters[victim] = true;
      }
    } else if (dice < 92) {
      // Withdraw/re-announce (membership churn without link changes).
      const std::string victim = clusterNames[rng.uniform(3)];
      if (!failedClusters[victim]) {
        overlay.withdrawCluster(victim);
        overlay.announceCluster(victim);
      }
    } else if (dice < 96) {
      // Run a job to its end through every client-side defence.
      const std::size_t run = outcome.runCalls.size();
      outcome.runCalls.push_back(0);
      outcome.runOutcomes.emplace_back();
      core::ComputeRequest request;
      request.app = rng.bernoulli(0.9) ? "sleep" : "no-such-app";
      request.cpu = MilliCpu::fromCores(1 + rng.uniform(4));
      request.memory = ByteSize::fromGiB(1 + rng.uniform(4));
      defended.runToCompletion(request, [&outcome, run](Result<core::JobOutcome> r) {
        ++outcome.runCalls[run];
        outcome.runOutcomes[run] =
            r.ok() ? r->finalStatus.cluster + " " +
                         std::string(k8s::jobStateName(r->finalStatus.state)) +
                         " failovers=" + std::to_string(r->failovers)
                   : r.status().toString();
      });
    } else {
      // Idle gap.
    }
    sim.runUntil(sim.now() + sim::Duration::seconds(rng.uniform(8)));
  }

  // Recover everything and drain.
  for (const auto& name : clusterNames) {
    if (failedClusters[name]) overlay.recoverCluster(name);
  }
  sim.run();

  // Resource accounting: all jobs ended, everything returned.
  for (const auto& name : clusterNames) {
    auto& cluster = overlay.cluster(name)->cluster();
    EXPECT_EQ(cluster.runningJobCount(), 0u) << name;
    EXPECT_EQ(cluster.totalAllocated(), k8s::Resources{}) << name;
  }
  return outcome;
}

class SystemFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SystemFuzz, EveryCallbackFiresAndSimulationDrains) {
  const FuzzOutcome outcome = runFuzz(GetParam());
  EXPECT_EQ(outcome.submitResolved, outcome.submitted);
  EXPECT_EQ(outcome.fetchResolved, outcome.fetches);
  EXPECT_EQ(outcome.infoResolved, outcome.infoQueries);
  EXPECT_GT(outcome.submitted, 0);
  for (std::size_t run = 0; run < outcome.runCalls.size(); ++run) {
    EXPECT_EQ(outcome.runCalls[run], 1) << "run " << run;
  }
}

TEST_P(SystemFuzz, DeterministicPerSeed) {
  const FuzzOutcome a = runFuzz(GetParam());
  const FuzzOutcome b = runFuzz(GetParam());
  EXPECT_EQ(a.submitResolved, b.submitResolved);
  EXPECT_EQ(a.placements, b.placements);
  EXPECT_EQ(a.fetchResolved, b.fetchResolved);
  EXPECT_EQ(a.runOutcomes, b.runOutcomes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SystemFuzz,
                         ::testing::Values(1001, 2002, 3003, 4004, 5005, 6006));

}  // namespace
}  // namespace lidc
