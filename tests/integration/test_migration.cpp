// End-to-end checkpoint/restore & cross-cluster migration (DESIGN.md
// §14): a long MiniBlast alignment checkpoints on cadence into the
// /ndn/k8s/ckpt namespace, the ordinary replica plane (catalog →
// directory → repair loop) keeps a survivor copy, and when the cluster
// running the job crashes mid-flight the MigrationCoordinator resumes
// it on the survivor from the latest replicated checkpoint:
//
//   * the poller's status name stays valid throughout — the target
//     gateway aliases the dead cluster's job id, so waitForCompletion
//     rides through the crash without exhausting its failure budget,
//   * recomputed work is bounded by one checkpoint interval,
//   * the no-failure path pays < 5% checkpoint overhead,
//   * the whole incident replays byte-identically from the same seed.
//
// Plus the restore-failure alert loop: wrong-digest restore attempts
// fall back to cold starts, count ckptRestoreFailures, and trip an
// AlertEngine threshold rule.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "common/hash.hpp"
#include "core/checkpoint_format.hpp"
#include "core/client.hpp"
#include "core/overlay.hpp"
#include "core/semantic_name.hpp"
#include "migrate/checkpoint.hpp"
#include "migrate/coordinator.hpp"
#include "replica/directory.hpp"
#include "replica/policy.hpp"
#include "replica/repair.hpp"
#include "replica/scheduler.hpp"
#include "sim/chaos.hpp"
#include "telemetry/alerts.hpp"

namespace lidc {
namespace {

constexpr double kCkptIntervalSeconds = 300.0;  // 5 min cadence
constexpr double kCrashAtSeconds = 750.0;       // mid-epoch-3, after 2 writes

struct ScenarioResult {
  Result<core::JobStatusSnapshot> finalStatus{
      Status::Internal("never settled")};
  std::string placedOn;
  sim::Duration observedMakespan;  // submit -> poller saw terminal
  migrate::MigrationCounters counters;
  std::string decisions;              // coordinator decision log
  double ckptOverheadSeconds = 0.0;   // east manager's modeled write cost
  std::uint64_t survivorRestores = 0;     // west gateway ckptRestores
  std::uint64_t survivorAliasServed = 0;  // west gateway aliasServed
  std::uint64_t repairsCompleted = 0;
};

/// One full run: a rice-sample MiniBlast job lands on east; with
/// `crash`, every east node hard-fails and east's routes vanish at
/// kCrashAtSeconds while the user keeps polling the original status
/// name throughout.
ScenarioResult runScenario(bool crash) {
  sim::Simulator sim;
  core::ClusterOverlay overlay(sim);
  genomics::DatasetCatalog catalog(/*scale=*/0.05);
  overlay.addNode("client-host");
  overlay.addNode("ops-host");

  auto addCluster = [&](const std::string& name) -> core::ComputeCluster* {
    core::ComputeClusterConfig config;
    config.name = name;
    // 10x the measured testbed throughput so the rice alignment runs
    // ~minutes of simulated time instead of ~8 h.
    config.blast.throughputBytesPerSec = 1.2e6;
    auto& cc = overlay.addCluster(config);
    cc.loadGenomicsDatasets(catalog);
    cc.enableCheckpointServing();
    return &cc;
  };
  auto* east = addCluster("east");
  auto* west = addCluster("west");
  overlay.connect("client-host", "east",
                  net::LinkParams{sim::Duration::millis(5)});
  overlay.connect("client-host", "west",
                  net::LinkParams{sim::Duration::millis(30)});
  overlay.connect("ops-host", "east", net::LinkParams{sim::Duration::millis(5)});
  overlay.connect("ops-host", "west", net::LinkParams{sim::Duration::millis(5)});
  overlay.connect("east", "west", net::LinkParams{sim::Duration::millis(10)});
  overlay.announceCluster("east");
  overlay.announceCluster("west");

  // Replica plane: checkpoints written on east register in its catalog
  // and heat the shared policy; the directory sees them and the repair
  // loop replicates them onto west — ordinary repair machinery, no
  // migration-specific transfers.
  replica::ReplicaCatalog eastCatalog(east->forwarder(), "east");
  replica::ReplicaCatalog westCatalog(west->forwarder(), "west");
  replica::PlacementPolicy policy;
  migrate::CheckpointOptions ckptOptions;
  ckptOptions.interval = sim::Duration::seconds(kCkptIntervalSeconds);
  migrate::CheckpointManager eastCkpt(east->cluster(), east->store(),
                                      ckptOptions, &eastCatalog, &policy);
  migrate::CheckpointManager westCkpt(west->cluster(), west->store(),
                                      ckptOptions, &westCatalog, &policy);
  replica::TransferScheduler eastSched(east->forwarder(), east->store(), "east",
                                       replica::TransferOptions{},
                                       &eastCatalog);
  replica::TransferScheduler westSched(west->forwarder(), west->store(), "west",
                                       replica::TransferOptions{},
                                       &westCatalog);
  replica::ReplicaDirectory directory(*overlay.topology().node("ops-host"));
  directory.watchCluster("east");
  directory.watchCluster("west");
  replica::RepairLoop repair(sim, directory, policy);
  repair.addScheduler("east", &eastSched);
  repair.addScheduler("west", &westSched);
  directory.start();
  repair.start();

  core::LidcClient user(*overlay.topology().node("client-host"), "user");
  core::LidcClient ops(*overlay.topology().node("ops-host"), "ops");
  migrate::MigrationCoordinator coordinator(ops, /*placement=*/nullptr,
                                            &directory);
  coordinator.addScheduler("east", &eastSched);
  coordinator.addScheduler("west", &westSched);
  coordinator.routeInstaller = [&overlay](const std::string& oldCluster,
                                          const std::string& oldJobId,
                                          const std::string& target) {
    overlay.topology().installRoutesTo(
        core::makeStatusName(oldCluster, oldJobId), target);
  };

  core::ComputeRequest request;
  request.app = "BLAST";
  request.cpu = MilliCpu::fromCores(1);
  request.memory = ByteSize::fromGiB(4);
  request.params["srr_id"] = "SRR2931415";
  std::optional<Result<core::SubmitResult>> ack;
  user.submit(request,
              [&ack](Result<core::SubmitResult> r) { ack = std::move(r); });
  sim.runUntil(sim::Time() + sim::Duration::seconds(2));
  EXPECT_TRUE(ack.has_value() && ack->ok());
  ScenarioResult out;
  if (!ack.has_value() || !ack->ok()) return out;
  out.placedOn = (*ack)->cluster;
  coordinator.track(**ack, request);

  // The user polls the ORIGINAL status name for the whole incident.
  std::optional<Result<core::JobStatusSnapshot>> final;
  sim::Time doneAt;
  user.waitForCompletion(ndn::Name((*ack)->statusName),
                         [&final, &doneAt, &sim](
                             Result<core::JobStatusSnapshot> r) {
                           final = std::move(r);
                           doneAt = sim.now();
                         });

  sim::ChaosEngine chaos(sim);
  if (crash) {
    const sim::Time crashAt =
        sim::Time() + sim::Duration::seconds(kCrashAtSeconds);
    // Pods die AND the cluster falls off the network at the same
    // instant: routes withdrawn, links dark — status polls nack fast.
    chaos.clusterCrash("east-crash", east->cluster(), crashAt);
    chaos.custom("east-blackout", crashAt,
                 [&overlay] { overlay.failCluster("east"); });
  }

  sim.runUntil(sim::Time() + sim::Duration::hours(2));
  repair.stop();
  directory.stop();
  sim.run();

  EXPECT_TRUE(final.has_value());
  if (final.has_value()) out.finalStatus = *final;
  out.observedMakespan = doneAt - sim::Time();
  out.counters = coordinator.counters();
  out.decisions = coordinator.decisionLog();
  out.ckptOverheadSeconds = eastCkpt.totalOverhead().toSeconds();
  out.survivorRestores = west->gateway().counters().ckptRestores;
  out.survivorAliasServed = west->gateway().counters().aliasServed;
  out.repairsCompleted = repair.repairsCompleted();
  return out;
}

TEST(MigrationIntegrationTest, CrashedClusterJobResumesOnSurvivor) {
  // Control: no failure. The job completes on east, nothing migrates,
  // and the no-failure path's checkpoint overhead stays under the 5%
  // budget the paper-scale bench enforces.
  const ScenarioResult control = runScenario(/*crash=*/false);
  ASSERT_TRUE(control.finalStatus.ok()) << control.finalStatus.status();
  EXPECT_EQ(control.finalStatus->state, k8s::JobState::kCompleted);
  EXPECT_EQ(control.placedOn, "east");
  EXPECT_EQ(control.counters.planned, 0u) << control.decisions;
  const double fullRuntime = control.finalStatus->runtime.toSeconds();
  ASSERT_GT(fullRuntime, kCrashAtSeconds + kCkptIntervalSeconds)
      << "scenario needs a job long enough to crash mid-flight";
  EXPECT_GT(control.ckptOverheadSeconds, 0.0);
  EXPECT_LT(control.ckptOverheadSeconds, 0.05 * fullRuntime);
  // Checkpoints were replicated to the survivor even without a crash.
  EXPECT_GE(control.repairsCompleted, 1u);

  // Incident run: east dies mid-flight; the coordinator resumes the
  // job on west from the latest replicated checkpoint.
  const ScenarioResult incident = runScenario(/*crash=*/true);
  ASSERT_TRUE(incident.finalStatus.ok())
      << incident.finalStatus.status() << "\n"
      << incident.decisions;
  EXPECT_EQ(incident.finalStatus->state, k8s::JobState::kCompleted);
  // The poller's original status name was answered by west through the
  // migration alias — continuity across the crash, no client churn.
  EXPECT_EQ(incident.finalStatus->cluster, "west");
  EXPECT_GE(incident.survivorAliasServed, 1u);
  EXPECT_EQ(incident.survivorRestores, 1u);
  EXPECT_EQ(incident.counters.planned, 1u);
  EXPECT_EQ(incident.counters.completed, 1u);
  EXPECT_EQ(incident.counters.coldFallbacks, 0u);
  EXPECT_EQ(incident.counters.failed, 0u);
  EXPECT_NE(incident.decisions.find("reason=status-dark"), std::string::npos)
      << incident.decisions;

  // Recompute bound: the resumed attempt re-did at most one checkpoint
  // interval of the work already done before the crash (plus restore
  // quantization slack — the resume offset is whole reads).
  const double resumedRuntime = incident.finalStatus->runtime.toSeconds();
  const double remainingAtCrash = fullRuntime - kCrashAtSeconds;
  const double recomputed = resumedRuntime - remainingAtCrash;
  EXPECT_GE(recomputed, 0.0);
  EXPECT_LT(recomputed, kCkptIntervalSeconds + 60.0)
      << "resumed " << resumedRuntime << "s vs " << remainingAtCrash
      << "s remaining at crash (full " << fullRuntime << "s)";
  // And failover-by-restore beats failover-by-recompute: total observed
  // makespan stays well under crash + full rerun.
  EXPECT_LT(incident.observedMakespan.toSeconds(),
            kCrashAtSeconds + fullRuntime - kCkptIntervalSeconds);

  // Same seed, same incident: the decision log IS the behavior.
  const ScenarioResult replay = runScenario(/*crash=*/true);
  EXPECT_EQ(replay.decisions, incident.decisions);
  EXPECT_EQ(replay.counters.completed, incident.counters.completed);
  EXPECT_EQ(replay.finalStatus->runtime, incident.finalStatus->runtime);
}

// Wrong-digest restore attempts: the gateway refuses the resume point,
// cold-starts instead (job still completes), counts the failures, and
// the alert plane surfaces the pattern.
TEST(MigrationIntegrationTest, RestoreFailuresColdStartAndRaiseAlert) {
  sim::Simulator sim;
  core::ClusterOverlay overlay(sim);
  overlay.addNode("client-host");
  core::ComputeClusterConfig config;
  config.name = "east";
  auto& cc = overlay.addCluster(config);
  cc.enableCheckpointServing();
  cc.cluster().registerApp("sleeper", [](k8s::AppContext&) {
    k8s::AppResult result;
    result.runtime = sim::Duration::seconds(3);
    return result;
  });
  cc.gateway().jobs().mapAppToImage("sleep", "sleeper");
  overlay.connect("client-host", "east",
                  net::LinkParams{sim::Duration::millis(5)});
  overlay.announceCluster("east");
  core::LidcClient client(*overlay.topology().node("client-host"), "user");

  // A real checkpoint exists — but the pinned digest is wrong (the
  // migration plane pins what it fetched; a mismatch means the replica
  // the target holds is not the bytes the coordinator validated).
  const std::vector<std::uint8_t> payload(512, 0x11);
  ASSERT_TRUE(cc.store().put(core::makeCkptName("ghost-1", 3), payload).ok());
  const std::uint64_t badPin = fnv1a(payload) + 1;

  telemetry::AlertEngineOptions alertOptions;
  alertOptions.evaluateInterval = sim::Duration::millis(500);
  telemetry::AlertEngine alerts(sim, alertOptions);
  alerts.setValueSource([&cc](std::string_view series) -> std::optional<double> {
    if (series != "ckpt/restore_failures") return std::nullopt;
    return static_cast<double>(cc.gateway().counters().ckptRestoreFailures);
  });
  alerts.addThresholdRule("ckpt-restore-failures", "ckpt/restore_failures",
                          telemetry::AlertComparison::kAbove, 1.0,
                          /*forCount=*/2);
  alerts.start();

  int completed = 0;
  for (int i = 0; i < 3; ++i) {
    core::ComputeRequest request;
    request.app = "sleep";
    request.cpu = MilliCpu::fromCores(1);
    request.memory = ByteSize::fromGiB(1);
    // Distinct canonical names per attempt — no result-cache/dedup hits.
    request.params["attempt"] = std::to_string(i);
    request.params["ckpt"] = "ghost-1/3";
    request.params["ckpt_digest"] = std::to_string(badPin);
    request.params["ckpt_from"] = "west";
    client.runToCompletion(request, [&completed](Result<core::JobOutcome> r) {
      ASSERT_TRUE(r.ok()) << r.status();
      EXPECT_EQ(r->finalStatus.state, k8s::JobState::kCompleted);
      ++completed;
    });
    sim.runUntil(sim.now() + sim::Duration::seconds(10));
  }
  alerts.stop();
  sim.run();

  EXPECT_EQ(completed, 3);
  // Every attempt fell back to a cold start — no bogus restores.
  EXPECT_EQ(cc.gateway().counters().ckptRestoreFailures, 3u);
  EXPECT_EQ(cc.gateway().counters().ckptRestores, 0u);
  EXPECT_GE(alerts.firedTotal(), 1u);
}

}  // namespace
}  // namespace lidc
