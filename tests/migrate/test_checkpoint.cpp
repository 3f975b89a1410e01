// CheckpointManager unit tests: periodic epoch writes sampled from the
// app's incremental-progress hook, manifest freshness, retention,
// cost-aware endgame skipping, and the replica-plane hookup (catalog
// entries + placement heat) that lets the ordinary RepairLoop keep a
// survivor copy of live checkpoints.
#include "migrate/checkpoint.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>

#include "common/hash.hpp"
#include "core/checkpoint_format.hpp"
#include "core/client.hpp"
#include "core/overlay.hpp"
#include "replica/catalog.hpp"
#include "replica/policy.hpp"

namespace lidc::migrate {
namespace {

/// One cluster + client; the "trainer" app runs 55 s and exposes a
/// checkpoint plan whose payload grows with progress.
struct CheckpointRig {
  CheckpointRig() {
    overlay = std::make_unique<core::ClusterOverlay>(sim);
    overlay->addNode("client-host");
    core::ComputeClusterConfig config;
    config.name = "east";
    cc = &overlay->addCluster(config);
    overlay->connect("client-host", "east",
                     net::LinkParams{sim::Duration::millis(5)});
    overlay->announceCluster("east");
    cc->cluster().registerApp("trainer", [](k8s::AppContext&) {
      k8s::AppResult result;
      result.runtime = sim::Duration::seconds(55);
      result.checkpointPlan = [](double progress) {
        const auto size = static_cast<std::size_t>(100.0 + progress * 900.0);
        return std::vector<std::uint8_t>(size, 0x5a);
      };
      return result;
    });
    cc->gateway().jobs().mapAppToImage("train", "trainer");
    client = std::make_unique<core::LidcClient>(
        *overlay->topology().node("client-host"), "user");
  }

  /// Submits one trainer job and runs the world to quiescence.
  std::string runJob() {
    core::ComputeRequest request;
    request.app = "train";
    request.cpu = MilliCpu::fromCores(1);
    request.memory = ByteSize::fromGiB(1);
    std::optional<Result<core::SubmitResult>> ack;
    client->submit(request,
                   [&ack](Result<core::SubmitResult> r) { ack = std::move(r); });
    sim.run();
    EXPECT_TRUE(ack.has_value() && ack->ok());
    return ack->ok() ? (*ack)->jobId : std::string{};
  }

  sim::Simulator sim;
  std::unique_ptr<core::ClusterOverlay> overlay;
  core::ComputeCluster* cc = nullptr;
  std::unique_ptr<core::LidcClient> client;
};

TEST(CheckpointManagerTest, WritesPeriodicEpochsWithManifestAndRetention) {
  CheckpointRig rig;
  CheckpointOptions options;
  options.interval = sim::Duration::seconds(10);
  CheckpointManager manager(rig.cc->cluster(), rig.cc->store(), options);

  const std::string jobId = rig.runJob();
  ASSERT_FALSE(jobId.empty());

  // 55 s runtime, 10 s cadence: epochs at t=10..50; no write at or past
  // completion.
  EXPECT_EQ(manager.counters().plansTracked, 1u);
  EXPECT_EQ(manager.counters().written, 5u);
  EXPECT_EQ(manager.counters().skippedEndgame, 0u);
  EXPECT_GT(manager.totalOverhead().toSeconds(), 0.0);

  // Retention keeps only the last two epochs in the lake.
  for (std::uint64_t epoch = 1; epoch <= 3; ++epoch) {
    EXPECT_FALSE(rig.cc->store().contains(core::makeCkptName(jobId, epoch)))
        << epoch;
  }
  for (std::uint64_t epoch = 4; epoch <= 5; ++epoch) {
    EXPECT_TRUE(rig.cc->store().contains(core::makeCkptName(jobId, epoch)))
        << epoch;
  }

  // The manifest names the latest epoch and pins its digest.
  const auto manifestBytes =
      rig.cc->store().get(core::makeCkptManifestName(jobId));
  ASSERT_TRUE(manifestBytes.has_value());
  const auto manifest = core::decodeCkptManifest(
      std::string(manifestBytes->begin(), manifestBytes->end()));
  ASSERT_TRUE(manifest.ok()) << manifest.status();
  EXPECT_EQ(manifest->jobId, jobId);
  EXPECT_EQ(manifest->epoch, 5u);
  const auto payload = rig.cc->store().get(core::makeCkptName(jobId, 5));
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(manifest->bytes, payload->size());
  EXPECT_EQ(manifest->digest, fnv1a(*payload));
  EXPECT_GT(manifest->progressPermille, 0u);
  EXPECT_LE(manifest->progressPermille, 1000u);

  // Deterministic epoch trace narrates each write.
  EXPECT_NE(manager.epochLog().find("ckpt job=" + jobId + " epoch=1"),
            std::string::npos);
  EXPECT_NE(manager.epochLog().find("epoch=5"), std::string::npos);
}

TEST(CheckpointManagerTest, CostAwareCadenceSkipsTheEndgame) {
  CheckpointRig rig;
  CheckpointOptions options;
  options.interval = sim::Duration::seconds(10);
  // A write modeled at 7 s: at t=50 only 5 s of the job remain, so the
  // endgame recompute is cheaper than the I/O and the write is skipped.
  options.writeFixedCost = sim::Duration::seconds(7);
  CheckpointManager manager(rig.cc->cluster(), rig.cc->store(), options);

  const std::string jobId = rig.runJob();
  ASSERT_FALSE(jobId.empty());
  EXPECT_EQ(manager.counters().written, 4u);
  EXPECT_EQ(manager.counters().skippedEndgame, 1u);
  EXPECT_FALSE(rig.cc->store().contains(core::makeCkptName(jobId, 5)));
  EXPECT_NE(manager.epochLog().find("skip-endgame"), std::string::npos);
}

TEST(CheckpointManagerTest, RegistersEpochsInCatalogAndHeatsPolicy) {
  CheckpointRig rig;
  replica::ReplicaCatalog catalog(rig.cc->forwarder(), "east");
  replica::PlacementPolicy policy;
  CheckpointOptions options;
  options.interval = sim::Duration::seconds(10);
  CheckpointManager manager(rig.cc->cluster(), rig.cc->store(), options,
                            &catalog, &policy);

  const std::string jobId = rig.runJob();
  ASSERT_FALSE(jobId.empty());

  // Live epochs (and the manifest) are catalog-visible, so directory
  // scrapes see them; retired epochs were erased with their objects.
  EXPECT_NE(catalog.entry(core::makeCkptName(jobId, 5)), nullptr);
  EXPECT_NE(catalog.entry(core::makeCkptManifestName(jobId)), nullptr);
  EXPECT_EQ(catalog.entry(core::makeCkptName(jobId, 1)), nullptr);

  // One write's heat already crosses the hot threshold: the repair loop
  // will want hotReplicas copies of the live checkpoint.
  EXPECT_EQ(policy.targetReplicas(core::makeCkptName(jobId, 5)), 2u);
}

TEST(CheckpointManagerTest, JobsWithoutAPlanAreIgnored) {
  CheckpointRig rig;
  rig.cc->cluster().registerApp("plain", [](k8s::AppContext&) {
    k8s::AppResult result;
    result.runtime = sim::Duration::seconds(30);
    return result;
  });
  rig.cc->gateway().jobs().mapAppToImage("noop", "plain");
  CheckpointManager manager(rig.cc->cluster(), rig.cc->store());

  core::ComputeRequest request;
  request.app = "noop";
  request.cpu = MilliCpu::fromCores(1);
  request.memory = ByteSize::fromGiB(1);
  std::optional<Result<core::SubmitResult>> ack;
  rig.client->submit(request,
                     [&ack](Result<core::SubmitResult> r) { ack = std::move(r); });
  rig.sim.run();
  ASSERT_TRUE(ack.has_value() && ack->ok());
  EXPECT_EQ(manager.counters().plansTracked, 0u);
  EXPECT_EQ(manager.counters().written, 0u);
  EXPECT_TRUE(manager.epochLog().empty());
}

}  // namespace
}  // namespace lidc::migrate
