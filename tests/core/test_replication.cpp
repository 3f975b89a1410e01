// Data replication: a freshly joined cluster stages datasets over NDN
// from whichever lake holds them through the replica plane's
// TransferScheduler, then serves compute on them locally.
#include <gtest/gtest.h>

#include "core/client.hpp"
#include "core/overlay.hpp"
#include "replica/scheduler.hpp"

namespace lidc::core {
namespace {

class ReplicationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    overlay_ = std::make_unique<ClusterOverlay>(sim_);
    overlay_->addNode("client-host");
    catalog_ = std::make_unique<genomics::DatasetCatalog>(0.05);

    seeded_ = &addCluster("seeded", 40);
    seeded_->loadGenomicsDatasets(*catalog_);

    fresh_ = &addCluster("fresh", 5);
    // note: fresh_ deliberately has NO datasets loaded; it does get the
    // magic-blast image so it *could* run BLAST if it had the data.
    genomics::installMagicBlast(fresh_->cluster(), fresh_->store(), *catalog_);
    // The fresh node joined after "seeded" was announced; refresh so it
    // learns routes to its peers' lakes.
    overlay_->refreshAnnouncements();

    client_ = std::make_unique<LidcClient>(
        *overlay_->topology().node("client-host"), "user");
  }

  /// A staging queue into the fresh cluster's lake.
  std::unique_ptr<replica::TransferScheduler> stager() {
    return std::make_unique<replica::TransferScheduler>(
        fresh_->forwarder(), fresh_->store(), fresh_->name());
  }

  /// Stages `objects` into the fresh lake; returns each one's status.
  std::vector<Status> stage(replica::TransferScheduler& scheduler,
                            const std::vector<ndn::Name>& objects) {
    std::vector<Status> statuses(objects.size(), Status::Internal("pending"));
    for (std::size_t i = 0; i < objects.size(); ++i) {
      scheduler.enqueue(objects[i], {}, [&statuses, i](Status s, std::uint64_t) {
        statuses[i] = s;
      });
    }
    sim_.run();
    return statuses;
  }

  ComputeCluster& addCluster(const std::string& name, int linkMs) {
    ComputeClusterConfig config;
    config.name = name;
    auto& cluster = overlay_->addCluster(config);
    overlay_->connect("client-host", name,
                      net::LinkParams{sim::Duration::millis(linkMs)});
    overlay_->announceCluster(name);
    return cluster;
  }

  sim::Simulator sim_;
  std::unique_ptr<ClusterOverlay> overlay_;
  std::unique_ptr<genomics::DatasetCatalog> catalog_;
  ComputeCluster* seeded_ = nullptr;
  ComputeCluster* fresh_ = nullptr;
  std::unique_ptr<LidcClient> client_;
};

TEST_F(ReplicationTest, ReplicatesObjectOverNdn) {
  auto scheduler = stager();
  const ndn::Name object("/ndn/k8s/data/human-ref");
  ASSERT_FALSE(fresh_->store().contains(object));

  const auto statuses = stage(*scheduler, {object});
  EXPECT_TRUE(statuses[0].ok()) << statuses[0];
  EXPECT_TRUE(fresh_->store().contains(object));
  // Byte-identical copies.
  EXPECT_EQ(*fresh_->store().get(object), *seeded_->store().get(object));
  EXPECT_EQ(scheduler->staged(), 1u);
  EXPECT_GT(scheduler->bytesMoved(), 0u);
}

TEST_F(ReplicationTest, AlreadyPresentIsLocalHit) {
  auto scheduler = stager();
  ASSERT_TRUE(fresh_->store().putText(ndn::Name("/ndn/k8s/data/x"), "v").ok());
  const auto statuses = stage(*scheduler, {ndn::Name("/ndn/k8s/data/x")});
  EXPECT_TRUE(statuses[0].ok()) << statuses[0];
  EXPECT_EQ(scheduler->localHits(), 1u);
  EXPECT_EQ(scheduler->staged(), 0u);
  EXPECT_EQ(scheduler->bytesMoved(), 0u);
}

TEST_F(ReplicationTest, MissingObjectReportsError) {
  auto scheduler = stager();
  const auto statuses = stage(*scheduler, {ndn::Name("/ndn/k8s/data/ghost")});
  EXPECT_FALSE(statuses[0].ok());
  EXPECT_EQ(scheduler->failures(), 1u);
}

TEST_F(ReplicationTest, BatchStagesEveryObject) {
  auto scheduler = stager();
  const auto statuses = stage(*scheduler, {ndn::Name("/ndn/k8s/data/human-ref"),
                                           ndn::Name("/ndn/k8s/data/SRR2931415"),
                                           ndn::Name("/ndn/k8s/data/SRR5139395")});
  for (const Status& s : statuses) EXPECT_TRUE(s.ok()) << s;
  EXPECT_EQ(scheduler->staged(), 3u);
}

TEST_F(ReplicationTest, UnreachableObjectDoesNotStopTheRest) {
  auto scheduler = stager();
  // One doomed object in the middle: the other two must still stage.
  const auto statuses = stage(*scheduler, {ndn::Name("/ndn/k8s/data/human-ref"),
                                           ndn::Name("/ndn/k8s/data/ghost"),
                                           ndn::Name("/ndn/k8s/data/SRR2931415")});
  EXPECT_TRUE(statuses[0].ok()) << statuses[0];
  EXPECT_FALSE(statuses[1].ok());
  EXPECT_TRUE(statuses[2].ok()) << statuses[2];
  EXPECT_EQ(scheduler->failures(), 1u);
  EXPECT_EQ(scheduler->staged(), 2u);
  EXPECT_TRUE(fresh_->store().contains(ndn::Name("/ndn/k8s/data/human-ref")));
  EXPECT_TRUE(fresh_->store().contains(ndn::Name("/ndn/k8s/data/SRR2931415")));
}

TEST_F(ReplicationTest, FreshClusterRunsBlastAfterStaging) {
  // Stage the reference + rice sample into the fresh (nearest) cluster.
  auto scheduler = stager();
  for (const Status& s : stage(*scheduler, {ndn::Name("/ndn/k8s/data/human-ref"),
                                            ndn::Name("/ndn/k8s/data/SRR2931415")})) {
    ASSERT_TRUE(s.ok()) << s;
  }

  ComputeRequest request;
  request.app = "BLAST";
  request.cpu = MilliCpu::fromCores(2);
  request.memory = ByteSize::fromGiB(4);
  request.params["srr_id"] = "SRR2931415";

  std::optional<JobOutcome> outcome;
  client_->runToCompletion(request, [&](Result<JobOutcome> r) {
    ASSERT_TRUE(r.ok()) << r.status();
    outcome = *r;
  });
  sim_.run();
  ASSERT_TRUE(outcome.has_value());
  // Nearest cluster (fresh, 5 ms) now serves the job with its staged data.
  EXPECT_EQ(outcome->finalStatus.cluster, "fresh");
  EXPECT_EQ(outcome->finalStatus.state, k8s::JobState::kCompleted);
}

}  // namespace
}  // namespace lidc::core
