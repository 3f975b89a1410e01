// Replica catalog tests: record/version/export semantics and the named
// publish protocol on the wire — short-freshness `_map` manifests,
// immutable per-seq snapshots whose seq advances only when the map
// actually changed, retained history, and malformed names nacked
// instead of wedging a scraper.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "k8s/pvc.hpp"
#include "net/topology.hpp"
#include "replica/catalog.hpp"

namespace lidc::replica {
namespace {

TEST(ReplicaStateTest, NamesRoundTrip) {
  for (ReplicaState state : {ReplicaState::kStaging, ReplicaState::kReady,
                             ReplicaState::kStale, ReplicaState::kLost}) {
    EXPECT_EQ(parseReplicaState(replicaStateName(state)), state);
  }
  EXPECT_FALSE(parseReplicaState("bogus").has_value());
}

/// Catalog on "east", a probe host one 5 ms hop away.
class ReplicaCatalogTest : public ::testing::Test {
 protected:
  ReplicaCatalogTest() : topology_(sim_) {
    ndn::Forwarder& east = topology_.addNode("east");
    topology_.addNode("probe");
    topology_.connect("east", "probe",
                      net::LinkParams{sim::Duration::millis(5)});
    catalog_ = std::make_unique<ReplicaCatalog>(east, "east");
    ndn::Name prefix = kReplicaPrefix;
    prefix.append("east");
    topology_.installRoutesTo(prefix, "east");
    probe_ = std::make_shared<ndn::AppFace>("app://probe", sim_, /*nonceSeed=*/11);
    topology_.node("probe")->addFace(probe_);
  }

  struct Reply {
    bool data = false;
    bool nack = false;
    bool timeout = false;
    std::string content;
  };

  Reply fetch(const ndn::Name& name, bool mustBeFresh) {
    Reply reply;
    ndn::Interest interest(name);
    interest.setMustBeFresh(mustBeFresh).setLifetime(sim::Duration::seconds(1));
    probe_->expressInterest(
        std::move(interest),
        [&reply](const ndn::Interest&, const ndn::Data& data) {
          reply.data = true;
          reply.content = data.contentAsString();
        },
        [&reply](const ndn::Interest&, const ndn::Nack&) { reply.nack = true; },
        [&reply](const ndn::Interest&) { reply.timeout = true; });
    sim_.run();
    return reply;
  }

  Reply fetchManifest() {
    ndn::Name name = kReplicaPrefix;
    name.append("east").append("_map");
    return fetch(name, /*mustBeFresh=*/true);
  }

  Reply fetchSnapshot(std::uint64_t seq) {
    ndn::Name name = kReplicaPrefix;
    name.append("east").appendNumber(seq);
    return fetch(name, /*mustBeFresh=*/false);
  }

  /// Ages out every short-freshness manifest cached on the path.
  void ageOutManifests() {
    sim_.runUntil(sim_.now() + sim::Duration::seconds(1));
  }

  sim::Simulator sim_;
  net::Topology topology_;
  std::unique_ptr<ReplicaCatalog> catalog_;
  std::shared_ptr<ndn::AppFace> probe_;
};

TEST_F(ReplicaCatalogTest, RecordBumpsVersionOnlyOnChange) {
  const ndn::Name dataset("/ndn/k8s/data/human-ref");
  catalog_->record(dataset, 100, ReplicaState::kReady);
  ASSERT_NE(catalog_->entry(dataset), nullptr);
  EXPECT_EQ(catalog_->entry(dataset)->version, 1u);
  EXPECT_EQ(catalog_->revision(), 1u);

  // Identical re-record is a no-op.
  catalog_->record(dataset, 100, ReplicaState::kReady);
  EXPECT_EQ(catalog_->entry(dataset)->version, 1u);
  EXPECT_EQ(catalog_->revision(), 1u);

  catalog_->record(dataset, 200, ReplicaState::kReady);
  EXPECT_EQ(catalog_->entry(dataset)->version, 2u);
  EXPECT_EQ(catalog_->revision(), 2u);
}

TEST_F(ReplicaCatalogTest, LifecycleMarksAndErase) {
  const ndn::Name dataset("/ndn/k8s/data/SRR2931415");
  catalog_->markStaging(dataset);
  EXPECT_EQ(catalog_->entry(dataset)->state, ReplicaState::kStaging);

  catalog_->markReady(dataset, 4096);
  EXPECT_EQ(catalog_->entry(dataset)->state, ReplicaState::kReady);
  EXPECT_EQ(catalog_->entry(dataset)->bytes, 4096u);

  // Lost keeps the byte count (repair planning still needs the size).
  catalog_->markLost(dataset);
  EXPECT_EQ(catalog_->entry(dataset)->state, ReplicaState::kLost);
  EXPECT_EQ(catalog_->entry(dataset)->bytes, 4096u);

  const auto revisionBefore = catalog_->revision();
  catalog_->erase(dataset);
  EXPECT_EQ(catalog_->entry(dataset), nullptr);
  EXPECT_EQ(catalog_->size(), 0u);
  EXPECT_GT(catalog_->revision(), revisionBefore);

  // Erasing an absent dataset does not churn the revision.
  const auto revisionAfter = catalog_->revision();
  catalog_->erase(dataset);
  EXPECT_EQ(catalog_->revision(), revisionAfter);
}

TEST_F(ReplicaCatalogTest, ExportMapIsSortedAndDeterministic) {
  catalog_->markReady(ndn::Name("/ndn/k8s/data/b"), 2);
  catalog_->markReady(ndn::Name("/ndn/k8s/data/a"), 1);
  catalog_->markStaging(ndn::Name("/ndn/k8s/data/c"));
  EXPECT_EQ(catalog_->exportMap(),
            "dataset=/ndn/k8s/data/a;bytes=1;version=1;state=ready\n"
            "dataset=/ndn/k8s/data/b;bytes=2;version=1;state=ready\n"
            "dataset=/ndn/k8s/data/c;bytes=0;version=1;state=staging\n");
}

TEST_F(ReplicaCatalogTest, SyncFromStoreAnnouncesSeededLake) {
  k8s::PersistentVolumeClaim pvc("lake", ByteSize::fromMiB(4));
  datalake::ObjectStore store(pvc);
  ASSERT_TRUE(store.putText(ndn::Name("/ndn/k8s/data/a"), "aaaa").ok());
  ASSERT_TRUE(store.putText(ndn::Name("/ndn/k8s/data/b"), "bb").ok());
  ASSERT_TRUE(store.putText(ndn::Name("/other/x"), "x").ok());

  catalog_->syncFromStore(store, ndn::Name("/ndn/k8s/data"));
  EXPECT_EQ(catalog_->size(), 2u);
  ASSERT_NE(catalog_->entry(ndn::Name("/ndn/k8s/data/a")), nullptr);
  EXPECT_EQ(catalog_->entry(ndn::Name("/ndn/k8s/data/a"))->bytes, 4u);
  EXPECT_EQ(catalog_->entry(ndn::Name("/ndn/k8s/data/a"))->state,
            ReplicaState::kReady);
  EXPECT_EQ(catalog_->entry(ndn::Name("/other/x")), nullptr);
}

TEST_F(ReplicaCatalogTest, ManifestThenSnapshotServesTheMap) {
  catalog_->markReady(ndn::Name("/ndn/k8s/data/human-ref"), 1234);

  const Reply manifest = fetchManifest();
  ASSERT_TRUE(manifest.data);
  EXPECT_EQ(manifest.content.rfind("seq=1;generated=", 0), 0u) << manifest.content;

  const Reply snapshot = fetchSnapshot(1);
  ASSERT_TRUE(snapshot.data);
  EXPECT_EQ(snapshot.content,
            "dataset=/ndn/k8s/data/human-ref;bytes=1234;version=1;state=ready\n");
  EXPECT_EQ(catalog_->interestsServed(), 2u);
  EXPECT_EQ(catalog_->snapshotsGenerated(), 1u);
}

TEST_F(ReplicaCatalogTest, SeqAdvancesOnlyWhenTheMapChanges) {
  catalog_->markReady(ndn::Name("/ndn/k8s/data/a"), 1);
  ASSERT_TRUE(fetchManifest().data);
  ageOutManifests();

  // Quiet lake: same seq, no new snapshot export.
  const Reply unchanged = fetchManifest();
  ASSERT_TRUE(unchanged.data);
  EXPECT_EQ(unchanged.content.rfind("seq=1;", 0), 0u) << unchanged.content;
  EXPECT_EQ(catalog_->snapshotsGenerated(), 1u);

  catalog_->markReady(ndn::Name("/ndn/k8s/data/b"), 2);
  ageOutManifests();
  const Reply changed = fetchManifest();
  ASSERT_TRUE(changed.data);
  EXPECT_EQ(changed.content.rfind("seq=2;", 0), 0u) << changed.content;
  EXPECT_EQ(catalog_->snapshotsGenerated(), 2u);

  // The superseded snapshot stays answerable (it is immutable Data some
  // directory may still be resolving), and unknown seqs are nacked.
  EXPECT_TRUE(fetchSnapshot(1).data);
  EXPECT_TRUE(fetchSnapshot(2).data);
  EXPECT_TRUE(fetchSnapshot(99).nack);
}

TEST_F(ReplicaCatalogTest, MalformedNamesAreNacked) {
  catalog_->markReady(ndn::Name("/ndn/k8s/data/a"), 1);

  // Too short: the bare cluster prefix names no selector.
  ndn::Name bare = kReplicaPrefix;
  bare.append("east");
  EXPECT_TRUE(fetch(bare, /*mustBeFresh=*/false).nack);

  // Junk selector: neither `_map` nor a snapshot seq.
  ndn::Name junk = kReplicaPrefix;
  junk.append("east").append("bogus");
  EXPECT_TRUE(fetch(junk, /*mustBeFresh=*/false).nack);

  // Too deep: an empty component between the cluster and `_map`.
  ndn::Name deep = kReplicaPrefix;
  deep.append("east").append("").append("_map");
  EXPECT_TRUE(fetch(deep, /*mustBeFresh=*/true).nack);

  EXPECT_EQ(catalog_->interestsRejected(), 3u);
  EXPECT_EQ(catalog_->interestsServed(), 0u);
}

}  // namespace
}  // namespace lidc::replica
