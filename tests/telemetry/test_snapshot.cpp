// Named-snapshot plane tests shared by the monitoring and replica
// planes: a scrape that receives a forged manifest or snapshot counts a
// signature failure and keeps what it had, and a manifest's
// `generated=` stays the export time of its seq when a later check
// finds nothing new.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/topology.hpp"
#include "replica/catalog.hpp"
#include "replica/directory.hpp"
#include "telemetry/monitor.hpp"

namespace lidc::telemetry {
namespace {

/// Answers Interests from a fixed table. A forged reply is signed and
/// then altered, so its signature no longer verifies; it goes straight
/// into the forwarder, because AppFace::putData would re-sign it.
class ScriptedProducer {
 public:
  ScriptedProducer(ndn::Forwarder& forwarder, const ndn::Name& prefix) {
    face_ = std::make_shared<ndn::AppFace>("app://scripted", forwarder.simulator());
    face_->setInterestHandler([this](const ndn::Interest& i) { serve(i); });
    forwarder.registerPrefix(prefix, forwarder.addFace(face_), /*cost=*/0);
  }

  void set(const ndn::Name& name, std::string content, bool forged = false) {
    replies_[name.toUri()] = {std::move(content), forged};
  }

 private:
  void serve(const ndn::Interest& interest) {
    auto it = replies_.find(interest.name().toUri());
    if (it == replies_.end()) {
      face_->putNack(interest, ndn::NackReason::kNoRoute);
      return;
    }
    const auto& [content, forged] = it->second;
    ndn::Data data(interest.name());
    data.setContent(content).sign();
    if (forged) data.setContent(content + "tampered\n");
    face_->receiveData(data);
  }

  std::shared_ptr<ndn::AppFace> face_;
  std::map<std::string, std::pair<std::string, bool>> replies_;
};

/// A scraper host whose forwarder passes forged Data up to the
/// application, so the scraper's own signature checks are what count.
struct ForgeryWorld {
  ForgeryWorld() : topology(sim), host(topology.addNode("ops")) {
    host.setDataVerification(false);
  }

  void runFor(sim::Duration duration) { sim.runUntil(sim.now() + duration); }

  sim::Simulator sim;
  net::Topology topology;
  ndn::Forwarder& host;
};

ndn::Name nameOf(const ndn::Name& prefix, const std::string& selector) {
  ndn::Name name = prefix;
  return name.append(selector);
}

TEST(SnapshotPlaneTest, CollectorRejectsForgedManifestAndSnapshot) {
  ForgeryWorld world;
  const ndn::Name group("/ndn/k8s/telemetry/east/all");
  ScriptedProducer producer(world.host, ndn::Name("/ndn/k8s/telemetry/east"));
  producer.set(nameOf(group, "_latest"), "seq=1;generated=0");
  producer.set(nameOf(group, "1"), "lidc_probe 7\n");
  TelemetryCollector collector(world.host);
  collector.watchCluster("east");
  collector.scrapeOnce();
  world.runFor(sim::Duration::seconds(3));
  ASSERT_DOUBLE_EQ(collector.metric("east", "lidc_probe"), 7.0);

  // A forged manifest announcing seq 2.
  producer.set(nameOf(group, "_latest"), "seq=2;generated=3000000000", true);
  collector.scrapeOnce();
  world.runFor(sim::Duration::seconds(1));
  EXPECT_EQ(collector.counters().scrapesFailed, 1u);
  EXPECT_EQ(collector.counters().signatureFailures, 1u);
  EXPECT_DOUBLE_EQ(collector.metric("east", "lidc_probe"), 7.0);
  EXPECT_EQ(collector.progress("east")->seq, 1u);

  // A genuine manifest naming a forged snapshot.
  producer.set(nameOf(group, "_latest"), "seq=2;generated=3000000000");
  producer.set(nameOf(group, "2"), "lidc_probe 9\n", true);
  collector.scrapeOnce();
  world.runFor(sim::Duration::millis(500));
  EXPECT_EQ(collector.counters().scrapesFailed, 2u);
  EXPECT_EQ(collector.counters().signatureFailures, 2u);
  EXPECT_EQ(collector.counters().snapshotsFetched, 1u);
  EXPECT_DOUBLE_EQ(collector.metric("east", "lidc_probe"), 7.0);
  EXPECT_EQ(collector.progress("east")->seq, 1u);

  // Only the first scrape succeeded, so past its freshness window the
  // cluster is stale: neither forgery refreshed the clock.
  world.runFor(sim::Duration::seconds(1));
  EXPECT_TRUE(collector.isStale("east"));
}

TEST(SnapshotPlaneTest, DirectoryRejectsForgedManifestAndSnapshot) {
  ForgeryWorld world;
  const ndn::Name prefix("/ndn/k8s/replica/east");
  const ndn::Name datasetA("/ndn/k8s/data/a");
  const ndn::Name datasetB("/ndn/k8s/data/b");
  ScriptedProducer producer(world.host, prefix);
  producer.set(nameOf(prefix, "_map"), "seq=1;generated=0");
  producer.set(nameOf(prefix, "1"),
               "dataset=/ndn/k8s/data/a;bytes=10;version=1;state=ready\n");
  replica::ReplicaDirectory directory(world.host);
  directory.watchCluster("east");
  directory.scrapeOnce();
  world.runFor(sim::Duration::seconds(3));
  ASSERT_EQ(directory.holders(datasetA), std::vector<std::string>{"east"});

  producer.set(nameOf(prefix, "_map"), "seq=2;generated=3000000000", true);
  directory.scrapeOnce();
  world.runFor(sim::Duration::seconds(1));
  EXPECT_EQ(directory.counters().scrapesFailed, 1u);
  EXPECT_EQ(directory.counters().signatureFailures, 1u);
  EXPECT_EQ(directory.holders(datasetA), std::vector<std::string>{"east"});

  producer.set(nameOf(prefix, "_map"), "seq=2;generated=3000000000");
  producer.set(nameOf(prefix, "2"),
               "dataset=/ndn/k8s/data/b;bytes=20;version=1;state=ready\n", true);
  directory.scrapeOnce();
  world.runFor(sim::Duration::millis(500));
  EXPECT_EQ(directory.counters().scrapesFailed, 2u);
  EXPECT_EQ(directory.counters().signatureFailures, 2u);
  EXPECT_EQ(directory.holders(datasetA), std::vector<std::string>{"east"});
  EXPECT_TRUE(directory.holders(datasetB).empty());

  world.runFor(sim::Duration::seconds(1));
  EXPECT_TRUE(directory.isStale("east"));
  EXPECT_TRUE(directory.holders(datasetA).empty());
}

/// A publisher and a probe face on one forwarder.
struct ManifestWorld {
  ManifestWorld() : topology(sim), node(topology.addNode("east")) {
    probe = std::make_shared<ndn::AppFace>("app://probe", sim, /*nonceSeed=*/11);
    node.addFace(probe);
  }

  /// Fetches a manifest with MustBeFresh; returns its content.
  std::string fetchManifest(const ndn::Name& name) {
    std::string content;
    ndn::Interest interest(name);
    interest.setMustBeFresh(true).setLifetime(sim::Duration::seconds(1));
    probe->expressInterest(std::move(interest),
                           [&content](const ndn::Interest&, const ndn::Data& data) {
                             content = data.contentAsString();
                           });
    sim.run();
    return content;
  }

  void runFor(sim::Duration duration) { sim.runUntil(sim.now() + duration); }

  sim::Simulator sim;
  net::Topology topology;
  ndn::Forwarder& node;
  std::shared_ptr<ndn::AppFace> probe;
};

TEST(SnapshotPlaneTest, CatalogManifestReportsExportTime) {
  ManifestWorld world;
  replica::ReplicaCatalog catalog(world.node, "east");
  catalog.markReady(ndn::Name("/ndn/k8s/data/a"), 1);
  const ndn::Name manifest("/ndn/k8s/replica/east/_map");

  world.runFor(sim::Duration::seconds(1));
  EXPECT_EQ(world.fetchManifest(manifest), "seq=1;generated=1000000000");
  // Past the 500 ms manifest freshness the Interest reaches the catalog
  // again; the map is unchanged, so seq 1 keeps its export time.
  world.runFor(sim::Duration::seconds(2));
  EXPECT_EQ(world.fetchManifest(manifest), "seq=1;generated=1000000000");
  EXPECT_EQ(catalog.interestsServed(), 2u);
}

TEST(SnapshotPlaneTest, ContentGroupManifestReportsExportTime) {
  ManifestWorld world;
  MetricsRegistry registry;
  TelemetryPublisher publisher(world.node, registry, "east");
  publisher.addContentGroup(
      "alerts", [] { return std::string("quiet\n"); }, [] { return 1u; });
  const ndn::Name manifest("/ndn/k8s/telemetry/east/alerts/_latest");

  world.runFor(sim::Duration::seconds(1));
  EXPECT_EQ(world.fetchManifest(manifest), "seq=1;generated=1000000000");
  // Past the 1 s snapshot interval the group is checked again; the
  // revision has not moved, so seq 1 keeps its export time.
  world.runFor(sim::Duration::seconds(2));
  EXPECT_EQ(world.fetchManifest(manifest), "seq=1;generated=1000000000");
  EXPECT_EQ(publisher.interestsServed(), 2u);
  EXPECT_EQ(publisher.snapshotsGenerated(), 1u);
}

}  // namespace
}  // namespace lidc::telemetry
