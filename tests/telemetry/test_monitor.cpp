// Named monitoring plane tests: the publisher serves signed metric
// snapshots under /ndn/k8s/telemetry/<cluster>/..., the collector
// scrapes them with ordinary Interests, repeat snapshot fetches are
// served from Content Stores on the path, and a blacked-out cluster
// goes *stale* instead of wedging the collector.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/topology.hpp"
#include "sim/chaos.hpp"
#include "telemetry/monitor.hpp"

namespace lidc::telemetry {
namespace {

/// One publisher node ("east") and one collector host, directly linked.
struct MonitorWorld {
  MonitorWorld() : topology(sim) {
    ndn::Forwarder& pubNode = topology.addNode("east");
    topology.addNode("col-host");
    topology.connect("east", "col-host",
                     net::LinkParams{sim::Duration::millis(5), 0.0, 0.0});

    registry.counter("lidc_forwarder_in_interests", {{"node", "east"}}).set(12);
    registry.gauge("lidc_cluster_free_cpu_m", {{"cluster", "east"}}).set(8000);

    publisher = std::make_unique<TelemetryPublisher>(pubNode, registry, "east");

    ndn::Name prefix = kTelemetryPrefix;
    prefix.append("east");
    topology.installRoutesTo(prefix, "east");

    collector = std::make_unique<TelemetryCollector>(
        *topology.node("col-host"), collectorOptions());
    collector->watchCluster("east");
  }

  static TelemetryCollectorOptions collectorOptions() {
    TelemetryCollectorOptions options;
    options.interestLifetime = sim::Duration::millis(500);
    options.freshnessWindow = sim::Duration::seconds(5);
    options.scrapeInterval = sim::Duration::seconds(2);
    return options;
  }

  sim::Simulator sim;
  net::Topology topology;
  MetricsRegistry registry;
  std::unique_ptr<TelemetryPublisher> publisher;
  std::unique_ptr<TelemetryCollector> collector;
};

TEST(MonitorTest, CollectorScrapesPublishedSnapshot) {
  MonitorWorld world;
  bool done = false;
  world.collector->scrapeOnce([&done] { done = true; });
  world.sim.run();

  ASSERT_TRUE(done);
  EXPECT_EQ(world.collector->counters().scrapesSucceeded, 1u);
  EXPECT_EQ(world.collector->counters().snapshotsFetched, 1u);
  EXPECT_FALSE(world.collector->isStale("east"));

  const auto* view = world.collector->view("east");
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(world.collector->progress("east")->seq, 1u);
  EXPECT_DOUBLE_EQ(
      world.collector->metric("east",
                              "lidc_forwarder_in_interests{node=\"east\"}"),
      12.0);
  EXPECT_DOUBLE_EQ(
      world.collector->metric("east", "lidc_cluster_free_cpu_m{cluster=\"east\"}"),
      8000.0);
  EXPECT_EQ(world.publisher->snapshotsGenerated(), 1u);
}

TEST(MonitorTest, UnchangedSeqReusesManifestWithoutRefetch) {
  MonitorWorld world;
  world.collector->scrapeOnce();
  world.sim.run();
  // Second scrape well inside snapshotInterval: same seq, so the
  // collector skips the snapshot fetch entirely.
  world.collector->scrapeOnce();
  world.sim.run();

  EXPECT_EQ(world.collector->counters().scrapesSucceeded, 2u);
  EXPECT_EQ(world.collector->counters().manifestReuses, 1u);
  EXPECT_EQ(world.collector->counters().snapshotsFetched, 1u);
}

TEST(MonitorTest, RepeatSnapshotFetchIsServedFromContentStore) {
  MonitorWorld world;
  world.collector->scrapeOnce();
  world.sim.run();
  const std::uint64_t servedBefore = world.publisher->interestsServed();
  const std::uint64_t csHitsBefore =
      world.topology.node("col-host")->counters().nCsHits;

  // Forget the scraped values; the next scrape must re-fetch the
  // (immutable, long-freshness) snapshot Data — and the collector
  // host's own Content Store answers it without touching the publisher.
  // Delayed past the manifest's 500 ms freshness so the MustBeFresh
  // `_latest` Interest provably reaches the publisher while the
  // snapshot Interest still hits the cache.
  world.collector->invalidate("east");
  EXPECT_TRUE(world.collector->isStale("east"));
  world.sim.scheduleAfter(sim::Duration::millis(600),
                          [&world] { world.collector->scrapeOnce(); });
  world.sim.run();

  EXPECT_EQ(world.collector->counters().snapshotsFetched, 2u);
  EXPECT_FALSE(world.collector->isStale("east"));
  // The publisher answered only the MustBeFresh `_latest` manifest...
  EXPECT_EQ(world.publisher->interestsServed(), servedBefore + 1);
  // ...because the snapshot Interest was a Content Store hit.
  EXPECT_GT(world.topology.node("col-host")->counters().nCsHits, csHitsBefore);
}

TEST(MonitorTest, NewSeqAfterIntervalCarriesUpdatedValues) {
  MonitorWorld world;
  world.collector->scrapeOnce();
  world.sim.run();

  world.registry.counter("lidc_forwarder_in_interests", {{"node", "east"}})
      .set(99);
  // Past the publisher's snapshotInterval the next manifest Interest
  // triggers a fresh export with a bumped sequence number.
  world.sim.scheduleAfter(sim::Duration::seconds(2),
                          [&world] { world.collector->scrapeOnce(); });
  world.sim.run();

  const auto* view = world.collector->view("east");
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(world.collector->progress("east")->seq, 2u);
  EXPECT_DOUBLE_EQ(
      world.collector->metric("east",
                              "lidc_forwarder_in_interests{node=\"east\"}"),
      99.0);
}

TEST(MonitorTest, BlackedOutClusterGoesStaleInsteadOfWedging) {
  MonitorWorld world;
  world.collector->scrapeOnce();
  world.sim.run();
  ASSERT_FALSE(world.collector->isStale("east"));

  // Chaos: the link to east dies at t=1s and never recovers inside the
  // observation window. Periodic scraping keeps running against the
  // dead cluster.
  sim::ChaosEngine chaos(world.sim);
  chaos.linkDown("east-isolated", *world.topology.linkBetween("east", "col-host"),
                 world.sim.now() + sim::Duration::seconds(1),
                 sim::Duration::minutes(5));

  world.collector->start();
  world.sim.scheduleAfter(sim::Duration::seconds(20), [&world] {
    // Well past the freshness window: every scrape since the blackout
    // has failed and the cluster must read as stale.
    EXPECT_TRUE(world.collector->isStale("east"));
    EXPECT_GE(world.collector->counters().scrapesFailed, 2u);
    world.collector->stop();
  });
  world.sim.run();

  EXPECT_FALSE(world.collector->running());
  // The stale view still holds the last good values (seq 1) — staleness
  // is a flag, not data loss.
  const auto* view = world.collector->view("east");
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(world.collector->progress("east")->seq, 1u);
  EXPECT_TRUE(world.collector->progress("east")->everScraped);
}

TEST(MonitorTest, UnknownClusterNacksAndScrapeFails) {
  MonitorWorld world;
  world.collector->watchCluster("ghost");  // no route, no publisher
  bool done = false;
  world.collector->scrapeOnce([&done] { done = true; });
  world.sim.run();

  ASSERT_TRUE(done);  // the failed cluster does not hang the batch
  EXPECT_EQ(world.collector->counters().scrapesSucceeded, 1u);
  EXPECT_EQ(world.collector->counters().scrapesFailed, 1u);
  EXPECT_TRUE(world.collector->isStale("ghost"));
  EXPECT_FALSE(world.collector->isStale("east"));
}

TEST(MonitorTest, PublisherRejectsMalformedTelemetryNames) {
  MonitorWorld world;
  auto& forwarder = *world.topology.node("col-host");
  auto face = std::make_shared<ndn::AppFace>("app://probe", world.sim);
  forwarder.addFace(face);

  ndn::Name tooShort = kTelemetryPrefix;
  tooShort.append("east");  // missing <group>/<seq|_latest>
  ndn::Name noGroup = kTelemetryPrefix;
  noGroup.append("east").append("_latest");  // a manifest with no <group>
  for (const ndn::Name& name : {tooShort, noGroup}) {
    ndn::Interest interest(name);
    interest.setLifetime(sim::Duration::millis(500));
    bool nacked = false;
    face->expressInterest(
        interest, [](const ndn::Interest&, const ndn::Data&) { FAIL(); },
        [&nacked](const ndn::Interest&, const ndn::Nack&) { nacked = true; },
        [](const ndn::Interest&) {});
    world.sim.run();
    EXPECT_TRUE(nacked) << name.toUri();
  }
  EXPECT_GE(world.publisher->interestsRejected(), 2u);
}

TEST(MonitorTest, CollectorTelemetryGaugesTrackStaleAndFailures) {
  MonitorWorld world;
  MetricsRegistry colRegistry;
  world.collector->attachTelemetry(colRegistry);

  world.collector->scrapeOnce();
  world.sim.run();
  auto flat = colRegistry.flatten();
  EXPECT_EQ(flat.at("lidc_collector_stale_clusters"), 0.0);
  EXPECT_EQ(flat.at("lidc_collector_scrape_failures_total"), 0.0);
  EXPECT_EQ(flat.at("lidc_collector_scrapes_started_total"), 1.0);
  EXPECT_EQ(flat.at("lidc_collector_cluster_health{cluster=\"east\"}"), 1.0);

  // A watched-but-unreachable cluster shows up in both the failure
  // counter and the stale gauge — the monitor test for satellite #1.
  world.collector->watchCluster("ghost");
  world.collector->scrapeOnce();
  world.sim.run();
  flat = colRegistry.flatten();
  EXPECT_EQ(flat.at("lidc_collector_stale_clusters"), 1.0);
  EXPECT_GE(flat.at("lidc_collector_scrape_failures_total"), 1.0);
  EXPECT_EQ(flat.at("lidc_collector_cluster_health{cluster=\"ghost\"}"), 0.0);
}

TEST(MonitorTest, HealthScoreFollowsGatewayFractionAndStaleness) {
  MonitorWorld world;
  // Never scraped: the stale score, 0.
  EXPECT_DOUBLE_EQ(world.collector->healthScore("east"), 0.0);

  world.collector->scrapeOnce();
  world.sim.run();
  // Scraped, no healthy-fraction series published: fully healthy.
  EXPECT_DOUBLE_EQ(world.collector->healthScore("east"), 1.0);

  // The gateway starts reporting 50% ready nodes; after the publisher's
  // snapshotInterval a new seq carries it into the score.
  world.registry.gauge("lidc_gateway_healthy_node_fraction", {{"cluster", "east"}})
      .set(0.5);
  world.sim.scheduleAfter(sim::Duration::seconds(2),
                          [&world] { world.collector->scrapeOnce(); });
  world.sim.run();
  EXPECT_DOUBLE_EQ(world.collector->healthScore("east"), 0.5);

  // Forgetting the view drops the cluster back to the stale score.
  world.collector->invalidate("east");
  EXPECT_DOUBLE_EQ(world.collector->healthScore("east"), 0.0);
}

TEST(MonitorTest, HealthScoreReadsAnUnlabeledSeries) {
  MonitorWorld world;
  // A gateway that exports the fraction without the cluster label.
  world.registry.gauge("lidc_gateway_healthy_node_fraction", {}).set(0.25);
  world.collector->scrapeOnce();
  world.sim.run();
  EXPECT_DOUBLE_EQ(world.collector->healthScore("east"), 0.25);
}

TEST(MonitorTest, RejectionPressureDiscountsHealth) {
  MonitorWorld world;
  world.registry.counter("lidc_gateway_compute_received", {{"cluster", "east"}})
      .set(10);
  world.registry.counter("lidc_gateway_health_rejected", {{"cluster", "east"}})
      .set(0);
  world.collector->scrapeOnce();
  world.sim.run();
  EXPECT_DOUBLE_EQ(world.collector->healthScore("east"), 1.0);

  // Between snapshots the gateway rejected 5 of 10 new compute
  // Interests: pressure 0.5 discounts the score.
  world.registry.counter("lidc_gateway_compute_received", {{"cluster", "east"}})
      .set(20);
  world.registry.counter("lidc_gateway_health_rejected", {{"cluster", "east"}})
      .set(5);
  world.sim.scheduleAfter(sim::Duration::seconds(2),
                          [&world] { world.collector->scrapeOnce(); });
  world.sim.run();
  EXPECT_NEAR(world.collector->healthScore("east"), 0.5, 1e-9);
}

TEST(MonitorTest, BlackoutDropsDegradeHealthWithHoldDown) {
  MonitorWorld world;
  world.registry.counter("lidc_gateway_blackout_dropped", {{"cluster", "east"}})
      .set(0);
  world.collector->scrapeOnce();
  world.sim.run();
  EXPECT_DOUBLE_EQ(world.collector->healthScore("east"), 1.0);

  // The gateway went dark for compute while its telemetry publisher
  // kept answering: the drop delta alone must flag the cluster.
  world.registry.counter("lidc_gateway_blackout_dropped", {{"cluster", "east"}})
      .set(5);
  world.sim.scheduleAfter(sim::Duration::seconds(2), [&world] {
    world.collector->scrapeOnce([&world] {
      EXPECT_DOUBLE_EQ(world.collector->healthScore("east"), 0.0);
    });
  });
  // No new drops (steering moved traffic away), but the hold-down keeps
  // the degraded score so jobs are not lured back mid-fault.
  world.sim.scheduleAfter(sim::Duration::seconds(4), [&world] {
    world.collector->scrapeOnce([&world] {
      EXPECT_DOUBLE_EQ(world.collector->healthScore("east"), 0.0);
    });
  });
  // Past the hold-down window the cluster reads healthy again.
  world.sim.scheduleAfter(sim::Duration::seconds(13), [&world] {
    world.collector->scrapeOnce([&world] {
      EXPECT_DOUBLE_EQ(world.collector->healthScore("east"), 1.0);
    });
  });
  world.sim.run();
}

TEST(MonitorTest, HealthListenerFiresAfterEveryScrapeSettles) {
  MonitorWorld world;
  std::vector<std::pair<std::string, double>> notified;
  world.collector->setHealthListener(
      [&notified](const std::string& cluster, double score) {
        notified.emplace_back(cluster, score);
      });
  world.collector->watchCluster("ghost");
  world.collector->scrapeOnce();
  world.sim.run();

  ASSERT_EQ(notified.size(), 2u);
  // Success and failure both notify: east healthy, ghost at the stale score.
  std::map<std::string, double> byCluster(notified.begin(), notified.end());
  EXPECT_DOUBLE_EQ(byCluster.at("east"), 1.0);
  EXPECT_DOUBLE_EQ(byCluster.at("ghost"), 0.0);
}

TEST(MonitorTest, ContentGroupServesCustomTextWithRevisionGatedSeq) {
  MonitorWorld world;
  std::string content = "t=1.000000s alert=1 rule=r state=fired\n";
  std::uint64_t revision = 1;
  world.publisher->addContentGroup(
      "alerts", [&content] { return content; }, [&revision] { return revision; });

  TelemetryCollectorOptions options = MonitorWorld::collectorOptions();
  options.group = "alerts";
  TelemetryCollector alertScraper(*world.topology.node("col-host"), options);
  alertScraper.watchCluster("east");

  alertScraper.scrapeOnce();
  world.sim.run();
  const auto* view = alertScraper.view("east");
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(alertScraper.progress("east")->seq, 1u);
  EXPECT_EQ(view->rawText, content);

  // Unchanged revision past the snapshot interval: same seq (manifest
  // reuse keeps the alert plane cheap while nothing transitions).
  world.sim.scheduleAfter(sim::Duration::seconds(2),
                          [&alertScraper] { alertScraper.scrapeOnce(); });
  world.sim.run();
  EXPECT_EQ(alertScraper.progress("east")->seq, 1u);
  EXPECT_EQ(alertScraper.counters().manifestReuses, 1u);

  // A transition bumps the revision: next scrape sees a new seq + text.
  content += "t=9.000000s alert=1 rule=r state=resolved\n";
  revision = 2;
  world.sim.scheduleAfter(sim::Duration::seconds(2),
                          [&alertScraper] { alertScraper.scrapeOnce(); });
  world.sim.run();
  EXPECT_EQ(alertScraper.progress("east")->seq, 2u);
  EXPECT_EQ(alertScraper.view("east")->rawText, content);
}

TEST(MonitorTest, CollectorValueSourceExposesPrefixedSeries) {
  MonitorWorld world;
  world.collector->scrapeOnce();
  world.sim.run();

  const auto source = collectorValueSource(*world.collector);
  EXPECT_DOUBLE_EQ(source("east/stale").value(), 0.0);
  EXPECT_DOUBLE_EQ(source("east/health").value(), 1.0);
  EXPECT_DOUBLE_EQ(source("east/lidc_cluster_free_cpu_m{cluster=\"east\"}").value(),
                   8000.0);

  world.collector->invalidate("east");
  EXPECT_DOUBLE_EQ(source("east/stale").value(), 1.0);
  EXPECT_DOUBLE_EQ(source("east/health").value(), 0.0);
}

}  // namespace
}  // namespace lidc::telemetry
