// Weathermap tests: series-key parsing, the publisher -> collector ->
// weathermap pipeline over the "flow" content group, hot-link
// flight-recorder events at scrape time, the alert value source, and
// the per-seed byte-determinism of every rendered view.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/topology.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/flow.hpp"
#include "telemetry/monitor.hpp"
#include "telemetry/weathermap.hpp"

namespace lidc::telemetry {
namespace {

TEST(ParseSeriesKeyTest, SplitsNameAndLabels) {
  auto [name, labels] = parseSeriesKey(
      "lidc_link_bytes_total{link=\"link://a->b\",tenant=\"acme\"}");
  EXPECT_EQ(name, "lidc_link_bytes_total");
  ASSERT_EQ(labels.size(), 2u);
  EXPECT_EQ(labels.at("link"), "link://a->b");
  EXPECT_EQ(labels.at("tenant"), "acme");

  EXPECT_EQ(parseSeriesKey("plain_name").first, "plain_name");
  EXPECT_TRUE(parseSeriesKey("plain_name").second.empty());

  // Malformed label text yields the parseable prefix, never a throw.
  auto truncated = parseSeriesKey("m{a=\"1\",b=");
  EXPECT_EQ(truncated.first, "m");
  EXPECT_EQ(truncated.second.size(), 1u);
  EXPECT_EQ(truncated.second.at("a"), "1");
}

/// One cluster node ("east") running a FlowAccountant whose flow group
/// is published under /ndn/k8s/telemetry/east/flow/, and an ops host
/// running the Weathermap.
struct WeathermapWorld {
  WeathermapWorld() : topology(sim), accountant(sim) {
    ndn::Forwarder& east = topology.addNode("east");
    topology.addNode("ops");
    topology.connect("east", "ops",
                     net::LinkParams{sim::Duration::millis(5), 0.0, 0.0});

    publisher = std::make_unique<TelemetryPublisher>(east, registry, "east");
    publisher->addContentGroup(
        "flow", [this] { return accountant.toPrometheus(); },
        [this] { return accountant.revision(); });
    ndn::Name prefix = kTelemetryPrefix;
    prefix.append("east");
    topology.installRoutesTo(prefix, "east");

    ScrapeTiming timing;
    timing.interestLifetime = sim::Duration::millis(500);
    weathermap = std::make_unique<Weathermap>(*topology.node("ops"), timing);
    weathermap->watchCluster("east");
  }

  /// Deterministic traffic mix: a noisy tenant dominating one link.
  void seedTraffic() {
    accountant.setLinkCapacity("link://east->ops", 8000.0);  // 1000 B/s
    LinkFlowStats* stats = accountant.link("link://east->ops");
    stats->onInterest(40);
    stats->onData(1500);
    accountant.attribute("link://east->ops", {"data", "noisy", "-"}, 1500,
                         /*fromCache=*/false);
    accountant.attribute("link://east->ops", {"data", "acme", "wf/genome"},
                         100, /*fromCache=*/true);
    accountant.recordTransfer({"staging", "acme", "plan-1"}, 2048);
  }

  sim::Simulator sim;
  net::Topology topology;
  MetricsRegistry registry;
  FlowAccountant accountant;
  std::unique_ptr<TelemetryPublisher> publisher;
  std::unique_ptr<Weathermap> weathermap;
};

TEST(WeathermapTest, ScrapeRebuildsLinkViews) {
  WeathermapWorld world;
  world.seedTraffic();
  world.weathermap->scrapeOnce();
  world.sim.run();

  const auto fleet = world.weathermap->links();
  ASSERT_EQ(fleet.count("east"), 1u);
  const auto& links = fleet.at("east");
  ASSERT_EQ(links.count("link://east->ops"), 1u);
  const LinkView& lv = links.at("link://east->ops");
  EXPECT_EQ(lv.cluster, "east");
  EXPECT_EQ(lv.interests, 1u);
  EXPECT_EQ(lv.dataPackets, 1u);
  EXPECT_EQ(lv.bytes, 1540u);
  EXPECT_EQ(lv.csBytes, 100u);
  EXPECT_EQ(lv.upstreamBytes, 1500u);
  EXPECT_DOUBLE_EQ(lv.capacityBits, 8000.0);
  EXPECT_NEAR(lv.dominantShare, 1500.0 / 1600.0, 1e-9);
  EXPECT_EQ(lv.tenantBytes.at("noisy"), 1500u);
  EXPECT_EQ(lv.tenantBytes.at("acme"), 100u);

  const auto talkers = world.weathermap->topTalkers("link://east->ops");
  ASSERT_EQ(talkers.size(), 2u);
  EXPECT_EQ(talkers[0].rank, 1);
  EXPECT_EQ(talkers[0].tenant, "noisy");
  EXPECT_EQ(talkers[0].bytes, 1500u);
  EXPECT_EQ(talkers[1].tenant, "acme");
  EXPECT_EQ(talkers[1].tag, "wf/genome");
  EXPECT_TRUE(world.weathermap->topTalkers("link://ghost").empty());
}

TEST(WeathermapTest, JsonAndExplainAreByteIdenticalPerSeed) {
  auto render = [] {
    WeathermapWorld world;
    world.seedTraffic();
    world.weathermap->scrapeOnce();
    world.sim.run();
    return world.weathermap->weathermapJson() + "\n---\n" +
           world.weathermap->explainLink("link://east->ops");
  };
  const std::string first = render();
  EXPECT_EQ(first, render());

  // Spot-check the rendered content.
  EXPECT_NE(first.find("\"cluster\":\"east\""), std::string::npos);
  EXPECT_NE(first.find("\"link\":\"link://east->ops\""), std::string::npos);
  EXPECT_NE(first.find("\"staged\":{\"acme|staging|plan-1\":2048}"),
            std::string::npos);
  EXPECT_NE(first.find("1. group=data tenant=noisy tag=- bytes=1500"),
            std::string::npos);
  EXPECT_NE(first.find("dominant_share 0.938"), std::string::npos);
}

TEST(WeathermapTest, ExplainUnknownLinkSaysSo) {
  WeathermapWorld world;
  EXPECT_EQ(world.weathermap->explainLink("link://nowhere"),
            "link link://nowhere\n  (unknown link)\n");
}

TEST(WeathermapTest, HotAndDominatedLinksDropFlightRecorderEvents) {
  WeathermapWorld world;
  FlightRecorder recorder(world.sim, 64);
  world.weathermap->setFlightRecorder(&recorder);

  world.accountant.setLinkCapacity("link://east->ops", 8000.0);
  // Burn 8x the capacity into the first one-second bucket, then let it
  // complete so the scraped utilization reads ~8.0.
  world.sim.scheduleAfter(sim::Duration::millis(100), [&world] {
    world.accountant.link("link://east->ops")->onData(8000);
    world.accountant.attribute("link://east->ops", {"data", "noisy", "-"},
                               8000, false);
  });
  world.sim.scheduleAfter(sim::Duration::millis(1500),
                          [&world] { world.weathermap->scrapeOnce(); });
  world.sim.run();

  const std::string rendered = FlightRecorder::render(recorder.lastN(16));
  EXPECT_NE(rendered.find("east hot-link link://east->ops"), std::string::npos);
  EXPECT_NE(rendered.find("east dominated-link link://east->ops tenant=noisy"),
            std::string::npos);
}

TEST(WeathermapTest, ByteCountsAboveAMillionSurviveTheScrape) {
  WeathermapWorld world;
  world.accountant.registerLink("link://east->ops");
  world.accountant.link("link://east->ops")->onData(1234567);
  world.accountant.recordTransfer({"staging", "acme", "plan-1"}, 7654321);
  world.weathermap->scrapeOnce();
  world.sim.run();

  EXPECT_EQ(world.weathermap->links().at("east").at("link://east->ops").bytes,
            1234567u);
  EXPECT_NE(world.weathermap->weathermapJson().find("\"acme|staging|plan-1\":7654321"),
            std::string::npos);
}

TEST(WeathermapTest, ValueSourceExposesFleetAggregates) {
  WeathermapWorld world;
  world.seedTraffic();
  world.weathermap->scrapeOnce();
  world.sim.run();

  const auto source = world.weathermap->valueSource();
  EXPECT_DOUBLE_EQ(source("east/stale").value(), 0.0);
  EXPECT_NEAR(source("fleet/max_dominant_share").value(), 1500.0 / 1600.0, 1e-9);
  EXPECT_DOUBLE_EQ(source("fleet/hot_links").value(), 0.0);
  EXPECT_DOUBLE_EQ(
      source("east/lidc_link_bytes_total{link=\"link://east->ops\"}").value(),
      1540.0);
}

}  // namespace
}  // namespace lidc::telemetry
