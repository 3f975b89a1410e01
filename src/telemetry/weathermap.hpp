// Traffic observability plane, part 2 (see DESIGN.md §13): the fleet
// weathermap. An ops host runs one Weathermap, which scrapes every
// cluster's /ndn/k8s/telemetry/<cluster>/flow/ content group (via an
// embedded TelemetryCollector, so scraping inherits manifest reuse,
// staleness handling, and on-path caching) and rebuilds a fleet-wide
// view: per-link byte counters and utilization, CS-hit vs upstream
// split, per-tenant byte shares, and the Space-Saving top-k talkers
// each FlowAccountant exported.
//
// Read-only closes the loop into the alert plane: valueSource() feeds
// an AlertEngine (sustained link saturation, single-tenant link
// dominance), and links crossing the warn thresholds at scrape time
// drop flight-recorder events so fired alerts carry a non-empty
// post-mortem window.
//
// Everything downstream of a deterministic simulation stays
// deterministic: weathermapJson(), topTalkers(), and explainLink()
// render sorted views with fixed number formatting, so per-seed output
// is byte-identical (the determinism test keys on this).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/flight_recorder.hpp"
#include "telemetry/flow.hpp"
#include "telemetry/monitor.hpp"

namespace lidc::telemetry {

/// One reported heavy hitter on a link, identity recovered from the
/// exported lidc_flow_topk_bytes labels.
struct TopTalker {
  int rank = 0;
  std::string group = "-";
  std::string tenant = "-";
  std::string tag = "-";
  std::uint64_t bytes = 0;
};

/// One link's scraped state.
struct LinkView {
  std::string cluster;
  std::string link;
  std::uint64_t interests = 0;
  std::uint64_t dataPackets = 0;
  std::uint64_t nacks = 0;
  std::uint64_t bytes = 0;
  std::uint64_t csBytes = 0;
  std::uint64_t upstreamBytes = 0;
  double capacityBits = 0;
  double utilization = 0;
  double dominantShare = 0;
  std::map<std::string, std::uint64_t> tenantBytes;
  std::vector<TopTalker> talkers;  // rank order
};

class Weathermap {
 public:
  /// Attaches to the ops host's forwarder; scrapes the "flow" group.
  explicit Weathermap(ndn::Forwarder& forwarder, ScrapeTiming timing = {});

  void watchCluster(const std::string& cluster);
  void scrapeOnce(std::function<void()> done = nullptr);
  void start();
  void stop();

  /// Hot-link events (saturation / dominance threshold crossings at
  /// scrape time) land here, so alert windows are non-empty.
  void setFlightRecorder(FlightRecorder* recorder) noexcept {
    recorder_ = recorder;
  }

  /// Current fleet view, rebuilt from the collector's scraped values:
  /// cluster -> link URI -> view. Deterministically ordered.
  [[nodiscard]] std::map<std::string, std::map<std::string, LinkView>> links()
      const;

  /// Top-k talkers on one link (searched across clusters), rank order.
  [[nodiscard]] std::vector<TopTalker> topTalkers(const std::string& link) const;

  /// The whole fleet as stable JSON (sorted keys, fixed formatting).
  [[nodiscard]] std::string weathermapJson() const;

  /// Ascii post-mortem for one link, mirroring Tracer::explain(jobId):
  /// counters, CS/upstream split, utilization, dominance, top talkers.
  [[nodiscard]] std::string explainLink(const std::string& link) const;

  /// AlertEngine value source: everything collectorValueSource()
  /// answers ("<cluster>/<series>") plus fleet aggregates
  /// "fleet/max_utilization", "fleet/max_dominant_share", and
  /// "fleet/hot_links" (count of links over kSaturationWarn), computed
  /// when asked for.
  [[nodiscard]] AlertEngine::ValueSource valueSource() const;

  [[nodiscard]] TelemetryCollector& collector() noexcept { return collector_; }
  [[nodiscard]] const TelemetryCollector& collector() const noexcept {
    return collector_;
  }

  /// Utilization above this drops a flight-recorder event at scrape time
  /// (and is the natural threshold for a saturation alert rule).
  static constexpr double kSaturationWarn = 0.8;
  /// Dominant-tenant share above this drops a flight-recorder event.
  static constexpr double kDominanceWarn = 0.5;

 private:
  /// Rebuilds one cluster's link views from its scraped series.
  [[nodiscard]] std::map<std::string, LinkView> buildCluster(
      const std::string& cluster) const;
  /// Per-cluster staged-bytes ledger (lidc_flow_staged_bytes_total).
  [[nodiscard]] std::map<std::string, double> stagedSeries(
      const std::string& cluster) const;
  void afterScrape(const std::string& cluster);

  TelemetryCollector collector_;
  FlightRecorder* recorder_ = nullptr;
};

/// Parses a flat series key back into (metric name, labels):
/// `lidc_link_bytes_total{link="link://a->b"}` ->
/// {"lidc_link_bytes_total", {{"link","link://a->b"}}}. Series without
/// labels come back with an empty map; malformed label text yields the
/// parseable prefix. Exposed for tests.
[[nodiscard]] std::pair<std::string, std::map<std::string, std::string>>
parseSeriesKey(std::string_view series);

}  // namespace lidc::telemetry
