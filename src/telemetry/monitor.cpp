#include "telemetry/monitor.hpp"

#include <algorithm>
#include <string>
#include <string_view>

namespace lidc::telemetry {

TelemetryPublisher::TelemetryPublisher(ndn::Forwarder& forwarder,
                                       MetricsRegistry& registry,
                                       std::string clusterName)
    : registry_(registry),
      cluster_name_(std::move(clusterName)),
      publisher_(forwarder, ndn::Name(kTelemetryPrefix).append(cluster_name_),
                 "app://telemetry/" + cluster_name_, "_latest",
                 sim::Duration::seconds(1)) {
  addGroup("all", "");
}

void TelemetryPublisher::addGroup(const std::string& group,
                                  const std::string& metricPrefix) {
  publisher_.addGroup(
      group, [this, metricPrefix] { return registry_.toPrometheus(metricPrefix); });
}

void TelemetryPublisher::addContentGroup(const std::string& group,
                                         std::function<std::string()> content,
                                         std::function<std::uint64_t()> revision) {
  publisher_.addGroup(group, std::move(content), std::move(revision));
}

TelemetryCollector::TelemetryCollector(ndn::Forwarder& forwarder,
                                       TelemetryCollectorOptions options)
    : SnapshotScraper(forwarder, "app://telemetry-collector", /*nonceSeed=*/0x7e1e,
                      kTelemetryPrefix, options.group, "_latest", options) {}

void TelemetryCollector::onWatched(const std::string& cluster) {
  if (registry_ != nullptr) bindHealthGauge(cluster);
}

void TelemetryCollector::onSnapshot(const std::string& cluster, std::string text) {
  ClusterView& view = views_[cluster];
  view.prevValues = std::move(view.values);
  view.values = SeriesTable(std::move(text));
}

const TelemetryCollector::ClusterView* TelemetryCollector::view(
    const std::string& cluster) const {
  auto it = views_.find(cluster);
  return it == views_.end() ? nullptr : &it->second;
}

double TelemetryCollector::metric(const std::string& cluster,
                                  const std::string& series) const {
  const ClusterView* v = view(cluster);
  if (!v) return 0.0;
  return v->values.find(series).value_or(0.0);
}

void TelemetryCollector::invalidate(const std::string& cluster) {
  views_.erase(cluster);
  forget(cluster);
}

namespace {

/// Score of a cluster never scraped or past its freshness window (a
/// blacked-out gateway lands here).
constexpr double kStaleScore = 0.0;
/// Gauge series (before the {cluster=...} label) carrying the gateway's
/// ready-node fraction; a missing series counts as healthy.
constexpr std::string_view kHealthyFractionSeries =
    "lidc_gateway_healthy_node_fraction";
/// Counter series of refused work (rejected or dropped compute
/// Interests) and of the compute Interests received.
constexpr std::string_view kHealthRejectedSeries = "lidc_gateway_health_rejected";
constexpr std::string_view kCapacityRejectedSeries = "lidc_gateway_capacity_rejected";
constexpr std::string_view kBlackoutDroppedSeries = "lidc_gateway_blackout_dropped";
constexpr std::string_view kComputeReceivedSeries = "lidc_gateway_compute_received";
/// Weight of the refused-work ratio (admission rejections + blackout
/// drops since the previous snapshot, over compute Interests received)
/// in the score.
constexpr double kRejectionWeight = 1.0;
/// A raw score below this arms the hold-down: the cluster keeps reporting
/// its degraded score for kHoldDown even after steering has moved traffic
/// away (so no new evidence accumulates), instead of flapping healthy and
/// luring jobs back into the fault.
constexpr double kDegradedThreshold = 0.5;
constexpr sim::Duration kHoldDown = sim::Duration::seconds(10);

double clamp01(double v) { return v < 0.0 ? 0.0 : (v > 1.0 ? 1.0 : v); }

/// Series lookup that tolerates both labeled ("name{cluster=\"x\"}")
/// and bare ("name") exports. The labeled key is built in one buffer
/// that every lookup reuses, so once it has grown none allocates.
double seriesValue(const SeriesTable& values, std::string_view name,
                   std::string_view cluster, double fallback) {
  thread_local std::string key;
  key.assign(name).append("{cluster=\"").append(cluster).append("\"}");
  if (const auto labeled = values.find(key)) return *labeled;
  return values.find(name).value_or(fallback);
}

double seriesDelta(const TelemetryCollector::ClusterView& view,
                   std::string_view name, std::string_view cluster) {
  const double now = seriesValue(view.values, name, cluster, 0.0);
  const double before = seriesValue(view.prevValues, name, cluster, 0.0);
  return now > before ? now - before : 0.0;
}

}  // namespace

double TelemetryCollector::rawHealthScore(const std::string& cluster) const {
  if (isStale(cluster)) return kStaleScore;
  const ClusterView* v = view(cluster);
  if (v == nullptr) return kStaleScore;

  // Base: the gateway's own view of how many nodes are ready.
  double score = clamp01(seriesValue(v->values, kHealthyFractionSeries, cluster, 1.0));

  // Discount by refused-work pressure since the last snapshot: a
  // gateway shedding load (health gate, capacity) or dropping Interests
  // dark (blackout) is degraded even while its nodes still report
  // ready — and even while its telemetry publisher keeps answering.
  const double rejected = seriesDelta(*v, kHealthRejectedSeries, cluster) +
                          seriesDelta(*v, kCapacityRejectedSeries, cluster) +
                          seriesDelta(*v, kBlackoutDroppedSeries, cluster);
  const double received = seriesDelta(*v, kComputeReceivedSeries, cluster);
  if (rejected > 0.0) {
    const double pressure = rejected / std::max(1.0, received);
    score *= clamp01(1.0 - kRejectionWeight * pressure);
  }
  return clamp01(score);
}

double TelemetryCollector::healthScore(const std::string& cluster) const {
  const double raw = rawHealthScore(cluster);
  const ClusterView* v = view(cluster);
  if (v != nullptr && v->degradedUntil.toNanos() > 0 &&
      sim_.now() < v->degradedUntil) {
    // Hold-down: once steering moves traffic away, the refused-work
    // deltas go quiet — without memory the score would snap back to
    // healthy and lure jobs straight back into the fault.
    return std::min(raw, v->degradedScore);
  }
  return raw;
}

void TelemetryCollector::onSettled(const std::string& cluster) {
  // Every settled scrape reports the (possibly degraded) health score,
  // so a blackout is announced as soon as the scrape fails — the
  // steering loop must not wait for a hard job failure.
  ClusterView& view = views_[cluster];
  const double raw = rawHealthScore(cluster);
  if (raw < kDegradedThreshold) {
    view.degradedUntil = sim_.now() + kHoldDown;
    view.degradedScore = raw;
  }
  if (health_listener_) health_listener_(cluster, healthScore(cluster));
}

void TelemetryCollector::attachTelemetry(MetricsRegistry& registry) {
  registry_ = &registry;
  const CollectorCounters& c = counters();
  registry.bindCounter("lidc_collector_scrapes_started_total", {}, c.scrapesStarted);
  registry.bindCounter("lidc_collector_scrape_failures_total", {}, c.scrapesFailed);
  registry.bindCounter("lidc_collector_snapshots_fetched_total", {},
                       c.snapshotsFetched);
  registry.bindCounter("lidc_collector_manifest_reuses_total", {}, c.manifestReuses);
  registry.bindCounter("lidc_collector_signature_failures_total", {},
                       c.signatureFailures);
  for (const auto& cluster : watchedClusters()) bindHealthGauge(cluster);
  registry.bindGauge("lidc_collector_stale_clusters", {}, [this] {
    double stale = 0.0;
    for (const auto& cluster : watchedClusters()) {
      if (isStale(cluster)) stale += 1.0;
    }
    return stale;
  });
}

void TelemetryCollector::bindHealthGauge(const std::string& cluster) {
  registry_->bindGauge("lidc_collector_cluster_health", {{"cluster", cluster}},
                       [this, cluster] { return healthScore(cluster); });
}

AlertEngine::ValueSource collectorValueSource(
    const TelemetryCollector& collector) {
  return [&collector](std::string_view key) -> std::optional<double> {
    // Later clusters shadow earlier ones, and a scraped series shadows a
    // cluster's stale/health entry, as in one map filled in that order.
    const std::vector<std::string>& clusters = collector.watchedClusters();
    for (auto it = clusters.rbegin(); it != clusters.rend(); ++it) {
      const std::string& cluster = *it;
      if (key.size() <= cluster.size() || key[cluster.size()] != '/' ||
          key.compare(0, cluster.size(), cluster) != 0) {
        continue;
      }
      const std::string_view rest = key.substr(cluster.size() + 1);
      if (const auto* v = collector.view(cluster)) {
        if (const auto value = v->values.find(rest)) return value;
      }
      if (rest == "health") return collector.healthScore(cluster);
      if (rest == "stale") return collector.isStale(cluster) ? 1.0 : 0.0;
    }
    return std::nullopt;
  };
}

}  // namespace lidc::telemetry
