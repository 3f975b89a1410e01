// The named monitoring plane (paper SIV pattern, applied to telemetry;
// cf. OSDF's monitoring-as-a-service): each cluster's gateway node runs
// a TelemetryPublisher that serves signed metric snapshots under
//
//   /ndn/k8s/telemetry/<cluster>/<group>/_latest   -> "seq=N;generated=<ns>"
//   /ndn/k8s/telemetry/<cluster>/<group>/<seq>     -> Prometheus text
//
// on the named-snapshot plane (telemetry/snapshot.hpp); a `_latest`
// Interest re-checks its group at most once per second.
//
// The TelemetryCollector is the consumer side: it scrapes any number of
// clusters through ordinary Interests and scores each cluster's health
// from the scraped series; a blacked-out cluster shows up as stale
// after its freshness window instead of wedging the collector.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "ndn/forwarder.hpp"
#include "telemetry/alerts.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/snapshot.hpp"

namespace lidc::telemetry {

/// Root of the monitoring namespace.
inline const ndn::Name kTelemetryPrefix{"/ndn/k8s/telemetry"};

class TelemetryPublisher {
 public:
  /// Attaches to `forwarder` (the cluster's gateway NFD), registering
  /// /ndn/k8s/telemetry/<cluster> toward a new AppFace. The default
  /// "all" group exports the whole registry; addGroup() narrows by
  /// metric-name prefix (e.g. "forwarder" -> "lidc_forwarder").
  TelemetryPublisher(ndn::Forwarder& forwarder, MetricsRegistry& registry,
                     std::string clusterName);

  void addGroup(const std::string& group, const std::string& metricPrefix);

  /// A group whose snapshot text comes from `content` instead of the
  /// registry. A new sequence is exported only when `revision` has
  /// changed since the last export, so manifest reuse still works for
  /// slow-changing payloads — this is how the AlertEngine's transition
  /// log becomes /ndn/k8s/telemetry/<cluster>/alerts/.
  void addContentGroup(const std::string& group,
                       std::function<std::string()> content,
                       std::function<std::uint64_t()> revision);

  [[nodiscard]] const std::string& clusterName() const noexcept {
    return cluster_name_;
  }
  [[nodiscard]] std::uint64_t snapshotsGenerated() const noexcept {
    return publisher_.snapshotsGenerated();
  }
  [[nodiscard]] std::uint64_t interestsServed() const noexcept {
    return publisher_.interestsServed();
  }
  [[nodiscard]] std::uint64_t interestsRejected() const noexcept {
    return publisher_.interestsRejected();
  }

 private:
  MetricsRegistry& registry_;
  std::string cluster_name_;
  SnapshotPublisher publisher_;
};

struct TelemetryCollectorOptions : ScrapeTiming {
  /// Metric group to scrape.
  std::string group = "all";
};

class TelemetryCollector : public SnapshotScraper {
 public:
  /// One cluster's latest scraped values (scrape progress and
  /// staleness live on the SnapshotScraper).
  struct ClusterView {
    ClusterView() = default;
    ClusterView(const ClusterView&) = delete;
    ClusterView& operator=(const ClusterView&) = delete;

    SeriesTable values;  // Prometheus series -> value
    /// Previous snapshot's values — rejection pressure is scored on
    /// the delta between consecutive snapshots, not lifetime totals.
    SeriesTable prevValues;
    /// The latest snapshot's text (the text `values` decodes).
    const std::string& rawText = values.text();
    /// Hold-down state (see kHoldDown in monitor.cpp).
    sim::Time degradedUntil;
    double degradedScore = 1.0;
  };

  /// Invoked with (cluster, healthScore) after every scrape attempt
  /// settles for that cluster — success OR failure, so a blackout
  /// drives the score down as soon as the scrape times out.
  using HealthListener =
      std::function<void(const std::string& cluster, double score)>;

  /// Attaches to the collector host's forwarder.
  TelemetryCollector(ndn::Forwarder& forwarder,
                     TelemetryCollectorOptions options = {});

  /// Null until a scrape of the cluster settles.
  [[nodiscard]] const ClusterView* view(const std::string& cluster) const;
  /// Convenience: series value from the cluster's view (0 if absent).
  [[nodiscard]] double metric(const std::string& cluster,
                              const std::string& series) const;

  /// Aggregated cluster health in [0, 1]: 0 when stale or never
  /// scraped; otherwise the gateway's healthy-node fraction discounted
  /// by admission-rejection pressure since the previous snapshot, held
  /// down for a while after it degrades. 1.0 = route work here, 0.0 =
  /// steer away.
  [[nodiscard]] double healthScore(const std::string& cluster) const;

  void setHealthListener(HealthListener listener) {
    health_listener_ = std::move(listener);
  }

  /// Binds lidc_collector_* counters plus the stale-cluster gauge and a
  /// health gauge per watched cluster (watched before or after this
  /// call) into `registry`.
  void attachTelemetry(MetricsRegistry& registry);

  /// Forgets a cluster's scraped values (keeps it watched), forcing the
  /// next scrape to re-fetch the snapshot Data — which a warm Content
  /// Store on the path then answers without touching the publisher.
  void invalidate(const std::string& cluster);

 private:
  void onWatched(const std::string& cluster) override;
  void onSnapshot(const std::string& cluster, std::string text) override;
  /// Scores the cluster, arms the hold-down, and notifies the listener.
  void onSettled(const std::string& cluster) override;
  /// healthScore() without the hold-down memory.
  [[nodiscard]] double rawHealthScore(const std::string& cluster) const;
  void bindHealthGauge(const std::string& cluster);

  std::map<std::string, ClusterView> views_;
  HealthListener health_listener_;
  MetricsRegistry* registry_ = nullptr;
};

/// Adapter: an AlertEngine value source over a collector's scraped
/// views. For every watched cluster C it answers
///   "<C>/stale"  — 1 when the cluster is stale, else 0
///   "<C>/health" — healthScore(C)
///   "<C>/<series>" — each scraped Prometheus series
/// so rules can reference cross-cluster series with stable names. Each
/// lookup reads only the series asked for.
[[nodiscard]] AlertEngine::ValueSource collectorValueSource(
    const TelemetryCollector& collector);

}  // namespace lidc::telemetry
