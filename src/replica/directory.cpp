#include "replica/directory.hpp"

#include <algorithm>
#include <set>

namespace lidc::replica {

ReplicaDirectory::ReplicaDirectory(ndn::Forwarder& forwarder)
    : SnapshotScraper(forwarder, "app://replica-directory", /*nonceSeed=*/0x4e5d,
                      kReplicaPrefix, /*group=*/"", "_map", /*timing=*/{}) {}

void ReplicaDirectory::onSnapshot(const std::string& cluster, std::string text) {
  maps_[cluster] = parseReplicaMap(text);
}

const ReplicaDirectory::ReplicaMap* ReplicaDirectory::liveMap(
    const std::string& cluster) const {
  if (isStale(cluster)) return nullptr;
  auto it = maps_.find(cluster);
  return it == maps_.end() ? nullptr : &it->second;
}

std::vector<std::string> ReplicaDirectory::holders(
    const ndn::Name& dataset) const {
  std::vector<std::string> out;
  const std::string uri = dataset.toUri();
  for (const auto& cluster : watchedClusters()) {
    const ReplicaMap* map = liveMap(cluster);
    if (map == nullptr) continue;
    auto it = map->find(uri);
    if (it != map->end() && it->second.state == ReplicaState::kReady) {
      out.push_back(cluster);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::optional<std::uint64_t> ReplicaDirectory::bytesOf(
    const ndn::Name& dataset) const {
  const std::string uri = dataset.toUri();
  for (const auto& cluster : watchedClusters()) {
    const ReplicaMap* map = liveMap(cluster);
    if (map == nullptr) continue;
    auto it = map->find(uri);
    if (it != map->end() && it->second.state == ReplicaState::kReady) {
      return it->second.bytes;
    }
  }
  return std::nullopt;
}

std::vector<std::string> ReplicaDirectory::knownDatasets() const {
  std::set<std::string> uris;
  for (const auto& cluster : watchedClusters()) {
    if (const ReplicaMap* map = liveMap(cluster)) {
      for (const auto& [uri, entry] : *map) uris.insert(uri);
    }
  }
  return {uris.begin(), uris.end()};
}

void ReplicaDirectory::attachTelemetry(telemetry::MetricsRegistry& registry) {
  const telemetry::CollectorCounters& c = counters();
  registry.bindCounter("lidc_replica_directory_scrapes_total", {}, c.scrapesStarted);
  registry.bindCounter("lidc_replica_directory_scrape_failures_total", {},
                       c.scrapesFailed);
  registry.bindCounter("lidc_replica_directory_manifest_reuses_total", {},
                       c.manifestReuses);
  registry.bindCounter("lidc_replica_directory_snapshots_fetched_total", {},
                       c.snapshotsFetched);
  registry.bindGauge("lidc_replica_directory_stale_clusters", {}, [this] {
    double stale = 0.0;
    for (const auto& cluster : watchedClusters()) {
      if (isStale(cluster)) stale += 1.0;
    }
    return stale;
  });
}

}  // namespace lidc::replica
