// Replica directory — the consumer side of the replica plane. An ops
// host (or gateway) scrapes every watched cluster's catalog as a
// SnapshotScraper (`_map` manifest, then the immutable per-seq
// snapshot, with manifest reuse when nothing changed) and answers
// "which clusters hold /ndn/k8s/data/X?" from the merged view. A
// blacked-out cluster ages into stale after its freshness window, so
// its replicas stop counting toward replication factors instead of
// wedging the directory.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ndn/forwarder.hpp"
#include "replica/catalog.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/snapshot.hpp"

namespace lidc::replica {

class ReplicaDirectory : public telemetry::SnapshotScraper {
 public:
  explicit ReplicaDirectory(ndn::Forwarder& forwarder);

  /// Clusters currently holding a ready replica of the dataset, from
  /// non-stale views only, sorted by cluster name (deterministic).
  [[nodiscard]] std::vector<std::string> holders(const ndn::Name& dataset) const;
  [[nodiscard]] std::size_t replicationFactor(const ndn::Name& dataset) const {
    return holders(dataset).size();
  }
  /// Size of the dataset per any ready replica (nullopt when unknown).
  [[nodiscard]] std::optional<std::uint64_t> bytesOf(
      const ndn::Name& dataset) const;

  /// Union of all dataset URIs across non-stale views, sorted.
  [[nodiscard]] std::vector<std::string> knownDatasets() const;

  /// Binds lidc_replica_directory_* counters into `registry`.
  void attachTelemetry(telemetry::MetricsRegistry& registry);

 private:
  using ReplicaMap = std::map<std::string, ReplicaEntry>;  // dataset URI -> entry

  void onSnapshot(const std::string& cluster, std::string text) override;
  /// The cluster's scraped map; null while the cluster is stale.
  [[nodiscard]] const ReplicaMap* liveMap(const std::string& cluster) const;

  std::map<std::string, ReplicaMap> maps_;
};

}  // namespace lidc::replica
