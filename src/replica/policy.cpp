#include "replica/policy.hpp"

#include <algorithm>

namespace lidc::replica {

namespace {
/// Replicas every known dataset should have.
constexpr std::size_t kBaseReplicas = 1;
/// Clusters below this health score are not placement candidates.
constexpr double kMinHealth = 0.5;
}  // namespace

void PlacementPolicy::recordAccess(const ndn::Name& dataset, double weight) {
  heat_[dataset.toUri()] += weight;
}

double PlacementPolicy::heat(const ndn::Name& dataset) const {
  auto it = heat_.find(dataset.toUri());
  return it == heat_.end() ? 0.0 : it->second;
}

void PlacementPolicy::observeHealth(const std::string& cluster, double score) {
  health_[cluster] = score;
}

void PlacementPolicy::observeFreeBytes(const std::string& cluster,
                                       std::uint64_t freeBytes) {
  free_bytes_[cluster] = freeBytes;
}

std::size_t PlacementPolicy::targetReplicas(const ndn::Name& dataset) const {
  return heat(dataset) >= kHotAccessThreshold ? hot_replicas_ : kBaseReplicas;
}

std::vector<PlacementAction> PlacementPolicy::plan(
    const ReplicaDirectory& directory) {
  ++plans_;
  plan_log_ += "plan#" + std::to_string(plans_) + "\n";
  std::vector<PlacementAction> actions;
  last_under_replicated_ = 0;

  // Candidate clusters: watched, non-stale, above the health bar.
  // Sorted best-first by (health desc, free bytes desc, name asc) so
  // destination choice is deterministic.
  struct Candidate {
    std::string name;
    double health;
    std::uint64_t freeBytes;
  };
  std::vector<Candidate> candidates;
  std::vector<std::string> watched = directory.watchedClusters();
  std::sort(watched.begin(), watched.end());
  for (const auto& cluster : watched) {
    if (directory.isStale(cluster)) continue;
    auto healthIt = health_.find(cluster);
    const double health = healthIt == health_.end() ? 1.0 : healthIt->second;
    if (health < kMinHealth) continue;
    auto freeIt = free_bytes_.find(cluster);
    const std::uint64_t freeBytes =
        freeIt == free_bytes_.end() ? UINT64_MAX : freeIt->second;
    candidates.push_back({cluster, health, freeBytes});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.health != b.health) return a.health > b.health;
              if (a.freeBytes != b.freeBytes) return a.freeBytes > b.freeBytes;
              return a.name < b.name;
            });

  for (const std::string& uri : directory.knownDatasets()) {
    const ndn::Name dataset(uri);
    const std::vector<std::string> have = directory.holders(dataset);
    const std::size_t want = targetReplicas(dataset);
    if (have.size() >= want) continue;
    ++last_under_replicated_;
    const auto size = directory.bytesOf(dataset);
    std::size_t missing = want - have.size();
    // Hot datasets repair first (higher priority in the transfer queue).
    const int priority = static_cast<int>(want);
    std::string chosen;
    for (const Candidate& candidate : candidates) {
      if (missing == 0) break;
      if (std::find(have.begin(), have.end(), candidate.name) != have.end()) {
        continue;
      }
      if (size && candidate.freeBytes != UINT64_MAX &&
          candidate.freeBytes < *size) {
        continue;
      }
      actions.push_back({dataset, candidate.name, priority});
      chosen += (chosen.empty() ? "" : ",") + candidate.name;
      --missing;
    }
    plan_log_ += "  " + uri + " have=" + std::to_string(have.size()) +
                 " want=" + std::to_string(want) + " dest=" +
                 (chosen.empty() ? "<none>" : chosen) + "\n";
  }
  return actions;
}

}  // namespace lidc::replica
