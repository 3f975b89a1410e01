// Placement policy — decides how many replicas each dataset should
// have and where the missing ones go. Inputs are the signals the paper
// names for control-plane intelligence: access heat (weighted by the
// accessing tenant's share), per-cluster health scores from the
// telemetry plane, and free lake capacity. plan() diffs the desired
// state against a ReplicaDirectory's observed state and emits
// deterministic actions; planLog() is the cumulative byte-identical
// record of every decision, so same-seed simulations replay exactly.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ndn/name.hpp"
#include "replica/directory.hpp"

namespace lidc::replica {

/// One planned transfer: stage `dataset` onto `destination`.
struct PlacementAction {
  ndn::Name dataset;
  std::string destination;
  int priority = 0;
};

class PlacementPolicy {
 public:
  /// A dataset whose weighted access count reaches this is hot.
  static constexpr double kHotAccessThreshold = 3.0;

  /// Every known dataset wants one replica; a hot one wants
  /// `hotReplicas` (hot data is worth the lake space).
  explicit PlacementPolicy(std::size_t hotReplicas = 2)
      : hot_replicas_(hotReplicas) {}

  /// Feeds one access to a dataset; `weight` carries the tenant's
  /// fair-share weight (1.0 for untenanted access).
  void recordAccess(const ndn::Name& dataset, double weight = 1.0);
  [[nodiscard]] double heat(const ndn::Name& dataset) const;

  /// Telemetry-plane health score in [0, 1] per candidate cluster.
  void observeHealth(const std::string& cluster, double score);
  /// Free lake capacity per candidate cluster.
  void observeFreeBytes(const std::string& cluster, std::uint64_t freeBytes);

  [[nodiscard]] std::size_t targetReplicas(const ndn::Name& dataset) const;

  /// Diffs desired replication against the directory's observed state.
  /// Under-replicated datasets get one action per missing replica,
  /// destinations chosen from non-stale watched clusters that pass the
  /// health bar and advertise at least the dataset's size free (when
  /// both are known), best-first by (health desc, free bytes desc, name
  /// asc). Deterministic for a given (policy, directory) state; every
  /// call appends to planLog().
  [[nodiscard]] std::vector<PlacementAction> plan(
      const ReplicaDirectory& directory);

  /// Datasets the last plan() found under-replicated (missing healthy
  /// destinations count too — they stay under-replicated).
  [[nodiscard]] std::size_t lastUnderReplicated() const noexcept {
    return last_under_replicated_;
  }

  /// Cumulative deterministic decision log.
  [[nodiscard]] const std::string& planLog() const noexcept { return plan_log_; }

 private:
  std::size_t hot_replicas_;
  std::map<std::string, double> heat_;               // dataset URI -> weight sum
  std::map<std::string, double> health_;             // cluster -> score
  std::map<std::string, std::uint64_t> free_bytes_;  // cluster -> free lake bytes
  std::string plan_log_;
  std::uint64_t plans_ = 0;
  std::size_t last_under_replicated_ = 0;
};

}  // namespace lidc::replica
