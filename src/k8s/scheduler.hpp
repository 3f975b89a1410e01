// The pod scheduler: filter (enough free cpu/memory, node Ready) then
// score. Two scoring policies are provided, mirroring kube-scheduler's
// LeastAllocated (spread) and MostAllocated (bin-pack) strategies.
#pragma once

#include <string>
#include <vector>

#include "common/status.hpp"
#include "k8s/node.hpp"
#include "k8s/pod.hpp"

namespace lidc::k8s {

enum class ScoringPolicy {
  kLeastAllocated,  // prefer emptier nodes (spread)
  kMostAllocated,   // prefer fuller nodes (bin-pack)
};

class Scheduler {
 public:
  explicit Scheduler(ScoringPolicy policy = ScoringPolicy::kLeastAllocated)
      : policy_(policy) {}

  [[nodiscard]] ScoringPolicy policy() const noexcept { return policy_; }

  /// Picks the best node for the pod's requests; returns its name.
  /// Fails with kResourceExhausted when no node fits.
  [[nodiscard]] Result<std::string> selectNode(const Pod& pod,
                                               const std::vector<Node*>& nodes) const;

 private:
  [[nodiscard]] double score(const Node& node, const Resources& requests) const;

  ScoringPolicy policy_;
};

}  // namespace lidc::k8s
