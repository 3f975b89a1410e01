// Prestage coordinator — glue between the WorkflowEngine's lookahead
// hooks and one compute cluster's TransferScheduler. Two entry points:
//
//   * prestage(): fired when a producer stage dispatches, with its
//     consumers' input names. Missing inputs are enqueued at low
//     priority, so they stream in while the producer runs — by the
//     time the consumer dispatches the bytes are already local.
//   * ensureLocal(): fired at a stage's own dispatch. Anything still
//     missing is enqueued at high priority; done() reports the bytes
//     those dispatch-time transfers actually moved. With lookahead on
//     this is 0 — the acceptance check for predictive pre-staging.
//
// Every input access feeds the placement policy's heat (one untenanted
// access each), so repeatedly-read datasets graduate to a higher
// target replication factor.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "replica/policy.hpp"
#include "replica/scheduler.hpp"

namespace lidc::replica {

class PrestageCoordinator {
 public:
  /// `policy` may be null (no heat accounting).
  PrestageCoordinator(TransferScheduler& scheduler, datalake::ObjectStore& store,
                      PlacementPolicy* policy = nullptr)
      : scheduler_(scheduler), store_(store), policy_(policy) {}

  /// Lookahead: stage `inputs` of the named consumer toward this
  /// cluster while its producer is still running.
  void prestage(const std::string& consumerStage,
                const std::vector<std::string>& inputs);

  /// Dispatch-time: make `inputs` local, then done(bytesMovedNow).
  void ensureLocal(const std::string& stage,
                   const std::vector<std::string>& inputs,
                   std::function<void(std::uint64_t)> done);

  [[nodiscard]] std::uint64_t prestagesRequested() const noexcept {
    return prestages_requested_;
  }
  [[nodiscard]] std::uint64_t dispatchFetches() const noexcept {
    return dispatch_fetches_;
  }
  [[nodiscard]] std::uint64_t localHits() const noexcept { return local_hits_; }

  [[nodiscard]] TransferScheduler& scheduler() noexcept { return scheduler_; }

 private:
  TransferScheduler& scheduler_;
  datalake::ObjectStore& store_;
  PlacementPolicy* policy_;
  std::uint64_t prestages_requested_ = 0;
  std::uint64_t dispatch_fetches_ = 0;
  std::uint64_t local_hits_ = 0;
};

}  // namespace lidc::replica
