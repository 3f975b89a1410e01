#include "replica/prestage.hpp"

namespace lidc::replica {

void PrestageCoordinator::prestage(const std::string& consumerStage,
                                   const std::vector<std::string>& inputs) {
  for (const std::string& input : inputs) {
    const ndn::Name name(input);
    if (policy_) policy_->recordAccess(name);
    if (store_.contains(name)) {
      ++local_hits_;
      continue;
    }
    ++prestages_requested_;
    TransferRequest request;  // at kPrestagePriority
    request.tag = "prestage:" + consumerStage;
    scheduler_.enqueue(name, std::move(request));
  }
}

void PrestageCoordinator::ensureLocal(const std::string& stage,
                                      const std::vector<std::string>& inputs,
                                      std::function<void(std::uint64_t)> done) {
  // Collect the misses first: the shared countdown must be fully sized
  // before any transfer can settle.
  std::vector<ndn::Name> missing;
  for (const std::string& input : inputs) {
    const ndn::Name name(input);
    if (policy_) policy_->recordAccess(name);
    if (store_.contains(name)) {
      ++local_hits_;
    } else {
      missing.push_back(name);
    }
  }
  if (missing.empty()) {
    if (done) done(0);
    return;
  }
  struct Progress {
    std::size_t remaining;
    std::uint64_t bytesMoved = 0;
  };
  auto progress = std::make_shared<Progress>();
  progress->remaining = missing.size();
  for (const ndn::Name& name : missing) {
    ++dispatch_fetches_;
    TransferRequest request;
    request.priority = kDispatchPriority;
    request.tag = "dispatch:" + stage;
    scheduler_.enqueue(
        name, std::move(request),
        [progress, done](Status status, std::uint64_t bytes) {
          // A failed input fetch is not fatal here: the stage's own
          // gateway-side dataset validation reports it with the full
          // retry machinery behind it.
          if (status.ok()) progress->bytesMoved += bytes;
          if (--progress->remaining == 0 && done) done(progress->bytesMoved);
        });
  }
}

}  // namespace lidc::replica
