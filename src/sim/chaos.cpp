#include "sim/chaos.hpp"

#include <memory>
#include <utility>

namespace lidc::sim {

std::string_view faultKindName(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::kLinkDown: return "link-down";
    case FaultKind::kLinkFlaps: return "link-flaps";
    case FaultKind::kLossBurst: return "loss-burst";
    case FaultKind::kLatencyBurst: return "latency-burst";
    case FaultKind::kNodeCrash: return "node-crash";
    case FaultKind::kClusterCrash: return "cluster-crash";
    case FaultKind::kBlackout: return "blackout";
    case FaultKind::kCorruption: return "corruption";
    case FaultKind::kSlowNode: return "slow-node";
    case FaultKind::kGrayGateway: return "gray-gateway";
    case FaultKind::kStaleReplay: return "stale-replay";
    case FaultKind::kNoisyNeighbor: return "noisy-neighbor";
    case FaultKind::kDrain: return "drain";
    case FaultKind::kCustom: return "custom";
  }
  return "unknown";
}

std::size_t ChaosEngine::declare(std::string label, FaultKind kind) {
  FaultRecord record;
  record.label = std::move(label);
  record.kind = kind;
  faults_.push_back(std::move(record));
  if (registry_ != nullptr) bindFault(faults_.size() - 1);
  return faults_.size() - 1;
}

void ChaosEngine::schedulePhase(std::size_t fault, Time at, bool inject,
                                std::function<void()> action) {
  sim_.scheduleAt(at, [this, fault, inject, action = std::move(action)] {
    FaultRecord& record = faults_[fault];
    if (inject) {
      ++record.injections;
    } else {
      ++record.recoveries;
    }
    log_.record(log::Level::kWarn, (inject ? "inject " : "recover ") + record.label +
                                       " (" + std::string(faultKindName(record.kind)) +
                                       ")");
    action();
  });
}

void ChaosEngine::linkDown(std::string label, net::Link& link, Time at,
                           Duration outage) {
  const std::size_t fault = declare(std::move(label), FaultKind::kLinkDown);
  schedulePhase(fault, at, /*inject=*/true, [&link] { link.setUp(false); });
  schedulePhase(fault, at + outage, /*inject=*/false, [&link] { link.setUp(true); });
}

void ChaosEngine::linkFlaps(std::string label, net::Link& link, Time from,
                            Time until, Duration meanUp, Duration meanDown) {
  const std::size_t fault = declare(std::move(label), FaultKind::kLinkFlaps);
  // The entire flap timeline is drawn now, from the engine seed, so the
  // schedule does not depend on event interleaving at run time.
  Time cursor = from;
  bool up = true;
  while (cursor < until) {
    const double meanSeconds = (up ? meanUp : meanDown).toSeconds();
    cursor = cursor + Duration::seconds(rng_.exponential(meanSeconds));
    if (cursor >= until) break;
    up = !up;
    const bool nowUp = up;
    schedulePhase(fault, cursor, /*inject=*/!nowUp,
                  [&link, nowUp] { link.setUp(nowUp); });
  }
  if (!up) {
    // Never leave the link down after the flap window.
    schedulePhase(fault, until, /*inject=*/false, [&link] { link.setUp(true); });
  }
}

void ChaosEngine::lossBurst(std::string label, net::Link& link, Time at,
                            Duration burst, double lossRate) {
  const std::size_t fault = declare(std::move(label), FaultKind::kLossBurst);
  // The pre-burst rate is captured at inject time (not plan time): the
  // link's parameters may have been reconfigured in between.
  auto previous = std::make_shared<double>(0.0);
  schedulePhase(fault, at, /*inject=*/true, [&link, previous, lossRate] {
    net::LinkParams params = link.params();
    *previous = params.lossRate;
    params.lossRate = lossRate;
    link.setParams(params);
  });
  schedulePhase(fault, at + burst, /*inject=*/false, [&link, previous] {
    net::LinkParams params = link.params();
    params.lossRate = *previous;
    link.setParams(params);
  });
}

void ChaosEngine::latencyBurst(std::string label, net::Link& link, Time at,
                               Duration burst, Duration extraLatency) {
  const std::size_t fault = declare(std::move(label), FaultKind::kLatencyBurst);
  auto previous = std::make_shared<Duration>();
  schedulePhase(fault, at, /*inject=*/true, [&link, previous, extraLatency] {
    net::LinkParams params = link.params();
    *previous = params.latency;
    params.latency = params.latency + extraLatency;
    link.setParams(params);
  });
  schedulePhase(fault, at + burst, /*inject=*/false, [&link, previous] {
    net::LinkParams params = link.params();
    params.latency = *previous;
    link.setParams(params);
  });
}

void ChaosEngine::nodeCrash(std::string label, k8s::Cluster& cluster,
                            std::string node, Time at) {
  const std::size_t fault = declare(std::move(label), FaultKind::kNodeCrash);
  schedulePhase(fault, at, /*inject=*/true,
                [&cluster, node = std::move(node)] { cluster.failNode(node); });
}

void ChaosEngine::clusterCrash(std::string label, k8s::Cluster& cluster, Time at) {
  const std::size_t fault = declare(std::move(label), FaultKind::kClusterCrash);
  schedulePhase(fault, at, /*inject=*/true, [&cluster] {
    // Node names are collected at fire time so nodes added after the
    // plan was written still crash with the cluster.
    for (const auto& name : cluster.nodeNames()) cluster.failNode(name);
  });
}

void ChaosEngine::blackout(std::string label, Time at, Duration window,
                           std::function<void(bool)> toggle) {
  const std::size_t fault = declare(std::move(label), FaultKind::kBlackout);
  schedulePhase(fault, at, /*inject=*/true, [toggle] { toggle(true); });
  schedulePhase(fault, at + window, /*inject=*/false, [toggle] { toggle(false); });
}

void ChaosEngine::corruption(std::string label, net::Link& link, Time at,
                             Duration window, double corruptRate) {
  const std::size_t fault = declare(std::move(label), FaultKind::kCorruption);
  auto previous = std::make_shared<double>(0.0);
  // Drawn at declaration so the stream depends only on the chaos seed
  // and the declaration order, never on injection timing.
  const std::uint64_t corruptSeed = rng_();
  schedulePhase(fault, at, /*inject=*/true,
                [&link, previous, corruptRate, corruptSeed] {
    net::LinkParams params = link.params();
    *previous = params.corruptRate;
    params.corruptRate = corruptRate;
    link.setParams(params);
    link.reseedCorruption(corruptSeed);
  });
  schedulePhase(fault, at + window, /*inject=*/false, [&link, previous] {
    net::LinkParams params = link.params();
    params.corruptRate = *previous;
    link.setParams(params);
  });
}

void ChaosEngine::slowNode(std::string label, k8s::Cluster& cluster,
                           std::string node, Time at, Duration window,
                           double factor) {
  const std::size_t fault = declare(std::move(label), FaultKind::kSlowNode);
  schedulePhase(fault, at, /*inject=*/true, [&cluster, node, factor] {
    cluster.setNodeSlowdown(node, factor);
  });
  schedulePhase(fault, at + window, /*inject=*/false,
                [&cluster, node = std::move(node)] {
                  cluster.setNodeSlowdown(node, 1.0);
                });
}

void ChaosEngine::grayGateway(std::string label, Time at, Duration window,
                              std::function<void(bool)> toggle) {
  const std::size_t fault = declare(std::move(label), FaultKind::kGrayGateway);
  schedulePhase(fault, at, /*inject=*/true, [toggle] { toggle(true); });
  schedulePhase(fault, at + window, /*inject=*/false, [toggle] { toggle(false); });
}

void ChaosEngine::staleReplay(std::string label, Time at, Duration window,
                              std::function<void(bool)> toggle) {
  const std::size_t fault = declare(std::move(label), FaultKind::kStaleReplay);
  schedulePhase(fault, at, /*inject=*/true, [toggle] { toggle(true); });
  schedulePhase(fault, at + window, /*inject=*/false, [toggle] { toggle(false); });
}

void ChaosEngine::noisyNeighbor(std::string label, Time from, Time until,
                                Duration meanGap,
                                std::function<void()> submit) {
  const std::size_t fault = declare(std::move(label), FaultKind::kNoisyNeighbor);
  // Like linkFlaps: the whole submit timeline is drawn at plan time from
  // the engine seed, independent of run-time event interleaving. Window
  // edges go through schedulePhase (trace + flight recorder); the burst
  // of individual submits only bumps the injection counter.
  schedulePhase(fault, from, /*inject=*/true, [] {});
  Time cursor = from;
  while (true) {
    cursor = cursor + Duration::seconds(rng_.exponential(meanGap.toSeconds()));
    if (cursor >= until) break;
    sim_.scheduleAt(cursor, [this, fault, submit] {
      ++faults_[fault].injections;
      submit();
    });
  }
  schedulePhase(fault, until, /*inject=*/false, [] {});
}

void ChaosEngine::drain(std::string label, Time at,
                        std::function<void()> action) {
  const std::size_t fault = declare(std::move(label), FaultKind::kDrain);
  schedulePhase(fault, at, /*inject=*/true, std::move(action));
}

void ChaosEngine::custom(std::string label, Time at, std::function<void()> apply) {
  const std::size_t fault = declare(std::move(label), FaultKind::kCustom);
  schedulePhase(fault, at, /*inject=*/true, std::move(apply));
}

std::uint64_t ChaosEngine::totalInjections() const noexcept {
  std::uint64_t total = 0;
  for (const auto& fault : faults_) total += fault.injections;
  return total;
}

std::uint64_t ChaosEngine::totalRecoveries() const noexcept {
  std::uint64_t total = 0;
  for (const auto& fault : faults_) total += fault.recoveries;
  return total;
}

void ChaosEngine::attachTelemetry(telemetry::MetricsRegistry& registry) {
  registry_ = &registry;
  registry.bindCounter("lidc_chaos_injections", {},
                       [this] { return totalInjections(); });
  registry.bindCounter("lidc_chaos_recoveries", {},
                       [this] { return totalRecoveries(); });
  registry.bindGauge("lidc_chaos_faults_declared", {},
                     [this] { return static_cast<double>(faults_.size()); });
  for (std::size_t fault = 0; fault < faults_.size(); ++fault) bindFault(fault);
}

void ChaosEngine::bindFault(std::size_t fault) {
  const FaultRecord& record = faults_[fault];
  registry_->bindCounter(
      "lidc_chaos_fault_injections",
      {{"kind", std::string(faultKindName(record.kind))}, {"fault", record.label}},
      [this, fault] { return faults_[fault].injections; });
}

}  // namespace lidc::sim
