// Ablation C — failover / resilience.
//
// Claim (paper SI): LIDC "adapts in real-time to changes in load,
// network conditions, or cluster availability". This bench kills the
// nearest cluster while a stream of jobs is being placed and measures
// (a) per-job placement outcome around the outage and (b) the placement
// latency penalty of failing over, comparing LIDC's nack-based failover
// with the centralized controller's heartbeat-delayed detection.
#include <cstdio>

#include "bench_util.hpp"
#include "core/centralized.hpp"
#include "core/client.hpp"
#include "core/overlay.hpp"

namespace {

using namespace lidc;

void registerSleeper(core::ComputeCluster& cluster) {
  cluster.cluster().registerApp("sleeper", [](k8s::AppContext&) {
    k8s::AppResult result;
    result.runtime = sim::Duration::seconds(20);
    return result;
  });
  cluster.gateway().jobs().mapAppToImage("sleep", "sleeper");
}

core::ComputeRequest sleepRequest() {
  core::ComputeRequest request;
  request.app = "sleep";
  request.cpu = MilliCpu::fromCores(1);
  request.memory = ByteSize::fromGiB(1);
  return request;
}

struct FailoverResult {
  int placedBeforeOutage = 0;
  int placedDuringOutage = 0;
  int failedDuringOutage = 0;
  double meanLatencyBeforeMs = 0;
  double meanLatencyDuringMs = 0;
};

FailoverResult runLidc() {
  sim::Simulator sim;
  core::ClusterOverlay overlay(sim);
  overlay.addNode("client-host");
  core::ComputeClusterConfig nearConfig;
  nearConfig.name = "near";
  nearConfig.perNode = k8s::Resources{MilliCpu::fromCores(64), ByteSize::fromGiB(256)};
  registerSleeper(overlay.addCluster(nearConfig));
  core::ComputeClusterConfig farConfig;
  farConfig.name = "far";
  farConfig.perNode = k8s::Resources{MilliCpu::fromCores(64), ByteSize::fromGiB(256)};
  registerSleeper(overlay.addCluster(farConfig));
  overlay.connect("client-host", "near", net::LinkParams{sim::Duration::millis(5)});
  overlay.connect("client-host", "far", net::LinkParams{sim::Duration::millis(60)});
  overlay.announceCluster("near");
  overlay.announceCluster("far");

  core::LidcClient client(*overlay.topology().node("client-host"), "bench");

  FailoverResult result;
  std::vector<double> before;
  std::vector<double> during;
  bool outage = false;

  // One job per simulated second for 60 s; outage at t=30 s.
  for (int second = 0; second < 60; ++second) {
    if (second == 30) {
      overlay.failCluster("near");
      outage = true;
    }
    client.submit(sleepRequest(), [&, outage](Result<core::SubmitResult> r) {
      if (!r.ok()) {
        if (outage) ++result.failedDuringOutage;
        return;
      }
      if (outage) {
        ++result.placedDuringOutage;
        during.push_back(r->placementLatency.toMillis());
      } else {
        ++result.placedBeforeOutage;
        before.push_back(r->placementLatency.toMillis());
      }
    });
    sim.runUntil(sim.now() + sim::Duration::seconds(1));
  }
  sim.runUntil(sim.now() + sim::Duration::seconds(30));
  result.meanLatencyBeforeMs = bench::summarize(before).mean;
  result.meanLatencyDuringMs = bench::summarize(during).mean;
  return result;
}

FailoverResult runCentralized() {
  sim::Simulator sim;
  core::ClusterOverlay overlay(sim);
  core::CentralizedController controller(sim);

  core::ComputeClusterConfig nearConfig;
  nearConfig.name = "near";
  nearConfig.perNode = k8s::Resources{MilliCpu::fromCores(64), ByteSize::fromGiB(256)};
  auto& nearCluster = overlay.addCluster(nearConfig);
  registerSleeper(nearCluster);
  core::ComputeClusterConfig farConfig;
  farConfig.name = "far";
  farConfig.perNode = k8s::Resources{MilliCpu::fromCores(64), ByteSize::fromGiB(256)};
  auto& farCluster = overlay.addCluster(farConfig);
  registerSleeper(farCluster);
  controller.registerCluster(nearCluster, sim::Duration::millis(5));
  controller.registerCluster(farCluster, sim::Duration::millis(60));

  FailoverResult result;
  std::vector<double> before;
  std::vector<double> during;
  bool outage = false;

  for (int second = 0; second < 60; ++second) {
    if (second == 30) {
      controller.setClusterReachable("near", false);
      outage = true;
    }
    controller.submit(
        sleepRequest(), [&, outage](Result<core::CentralizedController::SubmitAck> r) {
          if (!r.ok()) {
            if (outage) ++result.failedDuringOutage;
            return;
          }
          if (outage) {
            ++result.placedDuringOutage;
            during.push_back(r->latency.toMillis());
          } else {
            ++result.placedBeforeOutage;
            before.push_back(r->latency.toMillis());
          }
        });
    sim.runUntil(sim.now() + sim::Duration::seconds(1));
  }
  sim.runUntil(sim.now() + sim::Duration::seconds(30));
  result.meanLatencyBeforeMs = bench::summarize(before).mean;
  result.meanLatencyDuringMs = bench::summarize(during).mean;
  return result;
}

}  // namespace

int main() {
  bench::printHeader("Ablation C: failover after nearest-cluster outage (30 jobs each side)");
  bench::printRow({"system", "ok-before", "ok-during", "lost-during",
                   "lat-before", "lat-during"});
  bench::printRule(6);

  const FailoverResult lidc = runLidc();
  bench::printRow({"LIDC", std::to_string(lidc.placedBeforeOutage),
                   std::to_string(lidc.placedDuringOutage),
                   std::to_string(lidc.failedDuringOutage),
                   bench::fmt(lidc.meanLatencyBeforeMs) + "ms",
                   bench::fmt(lidc.meanLatencyDuringMs) + "ms"});

  const FailoverResult central = runCentralized();
  bench::printRow({"centralized", std::to_string(central.placedBeforeOutage),
                   std::to_string(central.placedDuringOutage),
                   std::to_string(central.failedDuringOutage),
                   bench::fmt(central.meanLatencyBeforeMs) + "ms",
                   bench::fmt(central.meanLatencyDuringMs) + "ms"});

  std::printf(
      "shape check: LIDC loses no jobs (nack failover within one RTT); the\n"
      "centralized baseline keeps scheduling onto the dead cluster until its\n"
      "next heartbeat and loses those jobs.\n");

  bench::JsonReport report("failover");
  report.add("lidc_ok_before", lidc.placedBeforeOutage);
  report.add("lidc_ok_during", lidc.placedDuringOutage);
  report.add("lidc_lost_during", lidc.failedDuringOutage);
  report.add("lidc_latency_before_ms", lidc.meanLatencyBeforeMs);
  report.add("lidc_latency_during_ms", lidc.meanLatencyDuringMs);
  report.add("central_ok_before", central.placedBeforeOutage);
  report.add("central_ok_during", central.placedDuringOutage);
  report.add("central_lost_during", central.failedDuringOutage);
  report.add("central_latency_before_ms", central.meanLatencyBeforeMs);
  report.add("central_latency_during_ms", central.meanLatencyDuringMs);
  report.write();
  return 0;
}
