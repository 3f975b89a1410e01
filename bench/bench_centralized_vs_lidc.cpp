// Ablation D — decentralized (LIDC) vs logically centralized control.
//
// Claims (paper SI, SVII): a centralized control plane (a) adds
// controller round trips to every operation, (b) is a single point of
// failure, and (c) needs manual cluster registration. This bench runs
// the same job stream through both control planes and then injects a
// controller outage.
#include <cstdio>

#include "bench_util.hpp"
#include "core/centralized.hpp"
#include "core/client.hpp"
#include "core/overlay.hpp"

namespace {

using namespace lidc;

constexpr int kClusters = 3;
constexpr int kJobs = 50;

void registerSleeper(core::ComputeCluster& cluster) {
  cluster.cluster().registerApp("sleeper", [](k8s::AppContext&) {
    k8s::AppResult result;
    result.runtime = sim::Duration::seconds(10);
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

struct RunStats {
  int placed = 0;
  int failed = 0;
  bench::Summary latencyMs;
};

RunStats runLidc(bool controllerOutage) {
  sim::Simulator sim;
  core::ClusterOverlay overlay(sim);
  overlay.addNode("client-host");
  for (int i = 0; i < kClusters; ++i) {
    core::ComputeClusterConfig config;
    config.name = "cluster-" + std::to_string(i);
    config.perNode = k8s::Resources{MilliCpu::fromCores(64), ByteSize::fromGiB(256)};
    registerSleeper(overlay.addCluster(config));
    overlay.connect("client-host", config.name,
                    net::LinkParams{sim::Duration::millis(10 + 15 * i)});
    overlay.announceCluster(config.name);
  }
  // There is no controller to fail in LIDC; an "outage" has no target.
  (void)controllerOutage;

  core::LidcClient client(*overlay.topology().node("client-host"), "bench");
  RunStats stats;
  std::vector<double> latencies;
  for (int i = 0; i < kJobs; ++i) {
    client.submit(sleepRequest(), [&](Result<core::SubmitResult> r) {
      if (r.ok()) {
        ++stats.placed;
        latencies.push_back(r->placementLatency.toMillis());
      } else {
        ++stats.failed;
      }
    });
    sim.runUntil(sim.now() + sim::Duration::seconds(1));
  }
  sim.runUntil(sim.now() + sim::Duration::seconds(30));
  stats.latencyMs = bench::summarize(latencies);
  return stats;
}

RunStats runCentralized(bool controllerOutage) {
  sim::Simulator sim;
  core::ClusterOverlay overlay(sim);
  core::CentralizedController controller(sim);
  for (int i = 0; i < kClusters; ++i) {
    core::ComputeClusterConfig config;
    config.name = "cluster-" + std::to_string(i);
    config.perNode = k8s::Resources{MilliCpu::fromCores(64), ByteSize::fromGiB(256)};
    auto& cluster = overlay.addCluster(config);
    registerSleeper(cluster);
    // Manual registration step the paper criticises.
    controller.registerCluster(cluster, sim::Duration::millis(10 + 15 * i));
  }

  RunStats stats;
  std::vector<double> latencies;
  for (int i = 0; i < kJobs; ++i) {
    if (controllerOutage && i == kJobs / 2) controller.setDown(true);
    controller.submit(sleepRequest(),
                      [&](Result<core::CentralizedController::SubmitAck> r) {
                        if (r.ok()) {
                          ++stats.placed;
                          latencies.push_back(r->latency.toMillis());
                        } else {
                          ++stats.failed;
                        }
                      });
    sim.runUntil(sim.now() + sim::Duration::seconds(1));
  }
  sim.runUntil(sim.now() + sim::Duration::seconds(30));
  stats.latencyMs = bench::summarize(latencies);
  return stats;
}

}  // namespace

int main() {
  bench::printHeader("Ablation D: LIDC vs centralized controller (" +
                     std::to_string(kJobs) + " jobs, " + std::to_string(kClusters) +
                     " clusters)");
  bench::printRow({"system", "placed", "failed", "lat-mean", "lat-p95"});
  bench::printRule(5);

  const RunStats lidc = runLidc(false);
  bench::printRow({"LIDC", std::to_string(lidc.placed), std::to_string(lidc.failed),
                   bench::fmt(lidc.latencyMs.mean) + "ms",
                   bench::fmt(lidc.latencyMs.p95) + "ms"});
  const RunStats central = runCentralized(false);
  bench::printRow({"centralized", std::to_string(central.placed),
                   std::to_string(central.failed),
                   bench::fmt(central.latencyMs.mean) + "ms",
                   bench::fmt(central.latencyMs.p95) + "ms"});

  bench::printHeader("Ablation D2: controller outage mid-run (single point of failure)");
  bench::printRow({"system", "placed", "failed", "lat-mean", "lat-p95"});
  bench::printRule(5);
  const RunStats lidcOutage = runLidc(true);
  bench::printRow({"LIDC", std::to_string(lidcOutage.placed),
                   std::to_string(lidcOutage.failed),
                   bench::fmt(lidcOutage.latencyMs.mean) + "ms",
                   bench::fmt(lidcOutage.latencyMs.p95) + "ms"});
  const RunStats centralOutage = runCentralized(true);
  bench::printRow({"centralized", std::to_string(centralOutage.placed),
                   std::to_string(centralOutage.failed),
                   bench::fmt(centralOutage.latencyMs.mean) + "ms",
                   bench::fmt(centralOutage.latencyMs.p95) + "ms"});

  std::printf(
      "shape check: comparable latency when healthy (LIDC follows the nearest\n"
      "cluster; the controller adds relay hops); under controller outage the\n"
      "centralized plane places nothing while LIDC is unaffected — it has no\n"
      "controller to lose.\n");

  bench::JsonReport report("centralized_vs_lidc");
  report.add("lidc_placed", lidc.placed);
  report.add("lidc_failed", lidc.failed);
  report.add("lidc_latency_mean_ms", lidc.latencyMs.mean);
  report.add("lidc_latency_p95_ms", lidc.latencyMs.p95);
  report.add("central_placed", central.placed);
  report.add("central_failed", central.failed);
  report.add("central_latency_mean_ms", central.latencyMs.mean);
  report.add("central_latency_p95_ms", central.latencyMs.p95);
  report.add("lidc_outage_placed", lidcOutage.placed);
  report.add("lidc_outage_failed", lidcOutage.failed);
  report.add("central_outage_placed", centralOutage.placed);
  report.add("central_outage_failed", centralOutage.failed);
  report.write();
  return 0;
}
