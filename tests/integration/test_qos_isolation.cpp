// End-to-end noisy-neighbor isolation (ISSUE 7 acceptance): three
// tenants share one saturated cluster through the QoS admission plane.
// A chaos-driven aggressor submits at ~10x its fair rate while two
// well-behaved tenants submit steadily. The claims: every well-behaved
// job completes; the DRR drain splits admitted work per the configured
// weights (within 15%) while all tenants stay saturated; the aggressor
// sees RESOURCE_EXHAUSTED (quota nacks with backoff), never hard
// failures; the sustained-rejection alert fires with a non-empty
// flight-recorder window; and the whole run is byte-identical per seed.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/client.hpp"
#include "core/overlay.hpp"
#include "qos/admission.hpp"
#include "qos/tenant.hpp"
#include "sim/chaos.hpp"
#include "telemetry/alerts.hpp"
#include "telemetry/flight_recorder.hpp"

namespace lidc {
namespace {

/// One 4-core sleeper cluster behind the QoS admission plane; tenants
/// acme / blue (well-behaved) and noisy (the aggressor), equal weights.
struct QosScenario {
  QosScenario() {
    auto makeTenant = [](const std::string& id) {
      qos::TenantSpec spec;
      spec.id = id;
      spec.weight = 1.0;
      return spec;
    };
    EXPECT_TRUE(tenants.registerTenant(makeTenant("acme")).ok());
    EXPECT_TRUE(tenants.registerTenant(makeTenant("blue")).ok());
    qos::TenantSpec aggressor = makeTenant("noisy");
    // A modest submit-rate bucket so the 10x drive also exercises the
    // rate gate (the queue cap sheds the rest).
    aggressor.quota.submitRatePerSec = 2.0;
    aggressor.quota.submitBurst = 4.0;
    EXPECT_TRUE(tenants.registerTenant(aggressor).ok());

    overlay = std::make_unique<core::ClusterOverlay>(sim);
    overlay->addNode("client-host");

    core::ComputeClusterConfig config;
    config.name = "east";
    config.nodeCount = 1;
    config.perNode = k8s::Resources{MilliCpu::fromCores(4), ByteSize::fromGiB(8)};
    config.tenants = &tenants;
    config.admission.maxQueuePerTenant = 8;
    auto& east = overlay->addCluster(config);
    east.cluster().registerApp("sleeper", [](k8s::AppContext&) {
      k8s::AppResult result;
      result.runtime = sim::Duration::seconds(5);
      return result;
    });
    east.gateway().jobs().mapAppToImage("sleep", "sleeper");
    overlay->connect("client-host", "east",
                     net::LinkParams{sim::Duration::millis(5)});
    overlay->announceCluster("east");

    overlay->attachTelemetry(registry);
    recorder = std::make_unique<telemetry::FlightRecorder>(sim, 4096);
    overlay->attachFlightRecorder(recorder.get());

    // Sustained quota rejection on the aggressor drives the alert.
    telemetry::AlertEngineOptions alertOptions;
    alertOptions.eventWindow = 16;
    alertOptions.evaluateInterval = sim::Duration::seconds(1);
    alerts = std::make_unique<telemetry::AlertEngine>(sim, alertOptions);
    alerts->setValueSource([this](std::string_view series) -> std::optional<double> {
      const auto flat = registry.flatten("lidc_qos");
      const auto it = flat.find(std::string(series));
      if (it == flat.end()) return std::nullopt;
      return it->second;
    });
    alerts->setFlightRecorder(recorder.get());
    alerts->addThresholdRule(
        "noisy-quota-rejects",
        "lidc_qos_rejected_total{cluster=\"east\",reason=\"queue-full\","
        "tenant=\"noisy\"}",
        telemetry::AlertComparison::kAbove, 10.0, /*forCount=*/2);

    acme = makeClient("acme", 101);
    blue = makeClient("blue", 202);
    // The aggressor gives up fast; its work is disposable.
    core::ClientOptions aggressorOptions = clientOptions("noisy");
    aggressorOptions.maxSubmitRetries = 2;
    noisy = std::make_unique<core::LidcClient>(
        *overlay->topology().node("client-host"), "noisy-user",
        aggressorOptions, /*seed=*/303);

    chaos = std::make_unique<sim::ChaosEngine>(sim, /*seed=*/7);
    chaos->setFlightRecorder(recorder.get());
  }

  [[nodiscard]] core::ClientOptions clientOptions(
      const std::string& tenant) const {
    core::ClientOptions options;
    options.tenant = tenant;
    // Queue waits under saturation reach tens of seconds; the Interest
    // must outlive them or queued work expires into churn.
    options.interestLifetime = sim::Duration::seconds(60);
    options.statusPollInterval = sim::Duration::seconds(2);
    options.maxSubmitRetries = 12;
    options.backoffMax = sim::Duration::seconds(8);
    return options;
  }

  std::unique_ptr<core::LidcClient> makeClient(const std::string& tenant,
                                               std::uint64_t seed) {
    return std::make_unique<core::LidcClient>(
        *overlay->topology().node("client-host"), tenant + "-user",
        clientOptions(tenant), seed);
  }

  static core::ComputeRequest sleepRequest() {
    core::ComputeRequest request;
    request.app = "sleep";
    request.cpu = MilliCpu::fromCores(1);
    request.memory = ByteSize::fromGiB(1);
    return request;
  }

  void submitTracked(core::LidcClient& client,
                     std::vector<std::optional<Result<core::JobOutcome>>>& out) {
    out.emplace_back();
    const std::size_t slot = out.size() - 1;
    client.runToCompletion(sleepRequest(),
                           [&out, slot](Result<core::JobOutcome> r) {
                             out[slot] = std::move(r);
                           });
  }

  /// Well-behaved tenants submit every 2s through t=38s (saturating:
  /// offered rate > fair drain rate); the aggressor floods at 10x fair
  /// rate over t=[0.5s, 38s). Admitted counts snapshot at t=40s, while
  /// every tenant is still saturated.
  void run() {
    alerts->start();
    for (int i = 0; i < 20; ++i) {
      sim.scheduleAt(sim::Time() + sim::Duration::seconds(2 * i), [this] {
        submitTracked(*acme, acmeOutcomes);
        submitTracked(*blue, blueOutcomes);
      });
    }
    // Fair per-tenant drain is ~0.23 jobs/s (4 cores / ~5.8s per job,
    // three ways); 10x that is one submit every ~0.43s.
    chaos->noisyNeighbor("noisy-flood", sim::Time() + sim::Duration::millis(500),
                         sim::Time() + sim::Duration::seconds(38),
                         sim::Duration::millis(430),
                         [this] { submitTracked(*noisy, noisyOutcomes); });

    sim.scheduleAt(sim::Time() + sim::Duration::seconds(40), [this] {
      const auto* admission =
          overlay->cluster("east")->gateway().admission();
      for (const std::string tenant : {"acme", "blue", "noisy"}) {
        admittedAt40[tenant] = admission->admitted(tenant);
      }
    });
    sim.scheduleAt(sim::Time() + sim::Duration::seconds(120),
                   [this] { alerts->stop(); });
    sim.run();
  }

  [[nodiscard]] const qos::AdmissionController& admission() const {
    return *overlay->cluster("east")->gateway().admission();
  }

  /// Every reproducible observable in one string.
  [[nodiscard]] std::string fingerprint() const {
    std::ostringstream out;
    out << "--- chaos ---\n" << chaos->traceString();
    out << "--- admission ---\n" << admission().decisionLog();
    auto dumpOutcomes =
        [&out](const std::string& who,
               const std::vector<std::optional<Result<core::JobOutcome>>>& v) {
          out << "--- " << who << " ---\n";
          for (std::size_t i = 0; i < v.size(); ++i) {
            out << i << ": ";
            if (!v[i].has_value()) {
              out << "<pending>\n";
            } else if (!(*v[i]).ok()) {
              out << (*v[i]).status() << "\n";
            } else {
              out << k8s::jobStateName((**v[i]).finalStatus.state) << "\n";
            }
          }
        };
    dumpOutcomes("acme", acmeOutcomes);
    dumpOutcomes("blue", blueOutcomes);
    dumpOutcomes("noisy", noisyOutcomes);
    out << "--- alerts ---\n" << alerts->serializedLog();
    return out.str();
  }

  sim::Simulator sim;
  telemetry::MetricsRegistry registry;
  qos::TenantRegistry tenants;  // outlives the overlay's gateways
  std::unique_ptr<core::ClusterOverlay> overlay;
  std::unique_ptr<telemetry::FlightRecorder> recorder;
  std::unique_ptr<telemetry::AlertEngine> alerts;
  std::unique_ptr<core::LidcClient> acme;
  std::unique_ptr<core::LidcClient> blue;
  std::unique_ptr<core::LidcClient> noisy;
  std::unique_ptr<sim::ChaosEngine> chaos;
  std::vector<std::optional<Result<core::JobOutcome>>> acmeOutcomes;
  std::vector<std::optional<Result<core::JobOutcome>>> blueOutcomes;
  std::vector<std::optional<Result<core::JobOutcome>>> noisyOutcomes;
  std::map<std::string, std::uint64_t> admittedAt40;
};

TEST(QosIsolationTest, WellBehavedTenantsCompleteDespiteAggressor) {
  QosScenario scenario;
  scenario.run();

  // Every well-behaved job reached Completed; the aggressor's flood
  // never turned into hard failures for its neighbors.
  ASSERT_EQ(scenario.acmeOutcomes.size(), 20u);
  ASSERT_EQ(scenario.blueOutcomes.size(), 20u);
  for (const auto* outcomes : {&scenario.acmeOutcomes, &scenario.blueOutcomes}) {
    for (std::size_t i = 0; i < outcomes->size(); ++i) {
      const auto& slot = (*outcomes)[i];
      ASSERT_TRUE(slot.has_value()) << "job " << i << " never finished";
      ASSERT_TRUE((*slot).ok()) << "job " << i << ": " << (*slot).status();
      EXPECT_EQ((**slot).finalStatus.state, k8s::JobState::kCompleted);
    }
  }

  // Admitted-work split at t=40s (all tenants saturated): within 15%
  // of the configured equal weights.
  std::uint64_t total = 0;
  for (const auto& [tenant, count] : scenario.admittedAt40) total += count;
  ASSERT_GT(total, 0u);
  for (const auto& [tenant, count] : scenario.admittedAt40) {
    const double share = static_cast<double>(count) / static_cast<double>(total);
    EXPECT_NEAR(share, 1.0 / 3.0, 0.15 / 3.0) << tenant << " admitted " << count
                                              << " of " << total;
  }

  // The aggressor was throttled, not crashed: rejects happened, and
  // every terminal failure it saw is RESOURCE_EXHAUSTED.
  EXPECT_GT(scenario.admission().rejected("noisy"), 0u);
  int aggressorFailures = 0;
  for (const auto& slot : scenario.noisyOutcomes) {
    if (!slot.has_value() || (*slot).ok()) continue;
    ++aggressorFailures;
    EXPECT_EQ((*slot).status().code(), StatusCode::kResourceExhausted)
        << (*slot).status();
  }
  EXPECT_GT(aggressorFailures, 0) << "the 10x flood should exceed the quota";
}

TEST(QosIsolationTest, SustainedRejectionFiresAlertWithFlightWindow) {
  QosScenario scenario;
  scenario.run();

  ASSERT_GE(scenario.alerts->firedTotal(), 1u);
  const telemetry::Alert& first = scenario.alerts->alerts()[0];
  EXPECT_EQ(first.rule, "noisy-quota-rejects");
  // The post-mortem window holds the actual QoS reject events.
  ASSERT_FALSE(first.events.empty());
  bool sawQosReject = false;
  for (const auto& event : first.events) {
    if (event.component == "qos" &&
        event.message.find("tenant=noisy") != std::string::npos) {
      sawQosReject = true;
    }
  }
  EXPECT_TRUE(sawQosReject);
}

TEST(QosIsolationTest, RunsAreByteIdenticalPerSeed) {
  const auto run = [] {
    QosScenario scenario;
    scenario.run();
    return scenario.fingerprint();
  };
  const std::string first = run();
  EXPECT_NE(first.find("reject"), std::string::npos);
  EXPECT_EQ(first, run());
}

}  // namespace
}  // namespace lidc
