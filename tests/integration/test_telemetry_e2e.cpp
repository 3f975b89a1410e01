// End-to-end telemetry: a diamond workflow runs across a two-cluster
// overlay while a chaos blackout takes the near gateway down mid-run.
// With the registry + tracer attached everywhere, explain(job_id) must
// render a causal span tree covering the client, per-hop forwarder
// decisions, gateway admission, K8s execution, and data-lake retrieval
// — with durations consistent with the end-to-end latency — and the
// collector must scrape both clusters purely via Interests, with the
// repeat snapshot fetch served from the Content Store.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/transform_app.hpp"
#include "core/client.hpp"
#include "core/overlay.hpp"
#include "sim/chaos.hpp"
#include "telemetry/monitor.hpp"
#include "workflow/engine.hpp"

namespace lidc {
namespace {

std::vector<std::uint8_t> rawBytes() {
  std::vector<std::uint8_t> bytes(1024);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>("ACGT"[i % 4]);
  }
  return bytes;
}

/// prep -> {left, right} -> merge, all transform stages (~10 s each).
workflow::WorkflowSpec diamondSpec(const std::string& id) {
  workflow::WorkflowSpec spec;
  spec.id = id;

  workflow::StageSpec prep;
  prep.name = "prep";
  prep.app = "transform";
  prep.cpu = MilliCpu::fromCores(1);
  prep.memory = ByteSize::fromGiB(1);
  prep.lakeInputs = {"raw/genome"};
  spec.addStage(prep);

  for (const std::string& side : {std::string("left"), std::string("right")}) {
    workflow::StageSpec stage;
    stage.name = side;
    stage.app = "transform";
    stage.cpu = MilliCpu::fromCores(1);
    stage.memory = ByteSize::fromGiB(1);
    stage.params["tag"] = side;
    stage.stageInputs = {{"prep", "input"}};
    spec.addStage(stage);
  }

  workflow::StageSpec merge;
  merge.name = "merge";
  merge.app = "transform";
  merge.cpu = MilliCpu::fromCores(1);
  merge.memory = ByteSize::fromGiB(1);
  merge.stageInputs = {{"left", ""}, {"right", ""}};
  spec.addStage(merge);
  return spec;
}

/// Two transform clusters, the full telemetry plane attached, a
/// collector on the client host, and a gateway blackout on the near
/// cluster from t=12s to t=42s.
struct TelemetryScenario {
  TelemetryScenario() : tracer(sim) {
    overlay = std::make_unique<core::ClusterOverlay>(sim);
    overlay->addNode("client-host");
    addTransformCluster("east");
    addTransformCluster("west");
    overlay->connect("client-host", "east",
                     net::LinkParams{sim::Duration::millis(5)});
    overlay->connect("client-host", "west",
                     net::LinkParams{sim::Duration::millis(40)});
    overlay->announceCluster("east");
    overlay->announceCluster("west");

    core::ClientOptions options;
    options.interestLifetime = sim::Duration::seconds(2);
    options.statusPollInterval = sim::Duration::seconds(1);
    options.maxSubmitRetries = 3;
    options.maxStatusPollFailures = 3;
    options.maxFailovers = 4;
    options.deadline = sim::Duration::minutes(10);
    client = std::make_unique<core::LidcClient>(
        *overlay->topology().node("client-host"), "wf-user", options,
        /*seed=*/777);
    // Staging mode (locality off): every intermediate is fetched and
    // republished by the engine, so the trace is guaranteed to carry
    // data-retrieval / data-publish spans.
    workflow::WorkflowOptions engineOptions;
    engineOptions.localityAware = false;
    engine = std::make_unique<workflow::WorkflowEngine>(*client, engineOptions);

    overlay->attachTelemetry(registry, &tracer);
    client->attachTelemetry(registry, &tracer);
    engine->attachTelemetry(registry, &tracer);

    telemetry::TelemetryCollectorOptions collectorOptions;
    collectorOptions.interestLifetime = sim::Duration::millis(800);
    collectorOptions.freshnessWindow = sim::Duration::seconds(5);
    collector = std::make_unique<telemetry::TelemetryCollector>(
        *overlay->topology().node("client-host"), collectorOptions);
    collector->watchCluster("east");
    collector->watchCluster("west");

    chaos = std::make_unique<sim::ChaosEngine>(sim, /*seed=*/99);
    chaos->attachTelemetry(registry);
    chaos->blackout("east-gw-dark",
                    sim::Time::fromNanos(0) + sim::Duration::seconds(12),
                    sim::Duration::seconds(30), [this](bool on) {
                      overlay->cluster("east")->gateway().setBlackout(on);
                    });
  }

  void addTransformCluster(const std::string& name) {
    core::ComputeClusterConfig config;
    config.name = name;
    config.nodeCount = 2;
    config.perNode = k8s::Resources{MilliCpu::fromCores(4), ByteSize::fromGiB(8)};
    auto& cc = overlay->addCluster(config);
    apps::TransformConfig slow;
    slow.bytesPerSecondPerCore = 100.0;
    slow.scalingEfficiency = 0.0;
    apps::installTransformApp(cc.cluster(), cc.store(), slow);
    ndn::Name rawName = core::kDataPrefix;
    rawName.append("raw").append("genome");
    (void)cc.store().put(rawName, rawBytes());
  }

  void run(workflow::WorkflowSpec spec) {
    engine->run(std::move(spec), [this](Result<workflow::WorkflowOutcome> r) {
      outcome = std::move(r);
    });
    sim.run();
  }

  sim::Simulator sim;
  telemetry::MetricsRegistry registry;
  telemetry::Tracer tracer;
  std::unique_ptr<core::ClusterOverlay> overlay;
  std::unique_ptr<core::LidcClient> client;
  std::unique_ptr<workflow::WorkflowEngine> engine;
  std::unique_ptr<telemetry::TelemetryCollector> collector;
  std::unique_ptr<sim::ChaosEngine> chaos;
  std::optional<Result<workflow::WorkflowOutcome>> outcome;
};

TEST(TelemetryE2eTest, ExplainRendersFullSpanTreeForJobUnderChaos) {
  TelemetryScenario scenario;
  scenario.run(diamondSpec("wf-traced"));

  ASSERT_TRUE(scenario.outcome.has_value());
  ASSERT_TRUE(scenario.outcome->ok()) << scenario.outcome->status();
  const auto& outcome = scenario.outcome->value();
  EXPECT_TRUE(outcome.succeeded);

  // Every launched job was bound to a trace; pick one that actually
  // executed (its trace carries a retroactive k8s-exec span).
  const auto jobs = scenario.tracer.boundJobs();
  ASSERT_FALSE(jobs.empty());
  std::string jobId;
  for (const auto& candidate : jobs) {
    const auto trace = scenario.tracer.traceForJob(candidate);
    ASSERT_TRUE(trace.has_value());
    for (const auto& span : scenario.tracer.spansForTrace(*trace)) {
      if (span.name == "k8s-exec") {
        jobId = candidate;
        break;
      }
    }
    if (!jobId.empty()) break;
  }
  ASSERT_FALSE(jobId.empty()) << "no bound job has a k8s-exec span";

  // The rendered tree covers every layer of the stack.
  const std::string tree = scenario.tracer.explain(jobId);
  for (const char* layer :
       {"workflow", "stage", "job", "submit-attempt", "forwarder-hop",
        "gateway-admission", "k8s-schedule", "k8s-exec", "await-completion",
        "data-retrieval"}) {
    EXPECT_NE(tree.find(layer), std::string::npos)
        << "span '" << layer << "' missing from:\n"
        << tree;
  }
  EXPECT_NE(tree.find("decision=launch"), std::string::npos) << tree;

  // Durations are consistent with the end-to-end latency: the root
  // workflow span lasts exactly the makespan, and every span in the
  // trace nests inside its window.
  const telemetry::TraceId traceId = *scenario.tracer.traceForJob(jobId);
  const auto spans = scenario.tracer.spansForTrace(traceId);
  const telemetry::Span* root = nullptr;
  const telemetry::Span* jobSpan = nullptr;
  const telemetry::Span* execSpan = nullptr;
  for (const auto& span : spans) {
    if (span.name == "workflow") root = &span;
    if (span.name == "job" && jobSpan == nullptr) jobSpan = &span;
    if (span.name == "k8s-exec" && execSpan == nullptr) execSpan = &span;
    EXPECT_FALSE(span.open) << span.name << " never ended";
    EXPECT_GE(span.duration().toNanos(), 0) << span.name;
  }
  ASSERT_NE(root, nullptr);
  ASSERT_NE(jobSpan, nullptr);
  ASSERT_NE(execSpan, nullptr);
  EXPECT_EQ(root->duration().toNanos(), outcome.makespan.toNanos());
  for (const auto& span : spans) {
    EXPECT_GE(span.start.toNanos(), root->start.toNanos()) << span.name;
    EXPECT_LE(span.end.toNanos(), root->end.toNanos()) << span.name;
  }
  // Pod execution happened strictly inside the client's job window.
  EXPECT_GE(execSpan->start.toNanos(), jobSpan->start.toNanos());
  EXPECT_LE(execSpan->end.toNanos(), jobSpan->end.toNanos());
  EXPECT_LE(execSpan->duration().toNanos(), jobSpan->duration().toNanos());

  // The chaos blackout left its mark on the registry: east dropped
  // Interests while dark, and chaos accounted the injection.
  const auto flat = scenario.registry.flatten();
  EXPECT_GE(flat.at("lidc_gateway_blackout_dropped{cluster=\"east\"}"), 1.0);
  EXPECT_GE(flat.at("lidc_chaos_injections"), 1.0);
  EXPECT_GE(flat.at("lidc_workflow_runs_succeeded"), 1.0);
}

TEST(TelemetryE2eTest, CollectorScrapesBothClustersAndRepeatHitsContentStore) {
  TelemetryScenario scenario;
  scenario.run(diamondSpec("wf-scraped"));
  ASSERT_TRUE(scenario.outcome.has_value());
  ASSERT_TRUE(scenario.outcome->ok()) << scenario.outcome->status();

  bool done = false;
  scenario.collector->scrapeOnce([&done] { done = true; });
  scenario.sim.run();
  ASSERT_TRUE(done);
  EXPECT_EQ(scenario.collector->counters().scrapesSucceeded, 2u);
  EXPECT_FALSE(scenario.collector->isStale("east"));
  EXPECT_FALSE(scenario.collector->isStale("west"));

  // The scraped views carry the real per-cluster launch counters: the
  // four stages all ran somewhere.
  const double launches =
      scenario.collector->metric("east",
                                 "lidc_gateway_jobs_launched{cluster=\"east\"}") +
      scenario.collector->metric("west",
                                 "lidc_gateway_jobs_launched{cluster=\"west\"}");
  EXPECT_GE(launches, 4.0);

  // Forget the views and scrape again past the manifest freshness: the
  // immutable snapshot Data is re-fetched, but the collector host's own
  // Content Store answers it — visible in the registry's CS-hit metric
  // for that node (flatten() exports, which reads the forwarder's cells).
  const auto csHits = [&scenario] {
    return scenario.registry.flatten("lidc_forwarder_cs_hits")
        .at("lidc_forwarder_cs_hits{node=\"client-host\"}");
  };
  const std::uint64_t fetchedBefore =
      scenario.collector->counters().snapshotsFetched;
  const double csHitsBefore = csHits();
  scenario.collector->invalidate("east");
  scenario.collector->invalidate("west");
  scenario.sim.scheduleAfter(sim::Duration::millis(600),
                             [&scenario] { scenario.collector->scrapeOnce(); });
  scenario.sim.run();

  EXPECT_EQ(scenario.collector->counters().snapshotsFetched, fetchedBefore + 2);
  EXPECT_FALSE(scenario.collector->isStale("east"));
  EXPECT_FALSE(scenario.collector->isStale("west"));
  EXPECT_GE(csHits(), csHitsBefore + 2);
}

}  // namespace
}  // namespace lidc
