// Live migration under a planned drain: a 3-stage DAG (prep -> train ->
// report) is mid-flight in its long checkpointable middle stage when the
// operator drains the cluster running it. Because checkpoints are named
// data-lake objects (/ndn/k8s/ckpt/<job>/<epoch>) that the replica plane
// has already copied to the survivor, the WorkflowEngine's
// restoreParamsHook resumes the stage on the other cluster from the
// latest epoch instead of recomputing it — the DAG completes with zero
// recomputed stages. Location independence applied to running state:
// "resume anywhere" falls out of the same machinery as "fetch anywhere".
#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "apps/transform_app.hpp"
#include "common/hash.hpp"
#include "core/checkpoint_format.hpp"
#include "core/client.hpp"
#include "core/overlay.hpp"
#include "core/semantic_name.hpp"
#include "migrate/checkpoint.hpp"
#include "replica/directory.hpp"
#include "replica/policy.hpp"
#include "replica/repair.hpp"
#include "replica/scheduler.hpp"
#include "sim/chaos.hpp"
#include "workflow/engine.hpp"

using namespace lidc;

namespace {

constexpr double kTrainSeconds = 120.0;  // full training run
constexpr double kEpochSeconds = 10.0;   // work covered per checkpoint
constexpr double kDrainAtSeconds = 60.0;

ndn::Name lakeName(const std::string& path) {
  ndn::Name name = core::kDataPrefix;
  std::size_t begin = 0;
  while (begin < path.size()) {
    std::size_t end = path.find('/', begin);
    if (end == std::string::npos) end = path.size();
    if (end > begin) name.append(path.substr(begin, end - begin));
    begin = end + 1;
  }
  return name;
}

/// Resume-aware trainer: reads its staged input from the local lake,
/// skips the kEpochSeconds * epoch of work a ckpt=<job>/<epoch> arg
/// already covers (the gateway validated the epoch's digest before
/// launch), writes its model under the workflow intermediate name, and
/// exposes a checkpointPlan so the CheckpointManager can materialize
/// epochs while it runs.
void installTrainer(core::ComputeCluster& cc) {
  datalake::ObjectStore& store = cc.store();
  cc.cluster().registerApp("trainer", [&store](k8s::AppContext& ctx) {
    k8s::AppResult result;
    auto input = ctx.spec.args.find("input");
    if (input == ctx.spec.args.end() ||
        !store.get(lakeName(input->second))) {
      result.status = Status::NotFound("trainer input not in local lake");
      return result;
    }
    double done = 0.0;
    if (auto it = ctx.spec.args.find("ckpt"); it != ctx.spec.args.end()) {
      if (auto ref = core::parseCkptRef(it->second); ref.ok()) {
        if (store.get(core::makeCkptName(ref->jobId, ref->epoch))) {
          done = std::min(kTrainSeconds,
                          kEpochSeconds * static_cast<double>(ref->epoch));
        }
      }
    }
    result.runtime = sim::Duration::seconds(kTrainSeconds - done);
    std::string out = "results/model";
    if (auto it = ctx.spec.args.find("out"); it != ctx.spec.args.end()) {
      out = it->second;
    }
    std::vector<std::uint8_t> model(64 * 1024, 0x5a);
    const std::size_t modelBytes = model.size();
    if (auto st = store.put(lakeName(out), std::move(model)); !st.ok()) {
      result.status = st;
      return result;
    }
    result.resultPath = lakeName(out).toUri();
    result.outputBytes = modelBytes;
    result.message = done > 0.0
                         ? "trained, resumed past " + std::to_string(done) +
                               " s of checkpointed work"
                         : "trained from scratch";
    result.checkpointPlan = [](double progress) {
      const auto size =
          static_cast<std::size_t>(4096.0 + progress * 16384.0);
      return std::vector<std::uint8_t>(size, 0x5a);
    };
    return result;
  });
  cc.gateway().jobs().mapAppToImage("train", "trainer");
}

}  // namespace

int main() {
  sim::Simulator sim;
  core::ClusterOverlay overlay(sim);
  overlay.addNode("client-host");

  std::map<std::string, core::ComputeCluster*> clusters;
  for (const std::string& name : {std::string("east"), std::string("west")}) {
    core::ComputeClusterConfig config;
    config.name = name;
    auto& cc = overlay.addCluster(config);
    apps::installTransformApp(cc.cluster(), cc.store());
    installTrainer(cc);
    cc.enableCheckpointServing();
    clusters[name] = &cc;
  }
  auto* east = clusters["east"];
  auto* west = clusters["west"];
  overlay.connect("client-host", "east", net::LinkParams{sim::Duration::millis(5)});
  overlay.connect("client-host", "west", net::LinkParams{sim::Duration::millis(30)});
  overlay.connect("east", "west", net::LinkParams{sim::Duration::millis(10)});
  overlay.announceCluster("east");
  overlay.announceCluster("west");

  // Replica plane: east's checkpoint writes register in its catalog and
  // heat the shared policy; the repair loop copies each hot epoch to
  // west. That standing replication is what makes the later drain
  // cheap — the restore source is already on the survivor.
  replica::ReplicaCatalog eastCatalog(east->forwarder(), "east");
  replica::ReplicaCatalog westCatalog(west->forwarder(), "west");
  replica::PlacementPolicy policy;
  migrate::CheckpointOptions ckptOptions;
  ckptOptions.interval = sim::Duration::seconds(kEpochSeconds);
  migrate::CheckpointManager eastCkpt(east->cluster(), east->store(),
                                      ckptOptions, &eastCatalog, &policy);
  migrate::CheckpointManager westCkpt(west->cluster(), west->store(),
                                      ckptOptions, &westCatalog, &policy);
  replica::TransferScheduler westSched(west->forwarder(), west->store(), "west",
                                       replica::TransferOptions{}, &westCatalog);
  replica::ReplicaDirectory directory(*overlay.topology().node("client-host"));
  directory.watchCluster("east");
  directory.watchCluster("west");
  replica::RepairLoop repair(sim, directory, policy);
  repair.addScheduler("west", &westSched);
  directory.start();
  repair.start();

  // Raw input only in east's lake, so the DAG starts there.
  (void)east->store().put(lakeName("raw/reads"),
                          std::vector<std::uint8_t>(2 * 1024 * 1024, 0x17));

  core::ClientOptions clientOptions;
  clientOptions.statusPollInterval = sim::Duration::seconds(1);
  // Leave failure handling to the engine: a client-level failover would
  // blindly resubmit the original request (a recompute), while the
  // engine's retry consults the checkpoint hook first.
  clientOptions.maxFailovers = 0;
  core::LidcClient client(*overlay.topology().node("client-host"), "wf-user",
                          clientOptions, /*seed=*/777);

  workflow::WorkflowOptions engineOptions;
  // Resume instead of recompute: find the newest epoch of the failed
  // job that the survivor's lake holds and pin its digest. The west
  // gateway re-validates the pin against its own bytes before the
  // restore (wrong bytes = cold start, counted, alertable).
  engineOptions.restoreParamsHook =
      [&west](const std::string& stage,
              const std::string& jobId) -> std::map<std::string, std::string> {
    std::optional<std::uint64_t> newest;
    std::vector<std::uint8_t> payload;
    for (std::uint64_t epoch = 1; epoch <= 64; ++epoch) {
      if (auto bytes = west->store().get(core::makeCkptName(jobId, epoch))) {
        newest = epoch;
        payload = *bytes;
      }
    }
    if (!newest.has_value()) return {};
    std::printf("[hook ] resuming stage '%s' from %s (replicated epoch)\n",
                stage.c_str(),
                core::makeCkptName(jobId, *newest).toUri().c_str());
    return {{"ckpt", jobId + "/" + std::to_string(*newest)},
            {"ckpt_digest", std::to_string(fnv1a(payload))},
            {"ckpt_from", "east"}};
  };
  workflow::WorkflowEngine engine(client, engineOptions);

  workflow::WorkflowSpec spec;
  spec.id = "demo";
  workflow::StageSpec prep;
  prep.name = "prep";
  prep.app = "transform";
  prep.cpu = MilliCpu::fromCores(2);
  prep.memory = ByteSize::fromGiB(2);
  prep.lakeInputs = {"raw/reads"};
  spec.addStage(prep);
  workflow::StageSpec train;
  train.name = "train";
  train.app = "train";
  train.cpu = MilliCpu::fromCores(4);
  train.memory = ByteSize::fromGiB(8);
  train.stageInputs = {{"prep", "input"}};
  spec.addStage(train);
  workflow::StageSpec report;
  report.name = "report";
  report.app = "transform";
  report.cpu = MilliCpu::fromCores(1);
  report.memory = ByteSize::fromGiB(1);
  report.stageInputs = {{"train", "input"}};
  spec.addStage(report);

  // The planned drain, mid-train: evacuate the DAG's intermediates to
  // the survivor (one enqueue on its staging queue — the names are
  // location independent, so consumers never change), steer new submits
  // away, then evict the pods. Exactly what an operator does before
  // taking a cluster down for maintenance.
  sim::ChaosEngine chaos(sim);
  chaos.drain("east-maintenance",
              sim::Time() + sim::Duration::seconds(kDrainAtSeconds), [&] {
                std::printf("[drain] t=%.1fs east: evacuating intermediates, "
                            "withdrawing compute routes, evicting pods\n",
                            sim.now().toSeconds());
                westSched.enqueue(lakeName("wf/demo/prep"));
                overlay.topology().uninstallRoutesTo(core::kComputePrefix,
                                                     "east");
                overlay.topology().uninstallRoutesTo(core::kSubmitPrefix,
                                                     "east");
                for (const std::string& node : east->cluster().nodeNames()) {
                  east->cluster().failNode(node);
                }
              });

  std::optional<Result<workflow::WorkflowOutcome>> outcome;
  engine.run(spec, [&outcome](Result<workflow::WorkflowOutcome> r) {
    outcome = std::move(r);
  });
  // The directory/repair loops self-reschedule forever; run to a fixed
  // horizon, stop them, then drain the remaining events.
  sim.runUntil(sim::Time() + sim::Duration::minutes(10));
  repair.stop();
  directory.stop();
  sim.run();

  if (!outcome.has_value() || !outcome->ok()) {
    std::printf("workflow did not settle\n");
    return 1;
  }
  const workflow::WorkflowOutcome& wf = (*outcome).value();
  std::printf("\n-- outcome ----------------------------------------------\n");
  for (const auto& [name, st] : wf.stages) {
    std::printf("  %-7s %-10s cluster=%-5s retries=%d runtime=%.1fs\n",
                name.c_str(),
                std::string(workflow::stageStateName(st.state)).c_str(),
                st.cluster.c_str(), st.retries, st.runtime.toSeconds());
  }
  std::printf("  makespan %.1fs; checkpoint restores %d, lineage "
              "recoveries %d, west gateway restores %llu\n",
              wf.makespan.toSeconds(), wf.checkpointRestores,
              wf.lineageRecoveries,
              static_cast<unsigned long long>(
                  west->gateway().counters().ckptRestores));

  const auto& trainStatus = wf.stages.at("train");
  const bool migratedLive = wf.succeeded && trainStatus.cluster == "west" &&
                            wf.checkpointRestores == 1 &&
                            wf.lineageRecoveries == 0 &&
                            wf.stages.at("prep").retries == 0 &&
                            wf.stages.at("report").retries == 0;
  if (migratedLive) {
    std::printf("\ntrain resumed on west with %.1fs of east's work kept — "
                "zero stages recomputed.\n",
                kTrainSeconds - trainStatus.runtime.toSeconds());
  } else {
    std::printf("\nunexpected: the drain did not migrate cleanly\n%s\n",
                wf.trace.c_str());
  }
  return migratedLive ? 0 : 1;
}
