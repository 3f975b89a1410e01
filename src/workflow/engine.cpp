#include "workflow/engine.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <utility>

#include "k8s/job.hpp"

namespace lidc::workflow {

namespace {
/// A Running stage is a straggler past this multiple of its predicted
/// runtime (WorkflowOptions::enableHedging).
constexpr double kHedgeMultiplier = 3.0;
}  // namespace

std::string_view stageStateName(StageState state) noexcept {
  switch (state) {
    case StageState::kPending: return "Pending";
    case StageState::kRunning: return "Running";
    case StageState::kStaging: return "Staging";
    case StageState::kCompleted: return "Completed";
    case StageState::kFailed: return "Failed";
    case StageState::kSkipped: return "Skipped";
  }
  return "Unknown";
}

/// Live state of one run(); kept on the heap because stage callbacks
/// outlive the run() call by many simulated minutes.
struct WorkflowEngine::Run {
  WorkflowSpec spec;
  std::vector<std::size_t> order;                 // deterministic topo order
  std::map<std::string, std::size_t> indexOf;     // stage name -> index
  std::vector<std::vector<std::size_t>> consumers;
  std::vector<StageStatus> statuses;
  /// Consumers whose prestage hook already fired (once per run).
  std::vector<bool> prestageFired;
  WorkflowOutcome outcome;
  sim::Time startedAt;
  /// Stages in flight (Running/Staging) plus outstanding lineage
  /// probes; the run is terminal only when this reaches zero.
  std::size_t running = 0;
  bool aborted = false;   // fail-fast tripped
  bool finished = false;
  /// Fleet-health gate state: a recheck timer is armed / the deferral
  /// has already been traced for this degraded period.
  bool deferPending = false;
  bool deferring = false;
  DoneCallback done;
  /// Root "workflow" span and the open span of each stage's current
  /// attempt (all invalid when no tracer is attached).
  telemetry::TraceContext rootCtx;
  std::vector<telemetry::TraceContext> stageCtx;
};

WorkflowEngine::WorkflowEngine(core::LidcClient& client, WorkflowOptions options)
    : client_(client), options_(std::move(options)) {}

void WorkflowEngine::run(WorkflowSpec spec, DoneCallback done) {
  Result<std::vector<std::size_t>> ordered = validateAndOrder(spec);
  if (!ordered.ok()) {
    done(ordered.status());
    return;
  }
  auto run = std::make_shared<Run>();
  run->spec = std::move(spec);
  run->order = std::move(ordered).value();
  run->statuses.resize(run->spec.stages.size());
  run->consumers.resize(run->spec.stages.size());
  run->prestageFired.resize(run->spec.stages.size());
  for (std::size_t i = 0; i < run->spec.stages.size(); ++i) {
    run->indexOf.emplace(run->spec.stages[i].name, i);
  }
  for (std::size_t i = 0; i < run->spec.stages.size(); ++i) {
    for (const StageInput& input : run->spec.stages[i].stageInputs) {
      run->consumers[run->indexOf.at(input.stage)].push_back(i);
    }
  }
  run->outcome.id = run->spec.id;
  run->startedAt = client_.simulator().now();
  run->done = std::move(done);
  run->stageCtx.resize(run->spec.stages.size());
  ++runs_;
  if (telemetry_ && telemetry_->tracer != nullptr) {
    run->rootCtx = telemetry_->tracer->startTrace(
        "workflow", "workflow:" + run->spec.id,
        {{"stages", std::to_string(run->spec.stages.size())}});
  }
  trace(run, "start workflow " + run->spec.id + " stages=" +
                 std::to_string(run->spec.stages.size()));
  dispatchReady(run);
}

core::ComputeRequest WorkflowEngine::buildRequest(const WorkflowSpec& spec,
                                                  const StageSpec& stage) const {
  core::ComputeRequest request;
  request.app = stage.app;
  request.cpu = stage.cpu;
  request.memory = stage.memory;
  request.params = stage.params;
  if (!options_.tenant.empty()) request.params["tenant"] = options_.tenant;
  // Flow attribution: submit Interests (and intermediate staging below)
  // carry the workflow id, so the weathermap's top-talker lists name
  // the workflow that moved the bytes.
  request.flowTag = "wf/" + spec.id;
  request.datasets = stage.lakeInputs;
  for (const StageInput& input : stage.stageInputs) {
    const std::string path = intermediatePath(spec.id, input.stage);
    request.datasets.push_back(path);
    if (!input.bindParam.empty()) request.params[input.bindParam] = path;
  }
  if (options_.localityAware) {
    // The job writes its output straight into the lake of the cluster
    // that runs it, already under the workflow intermediate name — no
    // bytes cross the overlay, and downstream stages are pulled toward
    // this cluster because only its gateway can validate the dataset.
    request.params["out"] = intermediatePath(spec.id, stage.name);
  }
  return request;
}

void WorkflowEngine::dispatchReady(const std::shared_ptr<Run>& run) {
  if (run->finished) return;
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  if (options_.fleetHealth && options_.minFleetHealth > 0.0 && !run->aborted) {
    bool hasPending = false;
    for (const StageStatus& st : run->statuses) {
      if (st.state == StageState::kPending) {
        hasPending = true;
        break;
      }
    }
    if (hasPending) {
      if (run->deferPending) return;  // recheck timer already armed
      const double health = options_.fleetHealth();
      if (health < options_.minFleetHealth) {
        if (!run->deferring) {
          run->deferring = true;
          char line[64];
          std::snprintf(line, sizeof(line), "defer dispatch fleet-health=%.2f",
                        health);
          trace(run, line);
        }
        run->deferPending = true;
        client_.simulator().scheduleAfter(
            options_.healthRecheckInterval, [this, run] {
              run->deferPending = false;
              dispatchReady(run);
            });
        return;
      }
      if (run->deferring) {
        run->deferring = false;
        trace(run, "resume dispatch");
      }
    }
  }
  while (options_.maxConcurrentStages == 0 ||
         run->running < options_.maxConcurrentStages) {
    // Longest-predicted-first among ready stages, so the critical path
    // starts as early as possible; unpredicted stages sort first and
    // ties fall back to the deterministic topo order.
    std::size_t best = kNone;
    double bestPredicted = -1.0;
    for (std::size_t i : run->order) {
      if (run->statuses[i].state != StageState::kPending) continue;
      bool ready = true;
      for (const StageInput& input : run->spec.stages[i].stageInputs) {
        if (run->statuses[run->indexOf.at(input.stage)].state !=
            StageState::kCompleted) {
          ready = false;
          break;
        }
      }
      if (!ready) continue;
      const auto predicted =
          predictor_.predict(buildRequest(run->spec, run->spec.stages[i]));
      const double seconds = predicted
                                 ? predicted->toSeconds()
                                 : std::numeric_limits<double>::infinity();
      if (best == kNone || seconds > bestPredicted) {
        best = i;
        bestPredicted = seconds;
      }
    }
    if (best == kNone) break;
    dispatchStage(run, best);
  }
  maybeFinish(run);
}

void WorkflowEngine::dispatchStage(const std::shared_ptr<Run>& run,
                                   std::size_t index) {
  StageStatus& st = run->statuses[index];
  st.state = StageState::kRunning;
  st.dispatchedAt = client_.simulator().now();
  st.error.clear();
  ++run->running;
  ++stages_dispatched_;
  const StageSpec& stage = run->spec.stages[index];
  trace(run, "dispatch " + stage.name + " app=" + stage.app);
  if (telemetry_ && telemetry_->tracer != nullptr) {
    run->stageCtx[index] = telemetry_->tracer->startSpan(
        "stage", "workflow:" + run->spec.id, run->rootCtx,
        {{"stage", stage.name},
         {"app", stage.app},
         {"attempt", std::to_string(st.retries)}});
  }

  auto request =
      std::make_shared<core::ComputeRequest>(buildRequest(run->spec, stage));
  // Retry of a checkpointed stage: resume from its latest checkpoint
  // instead of recomputing — the saved prefix beats lineage recompute.
  if (st.retries > 0 && options_.restoreParamsHook && !st.lastJobId.empty()) {
    auto extra = options_.restoreParamsHook(stage.name, st.lastJobId);
    if (!extra.empty()) {
      for (auto& [key, value] : extra) request->params[key] = value;
      ++run->outcome.checkpointRestores;
      trace(run, "ckpt-restore " + stage.name + " job=" + st.lastJobId);
    }
  }
  // Lookahead: while this stage runs, its consumers' already-available
  // inputs can stream toward compute.
  firePrestage(run, index);
  if (options_.ensureInputsLocal && !request->datasets.empty()) {
    options_.ensureInputsLocal(
        stage.name, request->datasets,
        [this, run, index, request](std::uint64_t bytes) {
          if (run->finished) return;
          StageStatus& status = run->statuses[index];
          if (status.state != StageState::kRunning) return;
          status.dispatchStagingBytes += bytes;
          run->outcome.dispatchBytesMoved += bytes;
          trace(run, "inputs-local " + run->spec.stages[index].name +
                         " bytes=" + std::to_string(bytes));
          launchStage(run, index, request);
        });
    return;
  }
  launchStage(run, index, request);
}

void WorkflowEngine::launchStage(const std::shared_ptr<Run>& run,
                                 std::size_t index,
                                 std::shared_ptr<core::ComputeRequest> request) {
  auto race = std::make_shared<StageRace>();
  launchStageLeg(run, index, request, race, /*isHedge=*/false);
  armStageHedge(run, index, request, race);
}

void WorkflowEngine::firePrestage(const std::shared_ptr<Run>& run,
                                  std::size_t producerIndex) {
  if (!options_.prestageHook) return;
  for (std::size_t consumer : run->consumers[producerIndex]) {
    if (run->prestageFired[consumer]) continue;
    run->prestageFired[consumer] = true;
    const StageSpec& spec = run->spec.stages[consumer];
    // Only inputs that exist somewhere already: lake datasets plus
    // intermediates of completed upstreams. The running producer's own
    // output is not fetchable yet (and with locality-aware placement it
    // will be born local anyway).
    std::vector<std::string> inputs = spec.lakeInputs;
    for (const StageInput& input : spec.stageInputs) {
      if (run->statuses[run->indexOf.at(input.stage)].state ==
          StageState::kCompleted) {
        inputs.push_back(intermediatePath(run->spec.id, input.stage));
      }
    }
    if (inputs.empty()) continue;
    trace(run, "prestage " + spec.name + " inputs=" +
                   std::to_string(inputs.size()));
    options_.prestageHook(spec.name, inputs);
  }
}

/// Shared state of one stage dispatch: the primary leg plus (possibly)
/// a straggler hedge racing it. First terminal leg settles the stage.
struct WorkflowEngine::StageRace {
  bool settled = false;
  int outstanding = 0;
};

void WorkflowEngine::armStageHedge(const std::shared_ptr<Run>& run,
                                   std::size_t index,
                                   std::shared_ptr<core::ComputeRequest> request,
                                   std::shared_ptr<StageRace> race) {
  if (!options_.enableHedging) return;
  // Arm the straggler watchdog: if the stage is still Running past
  // kHedgeMultiplier x the predicted runtime (or the floor, whichever is
  // larger), race a backup dispatch against it. The backup's fresh
  // request id frees the forwarding strategy to place it on a
  // different — hopefully non-limping — cluster.
  const auto predicted = predictor_.predict(*request);
  sim::Duration delay = options_.hedgeFloor;
  if (predicted.has_value()) {
    delay = std::max(delay, *predicted * kHedgeMultiplier);
  }
  client_.simulator().scheduleAfter(delay, [this, run, index, request, race] {
    if (race->settled || run->finished) return;
    if (run->statuses[index].state != StageState::kRunning) return;
    ++stage_hedges_;
    trace(run, "hedge " + run->spec.stages[index].name);
    launchStageLeg(run, index, request, race, /*isHedge=*/true);
  });
}

void WorkflowEngine::launchStageLeg(const std::shared_ptr<Run>& run,
                                    std::size_t index,
                                    std::shared_ptr<core::ComputeRequest> request,
                                    std::shared_ptr<StageRace> race,
                                    bool isHedge) {
  ++race->outstanding;
  client_.runToCompletion(
      *request,
      [this, run, index, request, race, isHedge](Result<core::JobOutcome> result) {
        --race->outstanding;
        if (race->settled) return;  // the other leg already settled the stage
        const bool completed =
            result.ok() && result->finalStatus.state == k8s::JobState::kCompleted;
        if (!completed && race->outstanding > 0) {
          // This leg lost, but its sibling is still racing: let the
          // stage ride on the survivor instead of burning a retry.
          trace(run, "leg-failed " + run->spec.stages[index].name +
                         " (sibling still racing)");
          return;
        }
        race->settled = true;
        StageStatus& status = run->statuses[index];
        if (result.ok()) {
          status.cluster = result->finalStatus.cluster;
          status.failovers = result->failovers;
          status.runtime = result->finalStatus.runtime;
          status.outputBytes = result->finalStatus.outputBytes;
          status.lastJobId = result->submit.jobId;
        }
        if (completed) {
          if (isHedge) {
            ++stage_hedges_won_;
            trace(run, "hedge-won " + run->spec.stages[index].name);
          }
          predictor_.record(*request, result->finalStatus.runtime);
          if (options_.localityAware) {
            completeStage(run, index);
          } else {
            stageIntermediate(run, index, result->finalStatus.resultPath);
          }
          return;
        }
        Status why = result.ok()
                         ? Status::Internal("job failed on cluster '" +
                                            result->finalStatus.cluster +
                                            "': " + result->finalStatus.error)
                         : result.status();
        handleStageFailure(run, index, why);
      },
      run->stageCtx[index]);
}

void WorkflowEngine::stageIntermediate(const std::shared_ptr<Run>& run,
                                       std::size_t index,
                                       const std::string& resultPath) {
  StageStatus& st = run->statuses[index];
  st.state = StageState::kStaging;
  const std::string name = run->spec.stages[index].name;
  trace(run, "staging " + name + " from " + resultPath);
  // Locality off: pull the raw result to the client, then republish it
  // anycast under the workflow intermediate name. Every byte crosses
  // the overlay twice — that is exactly the cost locality-aware
  // placement avoids, so count it.
  client_.fetchData(
      ndn::Name(resultPath),  // resultPath is a full /ndn/k8s/data/... URI
      [this, run, index, name](Result<std::vector<std::uint8_t>> fetched) {
        if (!fetched.ok()) {
          handleStageFailure(run, index,
                             Status::Internal("intermediate fetch failed: " +
                                              fetched.status().toString()));
          return;
        }
        const std::uint64_t size = fetched->size();
        bytes_moved_ += size;
        run->outcome.intermediateBytesMoved += size;
        client_.publishData(
            intermediatePath(run->spec.id, name), std::move(fetched).value(),
            [this, run, index, size](Result<ndn::Name> published) {
              if (!published.ok()) {
                handleStageFailure(
                    run, index,
                    Status::Internal("intermediate publish failed: " +
                                     published.status().toString()));
                return;
              }
              bytes_moved_ += size;
              run->outcome.intermediateBytesMoved += size;
              completeStage(run, index);
            },
            run->stageCtx[index], "wf/" + run->spec.id);
      },
      run->stageCtx[index], "wf/" + run->spec.id);
}

void WorkflowEngine::completeStage(const std::shared_ptr<Run>& run,
                                   std::size_t index) {
  StageStatus& st = run->statuses[index];
  st.state = StageState::kCompleted;
  st.finishedAt = client_.simulator().now();
  const std::string& name = run->spec.stages[index].name;
  st.outputName = intermediateName(run->spec.id, name).toUri();
  --run->running;
  if (telemetry_ && telemetry_->tracer != nullptr) {
    telemetry_->tracer->setAttr(run->stageCtx[index], "outcome", "completed");
    telemetry_->tracer->setAttr(run->stageCtx[index], "cluster", st.cluster);
    telemetry_->tracer->endSpan(run->stageCtx[index]);
  }
  trace(run, "complete " + name + " cluster=" + st.cluster +
                 " bytes=" + std::to_string(st.outputBytes));
  dispatchReady(run);
}

void WorkflowEngine::handleStageFailure(const std::shared_ptr<Run>& run,
                                        std::size_t index, const Status& why) {
  StageStatus& st = run->statuses[index];
  st.error = why.toString();
  const std::string& name = run->spec.stages[index].name;
  trace(run, "fail " + name + " (" + st.error + ")");
  if (!run->aborted && st.retries < options_.maxStageRetries) {
    ++st.retries;
    st.state = StageState::kPending;
    --run->running;
    ++stage_retries_;
    if (telemetry_ && telemetry_->tracer != nullptr) {
      telemetry_->tracer->setAttr(run->stageCtx[index], "outcome", "retry");
      telemetry_->tracer->endSpan(run->stageCtx[index]);
    }
    trace(run, "retry " + name + " (" + std::to_string(st.retries) + "/" +
                   std::to_string(options_.maxStageRetries) + ")");
    probeInputsAndRecover(run, index);
    return;
  }
  failTerminally(run, index);
}

void WorkflowEngine::probeInputsAndRecover(const std::shared_ptr<Run>& run,
                                           std::size_t index) {
  const StageSpec& stage = run->spec.stages[index];
  if (stage.stageInputs.empty()) {
    dispatchReady(run);
    return;
  }
  // A consumer stage often fails because an upstream intermediate died
  // with its cluster (every surviving gateway nacks the dataset). Probe
  // each input by name; any that is unreachable gets its producer reset
  // and recomputed on a surviving cluster — Spark-lineage style.
  ++run->running;  // the probe batch holds the run open
  auto remaining = std::make_shared<std::size_t>(stage.stageInputs.size());
  for (const StageInput& input : stage.stageInputs) {
    const std::string producer = input.stage;
    client_.fetchData(
        intermediateName(run->spec.id, producer),
        [this, run, remaining, producer](Result<std::vector<std::uint8_t>> r) {
          if (!r.ok()) {
            const std::size_t pi = run->indexOf.at(producer);
            StageStatus& pst = run->statuses[pi];
            if (pst.state == StageState::kCompleted ||
                pst.state == StageState::kFailed) {
              if (pst.retries < options_.maxStageRetries) {
                ++pst.retries;
                pst.state = StageState::kPending;
                pst.error.clear();
                ++run->outcome.lineageRecoveries;
                ++lineage_recoveries_;
                trace(run, "reset " + producer +
                               " (lineage: intermediate unreachable)");
              }
            }
          }
          if (--*remaining == 0) {
            --run->running;
            dispatchReady(run);
          }
        },
        {}, "wf/" + run->spec.id);
  }
}

void WorkflowEngine::failTerminally(const std::shared_ptr<Run>& run,
                                    std::size_t index) {
  StageStatus& st = run->statuses[index];
  st.state = StageState::kFailed;
  st.finishedAt = client_.simulator().now();
  --run->running;
  const std::string& name = run->spec.stages[index].name;
  if (telemetry_ && telemetry_->tracer != nullptr) {
    telemetry_->tracer->setAttr(run->stageCtx[index], "outcome", "failed");
    telemetry_->tracer->setAttr(run->stageCtx[index], "error", st.error);
    telemetry_->tracer->endSpan(run->stageCtx[index]);
  }
  trace(run, "failed " + name + " (" + st.error + ")");
  if (options_.failurePolicy == FailurePolicy::kFailFast) {
    if (!run->aborted) {
      run->aborted = true;
      trace(run, "abort workflow (fail-fast)");
      for (std::size_t i = 0; i < run->statuses.size(); ++i) {
        StageStatus& other = run->statuses[i];
        if (other.state != StageState::kPending) continue;
        other.state = StageState::kSkipped;
        other.finishedAt = client_.simulator().now();
        other.error = "skipped: fail-fast after '" + name + "' failed";
        trace(run, "skip " + run->spec.stages[i].name + " (fail-fast)");
      }
    }
  } else {
    skipDependents(run, index);
  }
  dispatchReady(run);  // independent branches may still have ready stages
}

void WorkflowEngine::skipDependents(const std::shared_ptr<Run>& run,
                                    std::size_t index) {
  std::vector<std::size_t> frontier{index};
  while (!frontier.empty()) {
    const std::size_t at = frontier.back();
    frontier.pop_back();
    for (std::size_t consumer : run->consumers[at]) {
      StageStatus& st = run->statuses[consumer];
      if (st.state != StageState::kPending) continue;
      st.state = StageState::kSkipped;
      st.finishedAt = client_.simulator().now();
      st.error =
          "skipped: upstream '" + run->spec.stages[index].name + "' failed";
      trace(run, "skip " + run->spec.stages[consumer].name + " (upstream " +
                     run->spec.stages[index].name + " failed)");
      frontier.push_back(consumer);
    }
  }
}

void WorkflowEngine::maybeFinish(const std::shared_ptr<Run>& run) {
  if (run->finished || run->running > 0) return;
  bool allTerminal = true;
  for (const StageStatus& st : run->statuses) {
    if (st.state == StageState::kPending || st.state == StageState::kRunning ||
        st.state == StageState::kStaging) {
      allTerminal = false;
      break;
    }
  }
  if (!allTerminal) return;  // ready stages exist; dispatchReady owns them
  run->finished = true;
  bool succeeded = true;
  for (const StageStatus& st : run->statuses) {
    if (st.state != StageState::kCompleted) succeeded = false;
  }
  run->outcome.succeeded = succeeded;
  run->outcome.makespan = client_.simulator().now() - run->startedAt;
  ++(succeeded ? runs_succeeded_ : runs_failed_);
  if (telemetry_) {
    telemetry_->makespanUs->observe(
        static_cast<double>(run->outcome.makespan.toNanos()) / 1e3);
    if (telemetry_->tracer != nullptr) {
      telemetry_->tracer->setAttr(run->rootCtx, "succeeded",
                                  succeeded ? "true" : "false");
      telemetry_->tracer->endSpan(run->rootCtx);
    }
  }
  trace(run, std::string("finish workflow ") + run->spec.id +
                 (succeeded ? " succeeded" : " failed"));
  for (std::size_t i = 0; i < run->statuses.size(); ++i) {
    run->outcome.stages.emplace(run->spec.stages[i].name, run->statuses[i]);
  }
  DoneCallback done = std::move(run->done);
  done(std::move(run->outcome));
}

void WorkflowEngine::attachTelemetry(telemetry::MetricsRegistry& registry,
                                     telemetry::Tracer* tracer) {
  telemetry_ = std::make_unique<Telemetry>();
  registry.bindCounter("lidc_workflow_runs", {}, runs_);
  registry.bindCounter("lidc_workflow_runs_succeeded", {}, runs_succeeded_);
  registry.bindCounter("lidc_workflow_runs_failed", {}, runs_failed_);
  registry.bindCounter("lidc_workflow_stages_dispatched", {}, stages_dispatched_);
  registry.bindCounter("lidc_workflow_stage_retries", {}, stage_retries_);
  registry.bindCounter("lidc_workflow_stage_hedges", {}, stage_hedges_);
  registry.bindCounter("lidc_workflow_stage_hedges_won", {}, stage_hedges_won_);
  registry.bindCounter("lidc_workflow_lineage_recoveries", {}, lineage_recoveries_);
  registry.bindCounter("lidc_workflow_bytes_moved", {}, bytes_moved_);
  telemetry_->makespanUs = &registry.histogram("lidc_workflow_makespan_us");
  telemetry_->tracer = tracer;
}

void WorkflowEngine::trace(const std::shared_ptr<Run>& run,
                           const std::string& line) {
  char stamp[32];
  std::snprintf(stamp, sizeof(stamp), "t=%.6fs ",
                client_.simulator().now().toSeconds());
  const std::string full = std::string(stamp) + line;
  run->outcome.trace += full;
  run->outcome.trace += '\n';
  if (options_.observer) options_.observer(full);
}

}  // namespace lidc::workflow
