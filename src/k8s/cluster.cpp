#include "k8s/cluster.hpp"

#include <algorithm>
#include <cassert>

#include "common/logging.hpp"

namespace lidc::k8s {

Cluster::Cluster(std::string name, sim::Simulator& sim, std::uint64_t seed)
    : name_(std::move(name)), sim_(sim), rng_(seed) {}

// ---------- nodes ----------

Node& Cluster::addNode(const std::string& nodeName, Resources allocatable) {
  auto [it, inserted] =
      nodes_.emplace(nodeName, std::make_unique<Node>(nodeName, allocatable));
  assert(inserted && "duplicate node");
  LIDC_LOG(kDebug, "k8s") << name_ << " NodeAdded " << nodeName
                          << " allocatable cpu=" << allocatable.cpu.toString()
                          << " mem=" << allocatable.memory.toString();
  retryUnschedulable();
  return *it->second;
}

Node* Cluster::node(const std::string& nodeName) {
  auto it = nodes_.find(nodeName);
  return it == nodes_.end() ? nullptr : it->second.get();
}

void Cluster::setNodeReady(const std::string& nodeName, bool ready) {
  if (auto* n = node(nodeName)) {
    n->setReady(ready);
    LIDC_LOG(kDebug, "k8s") << name_ << (ready ? " NodeReady " : " NodeNotReady ")
                            << nodeName << ' ';
    if (ready) retryUnschedulable();
  }
}

void Cluster::setNodeSlowdown(const std::string& nodeName, double factor) {
  if (auto* n = node(nodeName)) {
    n->setSlowdownFactor(factor);
    LIDC_LOG(kDebug, "k8s") << name_
                            << (factor > 1.0 ? " NodeSlowdown " : " NodeSpeedRestored ")
                            << nodeName << " factor=" << std::to_string(factor);
  }
}

void Cluster::failNode(const std::string& nodeName) {
  auto* failed = node(nodeName);
  if (failed == nullptr) return;
  failed->setReady(false);
  LIDC_LOG(kDebug, "k8s") << name_ << " NodeFailed " << nodeName << " evicting pods";

  // Copy the victims' keys first: eviction mutates the node's pod set,
  // which holds the same ns/name keys as pods_, in the same order.
  const std::vector<std::string> victims(failed->podNames().begin(),
                                         failed->podNames().end());
  for (const std::string& podKey : victims) {
    auto podIt = pods_.find(podKey);
    if (podIt == pods_.end()) continue;
    Pod* pod = podIt->second.get();
    // Is this pod backing a running job? Then the job's current attempt
    // fails as if the container died with the node.
    Job* owner = ownerJob(*pod);
    if (owner != nullptr && owner->status().state == JobState::kRunning) {
      AppResult death;
      death.status = Status::Unavailable("node " + nodeName + " failed");
      death.runtime = sim::Duration::nanos(0);
      finishJob(*owner, *pod, death);
      continue;
    }
    // Plain pod (or a job pod that never started): evict and requeue.
    // A bound pod is never queued, so it cannot be queued twice.
    releasePod(*pod);
    pod->setPhase(PodPhase::kPending);
    LIDC_LOG(kDebug, "k8s") << name_ << " PodEvicted " << podKey << " node failure";
    unschedulable_.push_back(podKey);
  }
  retryUnschedulable();
}

std::size_t Cluster::readyNodeCount() const noexcept {
  std::size_t count = 0;
  for (const auto& [name, n] : nodes_) {
    if (n->ready()) ++count;
  }
  return count;
}

std::vector<std::string> Cluster::nodeNames() const {
  std::vector<std::string> names;
  names.reserve(nodes_.size());
  for (const auto& [name, n] : nodes_) names.push_back(name);
  return names;
}

Resources Cluster::totalAllocatable() const {
  Resources total;
  for (const auto& [name, n] : nodes_) total += n->allocatable();
  return total;
}

Resources Cluster::totalAllocated() const {
  Resources total;
  for (const auto& [name, n] : nodes_) total += n->allocated();
  return total;
}

Resources Cluster::totalFree() const {
  Resources total;
  for (const auto& [name, n] : nodes_) {
    if (n->ready()) total += n->free();
  }
  return total;
}

// ---------- namespaces ----------

void Cluster::setNamespaceQuota(const std::string& ns, Resources quota) {
  namespace_quotas_[ns] = quota;
  LIDC_LOG(kDebug, "k8s") << name_ << " QuotaSet " << ns
                          << " cpu=" << quota.cpu.toString()
                          << " mem=" << quota.memory.toString();
}

std::optional<Resources> Cluster::namespaceQuota(const std::string& ns) const {
  auto it = namespace_quotas_.find(ns);
  if (it == namespace_quotas_.end()) return std::nullopt;
  return it->second;
}

Resources Cluster::namespaceUsage(const std::string& ns) const {
  // A ResourceQuota counts only pods in a non-terminal phase, as in K8s.
  Resources usage;
  const std::string prefix = ns + "/";
  for (auto it = pods_.lower_bound(prefix);
       it != pods_.end() && it->first.starts_with(prefix); ++it) {
    const PodPhase phase = it->second->phase();
    if (phase == PodPhase::kPending || phase == PodPhase::kRunning) {
      usage += it->second->spec().requests;
    }
  }
  return usage;
}

// ---------- pods ----------

Result<Pod*> Cluster::createPod(const std::string& ns, const std::string& podName,
                                PodSpec spec) {
  const std::string k = key(ns, podName);
  if (pods_.count(k) > 0) return Status::AlreadyExists("pod " + k);

  // ResourceQuota admission: rejected, not queued (K8s semantics).
  if (auto quota = namespaceQuota(ns)) {
    const Resources projected = namespaceUsage(ns) + spec.requests;
    if (!projected.fitsWithin(*quota)) {
      LIDC_LOG(kDebug, "k8s") << name_ << " QuotaExceeded " << k << " namespace " << ns
                              << " over quota";
      return Status::ResourceExhausted("namespace " + ns +
                                       " ResourceQuota exceeded");
    }
  }
  auto pod = std::make_unique<Pod>(podName, ns, std::move(spec));
  Pod* raw = pod.get();
  pods_.emplace(k, std::move(pod));
  if (!trySchedulePod(*raw)) {
    unschedulable_.push_back(k);
    LIDC_LOG(kDebug, "k8s") << name_ << " FailedScheduling " << k
                            << " insufficient resources; pod stays Pending";
  }
  return raw;
}

Pod* Cluster::pod(const std::string& ns, const std::string& podName) {
  auto it = pods_.find(lookupKey(ns, podName));
  return it == pods_.end() ? nullptr : it->second.get();
}

Status Cluster::deletePod(const std::string& ns, const std::string& podName) {
  const std::string k = key(ns, podName);
  auto it = pods_.find(k);
  if (it == pods_.end()) return Status::NotFound("pod " + k);
  releasePod(*it->second);
  std::erase(unschedulable_, k);
  pods_.erase(it);
  retryUnschedulable();
  return Status::Ok();
}

std::vector<Pod*> Cluster::podsInNamespace(const std::string& ns) {
  std::vector<Pod*> out;
  for (auto& [k, pod] : pods_) {
    if (pod->namespaceName() == ns) out.push_back(pod.get());
  }
  return out;
}

bool Cluster::trySchedulePod(Pod& pod) {
  std::vector<Node*> candidates;
  candidates.reserve(nodes_.size());
  for (auto& [name, n] : nodes_) candidates.push_back(n.get());

  auto selected = scheduler_.selectNode(pod, candidates);
  if (!selected) return false;

  Node* target = node(*selected);
  target->allocate(key(pod.namespaceName(), pod.name()), pod.spec().requests);
  pod.bindToNode(*selected);
  pod.setPodIp("10.1.0." + std::to_string(next_pod_ip_++));
  LIDC_LOG(kDebug, "k8s") << name_ << " PodScheduled " << pod.namespaceName() << '/'
                          << pod.name() << " bound to " << *selected;
  startPodOnNode(pod);
  return true;
}

void Cluster::retryUnschedulable() {
  // Higher priority classes get first claim on freed capacity; the sort
  // is stable so FIFO order survives within a class. Retry the whole
  // queue; stop early is not valid because a small pod later in the
  // queue may fit even when the head does not.
  std::stable_sort(unschedulable_.begin(), unschedulable_.end(),
                   [this](const std::string& a, const std::string& b) {
                     auto ia = pods_.find(a);
                     auto ib = pods_.find(b);
                     const int pa =
                         ia == pods_.end() ? 0 : ia->second->spec().priorityClass;
                     const int pb =
                         ib == pods_.end() ? 0 : ib->second->spec().priorityClass;
                     return pa > pb;
                   });
  std::deque<std::string> still_waiting;
  while (!unschedulable_.empty()) {
    const std::string k = unschedulable_.front();
    unschedulable_.pop_front();
    auto it = pods_.find(k);
    if (it == pods_.end()) continue;
    if (!trySchedulePod(*it->second)) still_waiting.push_back(k);
  }
  unschedulable_ = std::move(still_waiting);
}

void Cluster::startPodOnNode(Pod& pod) {
  const std::string k = key(pod.namespaceName(), pod.name());
  // Image pull + container start delay, then Running.
  sim_.scheduleAfter(pod.spec().startupDelay, [this, k] {
    auto it = pods_.find(k);
    if (it == pods_.end()) return;
    Pod& p = *it->second;
    if (p.phase() != PodPhase::kPending) return;
    p.setPhase(PodPhase::kRunning);
    p.setStartTime(sim_.now());
    LIDC_LOG(kDebug, "k8s") << name_ << " PodStarted " << k
                            << " on node " << p.nodeName();

    // If this pod belongs to a job, run the application now.
    if (Job* owner = ownerJob(p);
        owner != nullptr && owner->status().state == JobState::kPending) {
      executeJobPod(*owner, p);
    }
  });
}

Job* Cluster::ownerJob(const Pod& pod) {
  // Only the job's current attempt counts as backed by it.
  const auto label = pod.spec().labels.find("job-name");
  if (label == pod.spec().labels.end()) return nullptr;
  const auto it = jobs_.find(lookupKey(pod.namespaceName(), label->second));
  if (it == jobs_.end() || it->second->podName() != pod.name()) return nullptr;
  return it->second.get();
}

void Cluster::releasePod(Pod& pod) {
  if (!pod.nodeName().empty()) {
    if (auto* n = node(pod.nodeName())) {
      n->release(key(pod.namespaceName(), pod.name()), pod.spec().requests);
    }
    pod.bindToNode("");
  }
}

// ---------- services ----------

Result<Service*> Cluster::createService(const std::string& ns,
                                        const std::string& svcName, ServiceSpec spec) {
  const std::string k = key(ns, svcName);
  if (services_.count(k) > 0) return Status::AlreadyExists("service " + k);
  if (spec.type == ServiceType::kNodePort && spec.nodePort == 0) {
    if (next_node_port_ > 32767) {
      return Status::ResourceExhausted("NodePort range 30000-32767 exhausted");
    }
    spec.nodePort = next_node_port_++;
  }
  auto svc = std::make_unique<Service>(svcName, ns, std::move(spec));
  svc->setClusterIp("10.152.183." + std::to_string(1 + services_.size() % 250));
  Service* raw = svc.get();
  services_.emplace(k, std::move(svc));
  dns_.addRecord(raw->dnsName(), k);
  LIDC_LOG(kDebug, "k8s") << name_ << " ServiceCreated " << k
                          << " dns=" << raw->dnsName();
  return raw;
}

Service* Cluster::service(const std::string& ns, const std::string& svcName) {
  auto it = services_.find(lookupKey(ns, svcName));
  return it == services_.end() ? nullptr : it->second.get();
}

Status Cluster::deleteService(const std::string& ns, const std::string& svcName) {
  const std::string k = key(ns, svcName);
  auto it = services_.find(k);
  if (it == services_.end()) return Status::NotFound("service " + k);
  dns_.removeRecord(it->second->dnsName());
  services_.erase(it);
  return Status::Ok();
}

Service* Cluster::resolveDns(const std::string& dnsName) {
  auto k = dns_.resolve(dnsName);
  if (!k) return nullptr;
  auto it = services_.find(*k);
  return it == services_.end() ? nullptr : it->second.get();
}

std::vector<Pod*> Cluster::serviceEndpoints(const Service& svc) {
  std::vector<Pod*> endpoints;
  for (auto& [k, pod] : pods_) {
    if (pod->namespaceName() != svc.namespaceName()) continue;
    if (pod->phase() != PodPhase::kRunning) continue;
    if (selectorMatches(svc.spec().selector, pod->spec().labels)) {
      endpoints.push_back(pod.get());
    }
  }
  return endpoints;
}

// ---------- PVCs ----------

Result<PersistentVolumeClaim*> Cluster::createPvc(const std::string& pvcName,
                                                  ByteSize capacity) {
  if (pvcs_.count(pvcName) > 0) return Status::AlreadyExists("pvc " + pvcName);
  auto claim = std::make_unique<PersistentVolumeClaim>(pvcName, capacity);
  PersistentVolumeClaim* raw = claim.get();
  pvcs_.emplace(pvcName, std::move(claim));
  LIDC_LOG(kDebug, "k8s") << name_ << " PvcCreated " << pvcName
                          << " capacity=" << capacity.toString();
  return raw;
}

PersistentVolumeClaim* Cluster::pvc(const std::string& pvcName) {
  auto it = pvcs_.find(pvcName);
  return it == pvcs_.end() ? nullptr : it->second.get();
}

// ---------- apps & jobs ----------

void Cluster::registerApp(const std::string& appName, AppRunner runner) {
  assert(runner);
  apps_[appName] = std::move(runner);
}

std::vector<std::string> Cluster::appNames() const {
  std::vector<std::string> names;
  names.reserve(apps_.size());
  for (const auto& [name, runner] : apps_) names.push_back(name);
  return names;
}

Status Cluster::resizePod(const std::string& ns, const std::string& podName,
                          Resources newRequests) {
  Pod* target = pod(ns, podName);
  if (target == nullptr) return Status::NotFound("pod " + key(ns, podName));
  const std::string k = key(ns, podName);

  if (target->nodeName().empty()) {
    // Still pending: just respecify and let the scheduler retry.
    target->setRequests(newRequests);
    retryUnschedulable();
    return Status::Ok();
  }

  Node* host = node(target->nodeName());
  assert(host != nullptr);
  const Resources old = target->spec().requests;
  host->release(k, old);
  if (!host->canFit(newRequests)) {
    host->allocate(k, old);  // restore
    return Status::ResourceExhausted("node " + host->name() +
                                     " cannot absorb the resize of " + k);
  }
  host->allocate(k, newRequests);
  target->setRequests(newRequests);
  LIDC_LOG(kDebug, "k8s") << name_ << " PodResized " << k
                          << " cpu=" << newRequests.cpu.toString()
                          << " mem=" << newRequests.memory.toString();
  retryUnschedulable();  // shrinking may free room for queued pods
  return Status::Ok();
}

Result<Job*> Cluster::createJob(const std::string& ns, const std::string& jobName,
                                JobSpec spec) {
  const std::string k = key(ns, jobName);
  if (jobs_.count(k) > 0) return Status::AlreadyExists("job " + k);
  if (apps_.count(spec.app) == 0) {
    return Status::NotFound("no application image '" + spec.app + "' on cluster " +
                            name_);
  }

  auto job = std::make_unique<Job>(jobName, ns, spec);
  job->mutableStatus().submitTime = sim_.now();
  Job* raw = job.get();
  jobs_.emplace(k, std::move(job));
  auto pod = createJobPod(*raw);
  if (!pod.ok()) {
    jobs_.erase(k);
    return pod.status();
  }
  LIDC_LOG(kDebug, "k8s") << name_ << " JobCreated " << k << " app=" << spec.app;
  return raw;
}

Result<Pod*> Cluster::createJobPod(Job& job) {
  PodSpec podSpec;
  podSpec.image = job.spec().app;
  podSpec.requests = job.spec().requests;
  podSpec.labels = {{"job-name", job.name()}, {"app", job.spec().app}};
  podSpec.args = job.spec().args;
  podSpec.priorityClass = job.spec().priorityClass;
  job.setPodName(job.name() + "-pod-" + std::to_string(job.status().attempts));
  return createPod(job.namespaceName(), job.podName(), std::move(podSpec));
}

Job* Cluster::job(const std::string& ns, const std::string& jobName) {
  auto it = jobs_.find(lookupKey(ns, jobName));
  return it == jobs_.end() ? nullptr : it->second.get();
}

const Job* Cluster::job(const std::string& ns, const std::string& jobName) const {
  auto it = jobs_.find(lookupKey(ns, jobName));
  return it == jobs_.end() ? nullptr : it->second.get();
}

Status Cluster::deleteJob(const std::string& ns, const std::string& jobName) {
  const std::string k = key(ns, jobName);
  auto it = jobs_.find(k);
  if (it == jobs_.end()) return Status::NotFound("job " + k);
  const JobStatus& status = it->second->status();
  if (status.state == JobState::kRunning) --running_jobs_;
  // One pod per attempt, up to the retry made after the last failure.
  bool freed = false;
  for (int attempt = 0; attempt <= status.attempts; ++attempt) {
    const std::string podKey = key(ns, jobName + "-pod-" + std::to_string(attempt));
    auto podIt = pods_.find(podKey);
    if (podIt == pods_.end()) continue;
    freed = freed || !podIt->second->nodeName().empty();
    releasePod(*podIt->second);
    std::erase(unschedulable_, podKey);
    pods_.erase(podIt);
  }
  jobs_.erase(it);
  if (freed) retryUnschedulable();  // capacity came back
  return Status::Ok();
}

std::vector<Job*> Cluster::jobsInNamespace(const std::string& ns) {
  std::vector<Job*> out;
  for (auto& [k, job] : jobs_) {
    if (job->namespaceName() == ns) out.push_back(job.get());
  }
  return out;
}

void Cluster::executeJobPod(Job& job, Pod& pod) {
  job.mutableStatus().state = JobState::kRunning;
  job.mutableStatus().startTime = sim_.now();
  job.mutableStatus().attempts += 1;
  ++running_jobs_;

  auto runnerIt = apps_.find(job.spec().app);
  assert(runnerIt != apps_.end() && "createJob validated the app image");

  AppContext context{job.spec(), pvc(job.spec().pvcName), rng_};
  // The runner does its real work now; its reported runtime drives the
  // simulated completion schedule.
  AppResult result = runnerIt->second(context);

  // A gray-degraded node stays Ready but serves at a fraction of its
  // rate: the pod's wall-clock runtime stretches by the bound node's
  // slowdown factor (sampled at execution start, like CPU throttling).
  if (const Node* bound = node(pod.nodeName());
      bound != nullptr && bound->slowdownFactor() > 1.0) {
    result.runtime = result.runtime * bound->slowdownFactor();
  }

  for (const auto& watcher : exec_watchers_) watcher(job, result);

  const std::string ns = job.namespaceName();
  const std::string jobName = job.name();
  const std::string podKey = key(pod.namespaceName(), pod.name());
  sim_.scheduleAfter(result.runtime, [this, ns, jobName, podKey, result] {
    auto jobIt = jobs_.find(lookupKey(ns, jobName));
    auto podIt = pods_.find(podKey);
    if (jobIt == jobs_.end() || podIt == pods_.end()) return;
    // The pod may have been killed in the meantime (node failure); only
    // a still-Running attempt can complete.
    if (jobIt->second->status().state != JobState::kRunning) return;
    if (podIt->second->phase() != PodPhase::kRunning) return;
    finishJob(*jobIt->second, *podIt->second, result);
  });
}

void Cluster::finishJob(Job& job, Pod& pod, const AppResult& result) {
  --running_jobs_;
  auto& status = job.mutableStatus();
  status.completionTime = sim_.now();
  status.message = result.message;
  status.resultPath = result.resultPath;
  status.outputBytes = result.outputBytes;

  if (result.status.ok()) {
    pod.setPhase(PodPhase::kSucceeded);
    status.state = JobState::kCompleted;
    LIDC_LOG(kDebug, "k8s") << name_ << " JobCompleted " << job.namespaceName() << '/'
                            << job.name() << " output=" << result.outputBytes << 'B';
  } else {
    pod.setPhase(PodPhase::kFailed);
    if (status.attempts <= job.spec().backoffLimit) {
      // Retry with a fresh pod, as the Job controller does.
      LIDC_LOG(kDebug, "k8s") << name_ << " JobRetry " << job.namespaceName() << '/'
                              << job.name() << " attempt " << status.attempts;
      releasePod(pod);
      status.state = JobState::kPending;
      if (createJobPod(job).ok()) {
        retryUnschedulable();
        return;
      }
      // Fall through to Failed if even pod creation failed.
    }
    status.state = JobState::kFailed;
    status.message = result.status.toString();
    LIDC_LOG(kDebug, "k8s") << name_ << " JobFailed " << job.namespaceName() << '/'
                            << job.name() << ' ' << status.message;
  }

  releasePod(pod);
  retryUnschedulable();
  for (const auto& watcher : job_watchers_) watcher(job);
}

}  // namespace lidc::k8s
