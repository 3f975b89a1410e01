#include "replica/scheduler.hpp"

#include <algorithm>

namespace lidc::replica {

TransferScheduler::TransferScheduler(ndn::Forwarder& forwarder,
                                     datalake::ObjectStore& store,
                                     std::string clusterName,
                                     TransferOptions options,
                                     ReplicaCatalog* catalog)
    : forwarder_(forwarder),
      store_(store),
      cluster_name_(std::move(clusterName)),
      options_(options),
      catalog_(catalog),
      log_(forwarder.simulator(), "replica/" + cluster_name_) {
  face_ = std::make_shared<ndn::AppFace>(
      "app://replica-stager/" + cluster_name_, forwarder_.simulator(),
      std::hash<std::string>{}(cluster_name_) | 1);
  forwarder_.addFace(face_);
  retriever_ = std::make_unique<datalake::Retriever>(*face_);
}

void TransferScheduler::enqueue(const ndn::Name& dataset, Request request,
                                DoneCallback done) {
  if (store_.contains(dataset)) {
    ++local_hits_;
    log_.record(log::Level::kDebug, "hit " + dataset.toUri());
    if (done) done(Status::Ok(), 0);
    return;
  }
  // Join a queued or in-flight transfer of the same dataset rather
  // than fetching twice; the join lends it the higher priority.
  for (auto& entry : queue_) {
    if (entry->dataset == dataset && !entry->cancelled) {
      ++joined_;
      entry->priority = std::max(entry->priority, request.priority);
      if (done) entry->callbacks.push_back(std::move(done));
      log_.record(log::Level::kDebug, "join " + dataset.toUri() + " prio=" +
                                          std::to_string(entry->priority));
      return;
    }
  }
  for (auto& entry : inflight_) {
    if (entry->dataset != dataset) continue;
    // A cancelled fetch keeps its lane until it lands, so this request
    // adopts it (under its own tag) rather than queueing a re-fetch
    // that the next plan would cancel in turn; the superseded plan's
    // waiters still abort.
    const bool adopt = entry->cancelled;
    std::vector<DoneCallback> superseded;
    if (adopt) {
      superseded.swap(entry->callbacks);
      entry->cancelled = false;
      entry->tag = std::move(request.tag);
    }
    ++joined_;
    if (done) entry->callbacks.push_back(std::move(done));
    log_.record(log::Level::kDebug,
                "join " + dataset.toUri() + (adopt ? " (adopted)" : " (in flight)"));
    for (auto& cb : superseded) cb(Status::Aborted("plan superseded"), 0);
    return;
  }
  auto entry = std::make_shared<Entry>();
  entry->dataset = dataset;
  entry->priority = request.priority;
  entry->tag = std::move(request.tag);
  entry->tenant = request.tenant.empty() ? options_.tenant : request.tenant;
  entry->order = next_order_++;
  if (done) entry->callbacks.push_back(std::move(done));
  queue_.push_back(std::move(entry));
  log_.record(log::Level::kDebug,
              "enqueue " + dataset.toUri() + " prio=" +
                  std::to_string(request.priority) +
                  (queue_.back()->tag.empty() ? "" : " tag=" + queue_.back()->tag));
  if (catalog_) catalog_->markStaging(dataset);
  pump();
}

bool TransferScheduler::cancel(const ndn::Name& dataset) {
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if ((*it)->dataset == dataset) {
      std::shared_ptr<Entry> entry = *it;
      queue_.erase(it);
      ++cancelled_;
      log_.record(log::Level::kDebug, "cancel " + dataset.toUri());
      if (catalog_) catalog_->erase(dataset);
      for (auto& cb : entry->callbacks) {
        cb(Status::Aborted("transfer cancelled"), 0);
      }
      return true;
    }
  }
  return false;
}

std::size_t TransferScheduler::cancelTag(const std::string& tag) {
  std::size_t swept = 0;
  for (auto it = queue_.begin(); it != queue_.end();) {
    if ((*it)->tag == tag) {
      std::shared_ptr<Entry> entry = *it;
      it = queue_.erase(it);
      ++cancelled_;
      ++swept;
      log_.record(log::Level::kDebug,
                  "cancel " + entry->dataset.toUri() + " tag=" + tag);
      if (catalog_) catalog_->erase(entry->dataset);
      for (auto& cb : entry->callbacks) {
        cb(Status::Aborted("plan superseded"), 0);
      }
    } else {
      ++it;
    }
  }
  for (auto& entry : inflight_) {
    if (entry->tag == tag && !entry->cancelled) {
      entry->cancelled = true;
      ++cancelled_;
      ++swept;
      log_.record(log::Level::kDebug,
                  "cancel " + entry->dataset.toUri() + " tag=" + tag + " (in flight)");
    }
  }
  return swept;
}

void TransferScheduler::pump() {
  while (active_ < options_.maxConcurrent && !queue_.empty()) {
    const sim::Time now = forwarder_.simulator().now();
    if (options_.bandwidthBytesPerSec > 0 && now < gate_) {
      // Budget exhausted: re-pump when the gate opens.
      if (!pump_armed_) {
        pump_armed_ = true;
        forwarder_.simulator().scheduleAfter(gate_ - now, [this] {
          pump_armed_ = false;
          pump();
        });
      }
      return;
    }
    // Highest priority first; FIFO (enqueue order) within a level.
    auto best = queue_.begin();
    for (auto it = std::next(queue_.begin()); it != queue_.end(); ++it) {
      if ((*it)->priority > (*best)->priority ||
          ((*it)->priority == (*best)->priority &&
           (*it)->order < (*best)->order)) {
        best = it;
      }
    }
    std::shared_ptr<Entry> entry = *best;
    queue_.erase(best);
    startTransfer(std::move(entry));
  }
}

void TransferScheduler::startTransfer(std::shared_ptr<Entry> entry) {
  ++active_;
  inflight_.push_back(entry);
  log_.record(log::Level::kDebug, "start " + entry->dataset.toUri());
  telemetry::FlowLabel label;
  label.tenant = entry->tenant;
  label.tag = entry->tag;
  retriever_->fetch(
      entry->dataset,
      [this, entry](Result<std::vector<std::uint8_t>> bytes) {
        --active_;
        inflight_.erase(
            std::remove(inflight_.begin(), inflight_.end(), entry),
            inflight_.end());
        if (entry->cancelled) {
          // Superseded mid-flight: the bytes arrived but the plan no
          // longer wants them here.
          if (catalog_) catalog_->erase(entry->dataset);
          settle(entry, Status::Aborted("plan superseded"), 0);
          return;
        }
        if (!bytes.ok()) {
          ++failures_;
          log_.record(log::Level::kWarn, "fail " + entry->dataset.toUri() + " (" +
                                             bytes.status().toString() + ")");
          if (catalog_) catalog_->erase(entry->dataset);
          settle(entry, bytes.status(), 0);
          return;
        }
        const std::uint64_t size = bytes->size();
        Status stored = entry->tenant.empty()
                            ? store_.put(entry->dataset, std::move(*bytes))
                            : store_.put(entry->dataset, std::move(*bytes),
                                         entry->tenant);
        if (!stored.ok()) {
          if (stored.code() == StatusCode::kResourceExhausted) {
            ++capacity_rejects_;
            log_.record(log::Level::kWarn, "reject-capacity " + entry->dataset.toUri());
          } else {
            ++failures_;
            log_.record(log::Level::kDebug, "fail " + entry->dataset.toUri() + " (" +
                                                stored.toString() + ")");
          }
          if (catalog_) catalog_->erase(entry->dataset);
          settle(entry, stored, 0);
          return;
        }
        ++staged_;
        bytes_moved_ += size;
        if (flow_ != nullptr && size > 0) {
          telemetry::FlowKey key;
          key.group = "staging";
          key.tenant = telemetry::sanitizeFlowComponent(entry->tenant);
          key.tag = telemetry::sanitizeFlowComponent(entry->tag);
          flow_->recordTransfer(key, size);
        }
        if (options_.bandwidthBytesPerSec > 0 && size > 0) {
          const sim::Time now = forwarder_.simulator().now();
          const auto holdNs = static_cast<std::uint64_t>(
              1e9 * static_cast<double>(size) /
              static_cast<double>(options_.bandwidthBytesPerSec));
          gate_ = std::max(gate_, now) + sim::Duration::nanos(holdNs);
        }
        log_.record(log::Level::kDebug, "done " + entry->dataset.toUri() +
                                            " bytes=" + std::to_string(size));
        if (catalog_) catalog_->markReady(entry->dataset, size);
        settle(entry, Status::Ok(), size);
      },
      telemetry::TraceContext{}, std::move(label));
}

void TransferScheduler::settle(const std::shared_ptr<Entry>& entry,
                               Status status, std::uint64_t bytes) {
  for (auto& cb : entry->callbacks) cb(status, bytes);
  pump();
}

void TransferScheduler::attachTelemetry(telemetry::MetricsRegistry& registry) {
  const telemetry::Labels labels{{"cluster", cluster_name_}};
  registry.bindCounter("lidc_replica_staged_total", labels, staged_);
  registry.bindCounter("lidc_replica_bytes_moved_total", labels, bytes_moved_);
  registry.bindCounter("lidc_replica_capacity_rejected_total", labels,
                       capacity_rejects_);
  registry.bindCounter("lidc_replica_stage_failures_total", labels, failures_);
}

}  // namespace lidc::replica
