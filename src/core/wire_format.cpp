#include "core/wire_format.hpp"

#include <algorithm>
#include <iterator>

#include "common/kv.hpp"
#include "common/strings.hpp"
#include "core/semantic_name.hpp"
#include "k8s/cluster.hpp"

namespace lidc::core {

namespace {
/// A writer whose buffer already has room for all but the longest
/// replies, so most records take one heap block, not one per doubling.
kv::ByteWriter replyWriter() {
  ReplyBytes bytes;
  bytes.reserve(128);
  return kv::ByteWriter(std::move(bytes));
}
}  // namespace

ReplyBytes encodeError(std::string_view error, std::string_view cluster) {
  kv::ByteWriter writer = replyWriter();
  if (!cluster.empty()) writer.add("cluster", cluster);
  return writer.add("error", error).take();
}

ReplyBytes encodeJobAck(const std::string& cluster, const std::string& jobId,
                        bool deduplicated) {
  kv::ByteWriter writer = replyWriter();
  writer.add("cluster", cluster);
  if (deduplicated) writer.add("deduplicated", "1");
  return writer.add("job_id", jobId)
      .add("status_name", makeStatusName(cluster, jobId).toUri())
      .take();
}

ReplyBytes encodeCachedAck(std::string_view cluster, const CachedResult& cached) {
  return replyWriter()
      .add("cached", "1")
      .add("cluster", cluster)
      .add("job_id", cached.jobId)
      .add("output_bytes", cached.outputBytes)
      .add("result", cached.resultPath)
      .take();
}

Result<SubmitResult> decodeAck(std::string_view text) {
  const kv::Reader fields(text);
  if (fields.has("error")) {
    return Status::InvalidArgument(std::string(fields.get("error")));
  }
  if (!fields.has("job_id")) return Status::Internal("malformed ack");
  SubmitResult ack;
  ack.jobId = fields.get("job_id");
  ack.cluster = fields.get("cluster");
  if (fields.has("status_name")) {
    ack.statusName = fields.get("status_name");
  } else if (!ack.jobId.empty() && !ack.cluster.empty()) {
    ack.statusName = makeStatusName(ack.cluster, ack.jobId).toUri();
  }
  ack.cached = fields.has("cached");
  ack.deduplicated = fields.has("deduplicated");
  ack.resultPath = fields.get("result");
  ack.outputBytes = strings::parseUint(fields.get("output_bytes")).value_or(0);
  return ack;
}

ReplyBytes encodeStatus(const JobStatusSnapshot& status) {
  kv::ByteWriter writer = replyWriter();
  writer.add("cluster", status.cluster);
  if (status.state == k8s::JobState::kCompleted) {
    // Paper SIV-A: "The response contains the information as to how to
    // retrieve the results from the data lake."
    writer.add("output_bytes", status.outputBytes)
        .add("result", status.resultPath)
        .add("runtime_s", std::to_string(status.runtime.toSeconds()));
  } else if (status.state == k8s::JobState::kFailed) {
    writer.add("error", status.error);
  }
  return writer.add("state", k8s::jobStateName(status.state)).take();
}

Result<JobStatusSnapshot> decodeStatus(std::string_view text) {
  const kv::Reader fields(text);
  if (!fields.has("state")) {
    if (fields.has("error")) return Status::NotFound(std::string(fields.get("error")));
    return Status::Internal("malformed status reply");
  }
  using enum k8s::JobState;
  constexpr k8s::JobState kStates[] = {kPending, kRunning, kCompleted, kFailed};
  const std::string_view state = fields.get("state");
  const auto* known = std::ranges::find(kStates, state, k8s::jobStateName);
  if (known == std::end(kStates)) {
    return Status::Internal("malformed status reply: state " + std::string(state));
  }
  JobStatusSnapshot status;
  status.state = *known;
  status.cluster = fields.get("cluster");
  status.resultPath = fields.get("result");
  status.outputBytes = strings::parseUint(fields.get("output_bytes")).value_or(0);
  status.runtime =
      sim::Duration::seconds(strings::parseDouble(fields.get("runtime_s")).value_or(0));
  status.error = fields.get("error");
  return status;
}

ReplyBytes encodeInfo(const k8s::Cluster& cluster) {
  const k8s::Resources free = cluster.totalFree();
  const k8s::Resources total = cluster.totalAllocatable();
  return replyWriter()
      .add("apps", strings::join(cluster.appNames(), ","))
      .add("cluster", cluster.name())
      .add("free_cpu_m", free.cpu.millicores())
      .add("free_mem_bytes", free.memory.bytes())
      .add("nodes", cluster.nodeCount())
      .add("running_jobs", cluster.runningJobCount())
      .add("total_cpu_m", total.cpu.millicores())
      .add("total_mem_bytes", total.memory.bytes())
      .take();
}

Result<ClusterInfo> decodeInfo(std::string_view text) {
  const kv::Reader fields(text);
  if (!fields.ok()) return Status::Internal("malformed info reply");
  auto number = [&fields](std::string_view key) {
    return strings::parseUint(fields.get(key)).value_or(0);
  };
  ClusterInfo info;
  info.cluster = fields.get("cluster");
  info.freeCpu = MilliCpu(number("free_cpu_m"));
  info.freeMemory = ByteSize(number("free_mem_bytes"));
  info.totalCpu = MilliCpu(number("total_cpu_m"));
  info.totalMemory = ByteSize(number("total_mem_bytes"));
  info.runningJobs = number("running_jobs");
  info.nodes = number("nodes");
  for (auto app : strings::splitSkipEmpty(fields.get("apps"), ',')) {
    info.apps.emplace_back(app);
  }
  return info;
}

ReplyBytes encodePublished(const ndn::Name& stored, std::uint64_t bytes,
                           std::string_view cluster) {
  return replyWriter()
      .add("bytes", bytes)
      .add("cluster", cluster)
      .add("stored", stored.toUri())
      .take();
}

Result<ndn::Name> decodePublished(std::string_view text) {
  const kv::Reader fields(text);
  if (fields.has("error")) {
    return Status::InvalidArgument(std::string(fields.get("error")));
  }
  if (!fields.has("stored")) return Status::Internal("malformed publish ack");
  return ndn::Name(fields.get("stored"));
}

}  // namespace lidc::core
