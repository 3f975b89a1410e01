// The gateway's replies, each one k=v record (common/kv.hpp) with one
// encoder, which the gateway calls, and one decoder, which the client
// calls: submit acks, status, cluster info and publish acks. Encoders
// write their fields in key order, straight into the bytes that become
// the reply's Data content.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "common/units.hpp"
#include "core/result_cache.hpp"
#include "k8s/job.hpp"
#include "ndn/name.hpp"
#include "sim/time.hpp"

namespace lidc::k8s {
class Cluster;
}  // namespace lidc::k8s

namespace lidc::core {

/// Outcome of a compute submission: the ack's fields.
struct SubmitResult {
  std::string jobId;
  std::string cluster;       // which cluster took the job (informational)
  std::string statusName;    // poll here
  bool cached = false;       // answered from a result cache
  bool deduplicated = false; // joined an in-flight identical job
  std::string resultPath;    // set when cached
  std::uint64_t outputBytes = 0;
  sim::Duration placementLatency;  // Interest out -> ack back; not on the wire
};

/// One status poll answer.
struct JobStatusSnapshot {
  k8s::JobState state = k8s::JobState::kPending;
  std::string cluster;
  std::string resultPath;
  std::uint64_t outputBytes = 0;
  sim::Duration runtime;
  std::string error;
};

/// A cluster's advertised capabilities (/ndn/k8s/info/<cluster>).
struct ClusterInfo {
  std::string cluster;
  MilliCpu freeCpu;
  ByteSize freeMemory;
  MilliCpu totalCpu;
  ByteSize totalMemory;
  std::size_t runningJobs = 0;
  std::size_t nodes = 0;
  std::vector<std::string> apps;
};

/// One encoded reply record, as the Data content it is sent as.
using ReplyBytes = std::vector<std::uint8_t>;

/// A refusal in any reply; an empty cluster is left out.
ReplyBytes encodeError(std::string_view error, std::string_view cluster);

/// The ack for a job the gateway runs, joins (`deduplicated`) or, when
/// gray, pretends to run: the client polls its status name.
ReplyBytes encodeJobAck(const std::string& cluster, const std::string& jobId,
                        bool deduplicated = false);
/// A result-cache hit carries the result instead of a status name.
ReplyBytes encodeCachedAck(std::string_view cluster, const CachedResult& cached);
/// An error field is InvalidArgument. A malformed record, or one with
/// neither job_id nor error, is Internal.
Result<SubmitResult> decodeAck(std::string_view text);

/// Completed carries the result fields, Failed the error.
ReplyBytes encodeStatus(const JobStatusSnapshot& status);
/// An error without a state is NotFound. A malformed record, an unknown
/// state, or neither state nor error is Internal.
Result<JobStatusSnapshot> decodeStatus(std::string_view text);

ReplyBytes encodeInfo(const k8s::Cluster& cluster);
/// A malformed record is Internal; unparseable numbers read as 0.
Result<ClusterInfo> decodeInfo(std::string_view text);

/// The publish ack: where the object was stored, and its size.
ReplyBytes encodePublished(const ndn::Name& stored, std::uint64_t bytes,
                           std::string_view cluster);
/// The stored name. An error field is InvalidArgument; anything else is
/// Internal.
Result<ndn::Name> decodePublished(std::string_view text);

}  // namespace lidc::core
