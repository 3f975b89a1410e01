#include "harness.hpp"

#include <time.h>

#include <algorithm>
#include <unordered_map>

#include "common/rng.hpp"
#include "core/compute_cluster.hpp"
#include "net/topology.hpp"
#include "telemetry/monitor.hpp"
#include "telemetry/trace.hpp"

namespace perfbench {

using namespace lidc;

double threadCpuSeconds() {
  timespec now{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) + static_cast<double>(now.tv_nsec) * 1e-9;
}

std::uint64_t fnv1a(const void* data, std::size_t size, std::uint64_t h) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ULL;
  }
  return h;
}

std::vector<std::uint8_t> randomBytes(std::uint64_t seed, std::size_t size) {
  std::vector<std::uint8_t> bytes(size);
  Rng rng(seed);
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    const std::uint64_t word = rng();
    for (int b = 0; b < 8; ++b) bytes[i + b] = static_cast<std::uint8_t>(word >> (8 * b));
  }
  for (; i < size; ++i) bytes[i] = static_cast<std::uint8_t>(rng());
  return bytes;
}

std::uint64_t RepResult::failed() const {
  return static_cast<std::uint64_t>(
      std::count(latencyNs.begin(), latencyNs.end(), std::int64_t{-1}));
}

std::uint64_t RepResult::digest() const {
  std::uint64_t h = fnv1a(nullptr, 0);
  for (std::size_t i = 0; i < latencyNs.size(); ++i) {
    const std::int64_t record[2] = {static_cast<std::int64_t>(i), latencyNs[i]};
    h = fnv1a(record, sizeof(record), h);
  }
  return h;
}

void addNetworkCounts(net::Topology& topology, double ops, RepResult& result) {
  ndn::ForwarderCounters sum;
  double pitLeft = 0;
  for (const std::string& name : topology.nodeNames()) {
    ndn::Forwarder* node = topology.node(name);
    const ndn::ForwarderCounters& c = node->counters();
    sum.nInInterests += c.nInInterests;
    sum.nOutInterests += c.nOutInterests;
    sum.nInData += c.nInData;
    sum.nCsHits += c.nCsHits;
    sum.nCsMisses += c.nCsMisses;
    sum.nUnsatisfied += c.nUnsatisfied;
    sum.nNoRoute += c.nNoRoute;
    sum.nIntegrityDrops += c.nIntegrityDrops;
    pitLeft += static_cast<double>(node->pit().size());
  }
  double linkBytes = 0;
  double delivered = 0;
  double dropped = 0;
  for (const net::Topology::Edge& edge : topology.edges()) {
    for (const auto& [node, face] :
         {std::pair{edge.a, edge.faceAtA}, std::pair{edge.b, edge.faceAtB}}) {
      if (ndn::Face* f = topology.node(node)->face(face)) {
        linkBytes += static_cast<double>(f->counters().nOutBytes);
      }
    }
    delivered += static_cast<double>(edge.link->packetsDelivered());
    dropped += static_cast<double>(edge.link->packetsDropped());
  }
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  const double lookups = d(sum.nCsHits + sum.nCsMisses);
  auto& c = result.counts;
  c["ndn.interests_per_op"] = d(sum.nInInterests) / ops;
  c["ndn.data_per_op"] = d(sum.nInData) / ops;
  c["ndn.cs_hit_ratio"] = lookups > 0 ? d(sum.nCsHits) / lookups : 0.0;
  c["ndn.unsatisfied_per_op"] = d(sum.nUnsatisfied) / ops;
  c["ndn.noroute_per_op"] = d(sum.nNoRoute) / ops;
  c["ndn.integrity_drops"] = d(sum.nIntegrityDrops);
  c["ndn.pit_left"] = pitLeft;
  c["net.packets_per_op"] = delivered / ops;
  c["net.drops_per_op"] = dropped / ops;
  auto& t = result.totals;
  t["link_bytes"] = linkBytes;
  t["in_interests"] = d(sum.nInInterests);
  t["out_interests"] = d(sum.nOutInterests);
  t["in_data"] = d(sum.nInData);
  t["cs_lookups"] = lookups;
}

void addFederationCounts(const std::vector<core::ComputeCluster*>& clusters,
                         const std::vector<std::string>& tenants, double submits,
                         double ops, RepResult& result) {
  double polls = 0, refusals = 0, cacheHits = 0, launched = 0, publishes = 0;
  double served = 0, snapshots = 0, admitted = 0, rejected = 0;
  for (core::ComputeCluster* cluster : clusters) {
    const core::GatewayCounters& g = cluster->gateway().counters();
    polls += static_cast<double>(g.statusReceived);
    refusals += static_cast<double>(g.capacityRejected + g.healthRejected);
    cacheHits += static_cast<double>(g.cacheHits);
    launched += static_cast<double>(g.jobsLaunched);
    publishes += static_cast<double>(g.publishesAccepted);
    served += static_cast<double>(cluster->fileServer().interestsServed());
    if (auto* publisher = cluster->telemetryPublisher()) {
      snapshots += static_cast<double>(publisher->snapshotsGenerated());
    }
    if (auto* admission = cluster->gateway().admission()) {
      for (const std::string& tenant : tenants) {
        admitted += static_cast<double>(admission->admitted(tenant));
        rejected += static_cast<double>(admission->rejected(tenant));
      }
    }
  }
  auto& c = result.counts;
  c["core.submits_per_op"] = submits / ops;
  c["core.polls_per_op"] = polls / ops;
  c["core.refusals_per_op"] = refusals / ops;
  c["core.result_cache_hits"] = cacheHits;
  c["k8s.jobs_launched_per_op"] = launched / ops;
  c["datalake.segments_per_op"] = served / ops;
  c["datalake.publishes_per_op"] = publishes / ops;
  c["qos.reject_ratio"] = admitted + rejected > 0 ? rejected / (admitted + rejected) : 0.0;
  result.totals["jobs_launched"] = launched;
  result.totals["segments_served"] = served;
  result.totals["snapshots"] = snapshots;
}

void addTelemetryCounts(telemetry::MetricsRegistry* registry,
                        const telemetry::CollectorCounters* collector,
                        RepResult& result) {
  auto& c = result.counts;
  c["telemetry.series"] = registry ? static_cast<double>(registry->size()) : 0.0;
  const double started = collector ? static_cast<double>(collector->scrapesStarted) : 0.0;
  c["telemetry.scrape_reuse_ratio"] =
      started > 0 ? static_cast<double>(collector->manifestReuses) / started : 0.0;
  c["telemetry.scrape_fail_ratio"] =
      started > 0 ? static_cast<double>(collector->scrapesFailed) / started : 0.0;
}

void addAbsent(RepResult& result, std::initializer_list<const char*> names) {
  for (const char* name : names) result.counts[name] = 0.0;
}

void addTraceCounts(const telemetry::Tracer& tracer, double ops, RepResult& result) {
  const std::vector<telemetry::Span> spans = tracer.allSpans();
  std::unordered_map<telemetry::SpanId, std::vector<std::size_t>> children;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != 0) children[spans[i].parent].push_back(i);
  }
  // Span kinds whose simulated self time is reported.
  std::map<std::string, std::int64_t> selfNs = {
      {"submit-attempt", 0}, {"k8s-schedule", 0},   {"k8s-exec", 0}, {"await-completion", 0},
      {"data-retrieval", 0}, {"data-publish", 0}, {"stage", 0}};
  double admissions = 0;
  for (const telemetry::Span& span : spans) {
    if (span.name == "gateway-admission") ++admissions;
    auto kind = selfNs.find(span.name);
    if (kind == selfNs.end() || span.open) continue;
    const std::int64_t begin = span.start.toNanos();
    const std::int64_t end = span.end.toNanos();
    // Self time: the span's interval minus the union of its children's.
    std::vector<std::pair<std::int64_t, std::int64_t>> covered;
    if (auto it = children.find(span.id); it != children.end()) {
      for (std::size_t index : it->second) {
        const telemetry::Span& child = spans[index];
        const std::int64_t lo = std::max(begin, child.start.toNanos());
        const std::int64_t hi = std::min(end, child.end.toNanos());
        if (hi > lo) covered.emplace_back(lo, hi);
      }
    }
    std::sort(covered.begin(), covered.end());
    std::int64_t coveredNs = 0;
    std::int64_t reach = begin;
    for (const auto& [lo, hi] : covered) {
      const std::int64_t from = std::max(lo, reach);
      if (hi > from) coveredNs += hi - from;
      reach = std::max(reach, hi);
    }
    kind->second += (end - begin) - coveredNs;
  }
  double latencyNs = 0;
  for (std::int64_t ns : result.latencyNs) {
    if (ns > 0) latencyNs += static_cast<double>(ns);
  }
  for (const auto& [kind, ns] : selfNs) {
    result.counts["trace.self_share." + kind] =
        latencyNs > 0 ? static_cast<double>(ns) / latencyNs : 0.0;
  }
  result.counts["trace.spans_per_op"] = static_cast<double>(spans.size()) / ops;
  result.counts["trace.admissions_per_op"] = admissions / ops;
}

}  // namespace perfbench
