#include "replay.hpp"

#include <algorithm>
#include <limits>
#include <span>

#include "datalake/object_store.hpp"
#include "k8s/cluster.hpp"
#include "k8s/pvc.hpp"
#include "ndn/app_face.hpp"
#include "ndn/forwarder.hpp"
#include "telemetry/metrics.hpp"

namespace perfbench {
namespace {

using namespace lidc;

volatile std::uint64_t g_sink = 0;

constexpr int kBatches = 5;
constexpr std::size_t kMaxPackets = 512;
constexpr std::size_t kMaxObjects = 32;
constexpr std::size_t kMinCached = 16;
constexpr std::size_t kFallbackPayload = 128;

/// Runs `batch` (which performs `calls` calls and returns a checksum)
/// once to warm up, then kBatches times; returns the median ns per call.
template <typename Batch>
double nsPerCall(std::size_t calls, Batch&& batch) {
  std::uint64_t sink = batch();
  std::vector<double> samples;
  for (int i = 0; i < kBatches; ++i) {
    const double start = threadCpuSeconds();
    sink += batch();
    samples.push_back((threadCpuSeconds() - start) * 1e9 / static_cast<double>(calls));
  }
  g_sink = g_sink + sink;
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// Data packets for the captured names: the copies the router still
/// caches at the end of the run, or, when it holds too few, signed
/// packets of the captured payload sizes.
std::vector<ndn::Data> capturedData(const Capture& capture, ndn::Forwarder* router,
                                    const std::vector<ndn::Name>& names) {
  std::vector<ndn::Data> packets;
  const sim::Time end = sim::Time::fromNanos(std::numeric_limits<std::int64_t>::max() / 2);
  if (router != nullptr) {
    for (const ndn::Name& name : names) {
      if (packets.size() >= kMaxPackets) break;
      if (auto cached = router->cs().find(ndn::Interest(name), end)) {
        packets.push_back(std::move(*cached));
      }
    }
  }
  if (packets.size() >= kMinCached) return packets;
  std::vector<std::size_t> sizes = capture.payloadSizes;
  if (sizes.empty()) sizes.push_back(kFallbackPayload);
  for (std::size_t i = 0; packets.size() < std::min(kMaxPackets, names.size()); ++i) {
    ndn::Data data(names[i % names.size()]);
    data.setContent(randomBytes(i, sizes[i % sizes.size()]));
    data.sign();
    packets.push_back(std::move(data));
  }
  return packets;
}

}  // namespace

LayerCosts replayLayers(const Capture& capture, const LiveState& tables,
                        telemetry::MetricsRegistry* registry) {
  LayerCosts costs;
  std::vector<std::string> uris(capture.names.begin(),
                                capture.names.begin() +
                                    static_cast<long>(std::min(kMaxPackets, capture.names.size())));
  if (uris.empty()) uris.push_back("/ndn/k8s/data/placeholder");
  std::vector<ndn::Name> names(uris.begin(), uris.end());
  std::vector<ndn::Interest> interests;
  std::vector<ndn::tlv::Buffer> wires;
  for (std::size_t i = 0; i < names.size(); ++i) {
    ndn::Interest interest(names[i]);
    interest.setNonce(static_cast<std::uint32_t>(i * 2654435761U));
    wires.push_back(interest.wireEncode());
    interests.push_back(std::move(interest));
  }
  const std::size_t n = names.size();

  costs.nameParseNs = nsPerCall(n, [&] {
    std::uint64_t sum = 0;
    for (const std::string& uri : uris) sum += ndn::Name(uri).size();
    return sum;
  });
  costs.interestEncodeNs = nsPerCall(n, [&] {
    std::uint64_t sum = 0;
    for (const ndn::Interest& interest : interests) sum += interest.wireEncode().size();
    return sum;
  });
  costs.interestDecodeNs = nsPerCall(n, [&] {
    std::uint64_t sum = 0;
    for (const ndn::tlv::Buffer& wire : wires) {
      sum += ndn::Interest::wireDecode(std::span<const std::uint8_t>(wire)).ok();
    }
    return sum;
  });
  if (tables.router != nullptr) {
    const ndn::Fib& fib = tables.router->fib();
    costs.fibLpmNs = nsPerCall(n, [&] {
      std::uint64_t sum = 0;
      for (const ndn::Name& name : names) sum += fib.longestPrefixMatch(name) != nullptr;
      return sum;
    });
  }
  {
    std::vector<ndn::Data> matching;
    for (const ndn::Name& name : names) matching.emplace_back(name);
    ndn::Pit pit;
    costs.pitNs = nsPerCall(n, [&] {
      std::uint64_t sum = 0;
      for (std::size_t i = 0; i < n; ++i) {
        auto inserted = pit.insert(interests[i]);
        sum += pit.findMatches(matching[i]).size();
        pit.erase(inserted.entry);
      }
      return sum;
    });
  }

  std::vector<ndn::Data> packets = capturedData(capture, tables.router, names);
  const std::size_t p = packets.size();
  costs.dataEncodeNs = nsPerCall(p, [&] {
    std::uint64_t sum = 0;
    for (const ndn::Data& data : packets) sum += data.wireEncode().size();
    return sum;
  });
  costs.dataVerifyNs = nsPerCall(p, [&] {
    std::uint64_t sum = 0;
    for (const ndn::Data& data : packets) sum += data.verify();
    return sum;
  });
  if (tables.router != nullptr) {
    ndn::ContentStore& cs = tables.router->cs();
    const sim::Time now = tables.router->simulator().now();
    costs.csFindNs = nsPerCall(n, [&] {
      std::uint64_t sum = 0;
      for (const ndn::Interest& interest : interests) sum += cs.find(interest, now).has_value();
      return sum;
    });
    costs.csInsertNs = nsPerCall(p, [&] {
      for (const ndn::Data& data : packets) cs.insert(data, now);
      return std::uint64_t{cs.size()};
    });
  }

  {
    // One node, a consumer and a producer AppFace, no cache: the full
    // software path of one exchange at the workload's names and sizes.
    sim::Simulator sim;
    ndn::Forwarder node("replay", sim);
    node.cs().setCapacity(0);
    auto consumer = std::make_shared<ndn::AppFace>("app://consumer", sim, 1);
    auto producer = std::make_shared<ndn::AppFace>("app://producer", sim, 2);
    node.addFace(consumer);
    node.addFace(producer);
    node.registerPrefix(ndn::Name("/"), producer->id());
    std::size_t next = 0;
    producer->setInterestHandler([&](const ndn::Interest& interest) {
      ndn::Data data(interest.name());
      data.setContent(packets[next++ % p].content());
      data.sign();
      producer->putData(std::move(data));
    });
    costs.exchangeNs = nsPerCall(n, [&] {
      std::uint64_t done = 0;
      for (const ndn::Name& name : names) {
        consumer->expressInterest(ndn::Interest(name),
                                  [&done](const ndn::Interest&, const ndn::Data&) { ++done; });
        sim.run();
      }
      return done;
    });
  }

  {
    std::vector<std::size_t> sizes = capture.objectSizes;
    if (sizes.empty()) {
      for (const ndn::Data& data : packets) sizes.push_back(data.content().size());
    }
    sizes.resize(std::min(sizes.size(), kMaxObjects));
    std::uint64_t totalBytes = 0;
    std::vector<std::vector<std::uint8_t>> objects;
    std::vector<ndn::Name> objectNames;
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      objects.push_back(randomBytes(i + 1, sizes[i]));
      objectNames.emplace_back("/ndn/k8s/data/replay/obj-" + std::to_string(i));
      totalBytes += sizes[i];
    }
    k8s::PersistentVolumeClaim pvc("replay", ByteSize(4 * totalBytes + (1 << 20)));
    datalake::ObjectStore store(pvc);
    // put() takes ownership, so each batch's copies are made untimed.
    std::vector<double> samples;
    for (int batch = 0; batch <= kBatches; ++batch) {
      std::vector<std::vector<std::uint8_t>> copies = objects;
      const double start = threadCpuSeconds();
      for (std::size_t i = 0; i < copies.size(); ++i) {
        (void)store.put(objectNames[i], std::move(copies[i]));
      }
      const double ns =
          (threadCpuSeconds() - start) * 1e9 / static_cast<double>(copies.size());
      if (batch > 0) samples.push_back(ns);  // batch 0 warms up
    }
    std::sort(samples.begin(), samples.end());
    costs.lakePutNs = samples[samples.size() / 2];
    costs.lakeGetNs = nsPerCall(objects.size(), [&] {
      std::uint64_t sum = 0;
      for (const ndn::Name& name : objectNames) sum += store.get(name)->size();
      return sum;
    });
  }

  {
    constexpr std::size_t kEvents = 20'000;
    sim::Simulator sim;
    costs.eventNs = nsPerCall(kEvents, [&] {
      for (std::size_t i = 0; i < kEvents; ++i) {
        sim.scheduleAfter(sim::Duration::nanos(static_cast<std::int64_t>(i)), [] {});
      }
      return static_cast<std::uint64_t>(sim.run());
    });
  }

  if (tables.cluster != nullptr) {
    std::vector<k8s::Node*> nodes;
    for (const std::string& name : tables.cluster->nodeNames()) {
      nodes.push_back(tables.cluster->node(name));
    }
    k8s::PodSpec spec;
    spec.requests = capture.podRequest;
    const k8s::Pod pod("replay", "default", spec);
    const k8s::Scheduler& scheduler = tables.cluster->scheduler();
    constexpr std::size_t kCalls = 2000;
    costs.selectNodeNs = nsPerCall(kCalls, [&] {
      std::uint64_t sum = 0;
      for (std::size_t i = 0; i < kCalls; ++i) sum += scheduler.selectNode(pod, nodes).ok();
      return sum;
    });
  }

  if (registry != nullptr) {
    costs.exportUs = nsPerCall(1, [&] {
      return static_cast<std::uint64_t>(registry->toPrometheus().size());
    }) / 1e3;
  }
  return costs;
}

}  // namespace perfbench
