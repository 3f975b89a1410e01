// lake_fetch: segmented object reads and publishes. Eight consumer hosts
// sit about 1 ms behind one aggregation router whose Content Store is
// sized to about a quarter of the catalogue's 8 KiB segments; the
// catalogue is split across the lakes of two clusters about 10 ms and
// 25 ms away. Reads are open-loop Poisson on the simulated clock. Object
// sizes run from one segment to 3 MiB in three classes on a fixed size
// grid. Reads follow a fixed class mix and, within each class, a Zipf
// popularity that favours the smaller objects, with each object read
// exactly its expected number of times, so every seed moves the same
// catalogue bytes in a different order. Every tenth op publishes a new
// object through /ndn/k8s/publish, and one read in ten targets an object
// published earlier. An op is one read or publish, from its start until its
// completion callback; every read's bytes are checked against the digest
// of what was stored or published.
#include <algorithm>
#include <cmath>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/client.hpp"
#include "core/overlay.hpp"
#include "harness.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace perfbench {
namespace {

using namespace lidc;

constexpr std::size_t kSegment = 8 * 1024;
constexpr int kConsumers = 8;
constexpr double kOpsPerSecond = 10.0;  // across all consumers
constexpr double kZipfS = 1.1;
constexpr std::size_t kPublishEvery = 10;
constexpr std::size_t kPublishedReadEvery = 10;
constexpr std::size_t kCapturedNames = 2048;

struct SizeClass {
  std::size_t objects;      // catalogue objects in the class
  std::size_t minSegments;
  std::size_t maxSegments;  // sizes are log-uniform in [min, max]
  double readShare;         // share of catalogue reads
};
constexpr SizeClass kClasses[] = {
    {100, 1, 4, 0.70}, {48, 5, 64, 0.295}, {12, 65, 384, 0.005}};

struct Object {
  std::string path;  // under /ndn/k8s/data
  std::vector<std::uint8_t> bytes;
  std::uint64_t digest = 0;
  int lake = 0;
};

enum class OpKind { kRead, kReadPublished, kPublish };

struct Op {
  sim::Time at;
  int consumer = 0;
  OpKind kind = OpKind::kRead;
  std::size_t target = 0;  // catalogue index or publish index
  double pick = 0;         // kReadPublished: chooses among finished publishes
};

struct Inputs {
  std::vector<Object> catalogue;
  std::vector<Object> publishes;
  std::vector<Op> ops;
  std::size_t catalogueSegments = 0;
  /// Aggregation router -> each lake, then each consumer -> the router.
  std::vector<sim::Duration> links;
};

std::size_t segmentsOf(std::size_t bytes) { return (bytes + kSegment - 1) / kSegment; }

/// Size of the k-th of `count` objects of a class: a fixed log-spaced
/// grid over [minSegments, maxSegments], the last segment partly full.
std::size_t gridSize(const SizeClass& cls, std::size_t k, std::size_t count) {
  const double lo = std::log(static_cast<double>(cls.minSegments));
  const double hi = std::log(static_cast<double>(cls.maxSegments));
  const double f = count > 1 ? static_cast<double>(k) / static_cast<double>(count - 1) : 0.0;
  const auto segments = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::lround(std::exp(lo + (hi - lo) * f))),
      cls.minSegments, cls.maxSegments);
  return (segments - 1) * kSegment + kSegment / 2 + 1;
}

Object makeObject(Rng& rng, std::string path, std::size_t size, int lake) {
  Object object;
  object.path = std::move(path);
  object.bytes = randomBytes(rng(), size);
  object.digest = fnv1a(object.bytes.data(), object.bytes.size());
  object.lake = lake;
  return object;
}

/// Reads of each of `objects` ranks out of `reads` under Zipf(kZipfS):
/// the expected counts, rounded by largest remainder.
std::vector<std::size_t> zipfCounts(std::size_t objects, double reads) {
  std::vector<double> expected(objects);
  double total = 0;
  for (std::size_t k = 0; k < objects; ++k) {
    expected[k] = 1.0 / std::pow(static_cast<double>(k + 1), kZipfS);
    total += expected[k];
  }
  std::vector<std::size_t> counts(objects);
  std::vector<std::pair<double, std::size_t>> remainders;
  std::size_t assigned = 0;
  for (std::size_t k = 0; k < objects; ++k) {
    expected[k] *= reads / total;
    counts[k] = static_cast<std::size_t>(expected[k]);
    assigned += counts[k];
    remainders.emplace_back(static_cast<double>(counts[k]) - expected[k], k);
  }
  std::sort(remainders.begin(), remainders.end());  // largest remainder first
  const auto target = static_cast<std::size_t>(std::lround(reads));
  for (std::size_t i = 0; assigned < target && i < remainders.size(); ++i, ++assigned) {
    ++counts[remainders[i].second];
  }
  return counts;
}

const char* const kLakes[] = {"lake-a", "lake-b"};
struct LakeLink {
  int minMs;  // the link latency is drawn from [minMs, maxMs] per seed
  int maxMs;
};
constexpr LakeLink kLakeLinks[] = {{9, 11}, {24, 26}};

class LakeScenario final : public Scenario {
 public:
  LakeScenario(const Inputs& inputs, bool traced) : in_(inputs), overlay_(sim_) {
    ndn::Forwarder& router = overlay_.addNode("agg");
    for (int lake = 0; lake < 2; ++lake) {
      core::ComputeClusterConfig config;
      config.name = kLakes[lake];
      config.gateway.maxPublishBytes = 64 * kSegment;
      core::ComputeCluster& cluster = overlay_.addCluster(config);
      cluster.forwarder().cs().setCapacity(0);
      overlay_.connect("agg", kLakes[lake],
                       net::LinkParams{in_.links[static_cast<std::size_t>(lake)], 1e9});
      overlay_.announceCluster(kLakes[lake]);
      clusters_.push_back(&cluster);
    }
    for (const Object& object : in_.catalogue) {
      (void)clusters_[object.lake]->store().put(core::makeDataName(object.path),
                                                object.bytes);
    }
    router.cs().setCapacity(in_.catalogueSegments / 4);
    if (traced) {
      registry_ = std::make_unique<telemetry::MetricsRegistry>();
      tracer_ = std::make_unique<telemetry::Tracer>(sim_);
      overlay_.attachTelemetry(*registry_, tracer_.get());
    }
    for (int c = 0; c < kConsumers; ++c) {
      const std::string host = "user-" + std::to_string(c);
      ndn::Forwarder& node = overlay_.addNode(host);
      node.cs().setCapacity(0);
      overlay_.connect(host, "agg",
                       net::LinkParams{in_.links[2 + static_cast<std::size_t>(c)], 1e9});
      consumers_.push_back(std::make_unique<core::LidcClient>(
          node, host, core::ClientOptions{}, 100 + static_cast<std::uint64_t>(c)));
      if (traced) consumers_.back()->attachTelemetry(*registry_, tracer_.get());
    }
    // Consumers joined after the clusters: teach them the lake routes.
    overlay_.refreshAnnouncements();
    for (int lake = 0; lake < 2; ++lake) {
      overlay_.topology().installRoutesTo(core::makeDataName(kLakes[lake]), kLakes[lake]);
    }
    latency_.assign(in_.ops.size(), -1);
  }

  void run() override {
    for (std::size_t i = 0; i < in_.ops.size(); ++i) {
      sim_.scheduleAt(in_.ops[i].at, [this, i] { start(i); });
    }
    events_ = sim_.run();
  }

  RepResult collect() override {
    RepResult result;
    result.latencyNs = latency_;
    result.makespanS = lastTerminal_.toSeconds();
    result.appsHostS = appsHostS_;
    result.checkError = checkError_;
    const double ops = static_cast<double>(in_.ops.size());
    result.counts["sim.events_per_op"] = static_cast<double>(events_) / ops;
    addNetworkCounts(overlay_.topology(), ops, result);
    double submits = 0;
    for (const auto& consumer : consumers_) submits += static_cast<double>(consumer->submitsSent());
    addFederationCounts(clusters_, {}, submits, ops, result);
    addTelemetryCounts(registry_.get(), nullptr, result);
    addAbsent(result, {"workflow.dispatches_per_stage", "workflow.bytes_moved_per_op"});
    if (tracer_) addTraceCounts(*tracer_, ops, result);

    Capture& capture = result.capture;
    for (const Op& op : in_.ops) {
      if (capture.names.size() >= kCapturedNames) break;
      const Object& object = op.kind == OpKind::kPublish ? in_.publishes[op.target]
                                                         : in_.catalogue[op.target];
      const std::string base = core::makeDataName(object.path).toUri();
      capture.objectSizes.push_back(object.bytes.size());
      if (op.kind == OpKind::kPublish) {
        capture.names.push_back(core::kPublishPrefix.toUri() + "/" + object.path);
        continue;
      }
      capture.names.push_back(base + "/meta");
      const std::size_t segments = segmentsOf(object.bytes.size());
      for (std::size_t s = 0; s < std::min<std::size_t>(segments, 16); ++s) {
        capture.names.push_back(base + "/seg=" + std::to_string(s));
        capture.payloadSizes.push_back(
            std::min(kSegment, object.bytes.size() - s * kSegment));
      }
    }
    return result;
  }

  LiveState live() override {
    return {overlay_.topology().node("agg"), &clusters_.front()->cluster(),
            registry_.get()};
  }

 private:
  void start(std::size_t index) {
    const Op& op = in_.ops[index];
    core::LidcClient& client = *consumers_[static_cast<std::size_t>(op.consumer)];
    telemetry::TraceContext root;
    if (tracer_) root = tracer_->startTrace("lake-op", client.name());
    if (op.kind == OpKind::kPublish) {
      const Object& object = in_.publishes[op.target];
      client.publishData(
          object.path, object.bytes,
          [this, index, root](Result<ndn::Name> stored) {
            HostTimer timer(appsHostS_);
            const Object& published = in_.publishes[in_.ops[index].target];
            if (stored.ok() && *stored != core::makeDataName(published.path)) {
              fail("lake_fetch: publish stored under " + stored->toUri());
            }
            if (stored.ok()) publishedOrder_.push_back(in_.ops[index].target);
            finish(index, stored.ok(), root);
          },
          root);
      return;
    }
    const Object* object = &in_.catalogue[op.target];
    if (op.kind == OpKind::kReadPublished) {
      if (publishedOrder_.empty()) {
        object = &in_.catalogue[op.target];
      } else {
        const auto pick = static_cast<std::size_t>(
            op.pick * static_cast<double>(publishedOrder_.size()));
        object = &in_.publishes[publishedOrder_[pick]];
      }
    }
    client.fetchData(
        core::makeDataName(object->path),
        [this, index, object, root](Result<std::vector<std::uint8_t>> bytes) {
          HostTimer timer(appsHostS_);
          if (bytes.ok() && fnv1a(bytes->data(), bytes->size()) != object->digest) {
            fail("lake_fetch: digest mismatch for " + object->path);
          }
          finish(index, bytes.ok(), root);
        },
        root);
  }

  void finish(std::size_t index, bool ok, telemetry::TraceContext root) {
    if (tracer_) tracer_->endSpan(root);
    lastTerminal_ = std::max(lastTerminal_, sim_.now());
    latency_[index] = ok ? (sim_.now() - in_.ops[index].at).toNanos() : -1;
  }

  void fail(const std::string& why) {
    if (checkError_.empty()) checkError_ = why;
  }

  const Inputs& in_;
  sim::Simulator sim_;
  core::ClusterOverlay overlay_;
  std::vector<core::ComputeCluster*> clusters_;
  std::vector<std::unique_ptr<core::LidcClient>> consumers_;
  std::unique_ptr<telemetry::MetricsRegistry> registry_;
  std::unique_ptr<telemetry::Tracer> tracer_;
  std::vector<std::int64_t> latency_;
  std::vector<std::size_t> publishedOrder_;
  std::string checkError_;
  sim::Time lastTerminal_;
  std::size_t events_ = 0;
  double appsHostS_ = 0;
};

class LakeFetch final : public Workload {
 public:
  LakeFetch(std::uint64_t seed, std::size_t ops) {
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 2);
    for (const LakeLink& link : kLakeLinks) {
      in_.links.push_back(
          sim::Duration::micros(rng.uniformInRange(link.minMs * 1000, link.maxMs * 1000)));
    }
    for (int c = 0; c < kConsumers; ++c) {
      in_.links.push_back(sim::Duration::micros(rng.uniformInRange(1000, 1300)));
    }
    // Catalogue sizes are a fixed grid and alternate between the lakes;
    // popularity falls with size within a class (rank 0 is the smallest
    // object). The seed picks contents, link latencies and the op order.
    std::vector<std::vector<std::size_t>> members(std::size(kClasses));
    for (std::size_t c = 0; c < std::size(kClasses); ++c) {
      for (std::size_t k = 0; k < kClasses[c].objects; ++k) {
        const int lake = static_cast<int>(k % 2);
        const std::string path = std::string(kLakes[lake]) + "/c" + std::to_string(c) +
                                 "-" + std::to_string(k);
        members[c].push_back(in_.catalogue.size());
        in_.catalogue.push_back(
            makeObject(rng, path, gridSize(kClasses[c], k, kClasses[c].objects), lake));
        in_.catalogueSegments += segmentsOf(in_.catalogue.back().bytes.size());
      }
    }
    // Catalogue reads follow the class mix and, within a class, the Zipf
    // popularity exactly: every object is read its expected number of
    // times (largest remainders round), and the seed shuffles the order.
    const std::size_t reads = ops - ops / kPublishEvery;
    const std::size_t catalogueReads = reads - reads / kPublishedReadEvery;
    std::vector<std::size_t> targets;
    for (std::size_t c = 0; c < std::size(kClasses); ++c) {
      const double n = kClasses[c].readShare * static_cast<double>(catalogueReads);
      const std::vector<std::size_t> counts = zipfCounts(kClasses[c].objects, n);
      for (std::size_t k = 0; k < counts.size(); ++k) {
        targets.insert(targets.end(), counts[k], members[c][k]);
      }
    }
    targets.resize(catalogueReads, members[0][0]);
    for (std::size_t k = targets.size(); k > 1; --k) {
      std::swap(targets[k - 1], targets[rng.uniform(k)]);
    }

    double t = 0;
    std::size_t read = 0;
    std::size_t next = 0;
    for (std::size_t i = 0; i < ops; ++i) {
      t += rng.exponential(1.0 / kOpsPerSecond);
      Op op;
      op.at = sim::Time() + sim::Duration::seconds(t);
      op.consumer = static_cast<int>(rng.uniform(kConsumers));
      if (i % kPublishEvery == kPublishEvery - 1) {
        op.kind = OpKind::kPublish;
        op.target = in_.publishes.size();
        // Publishes stay within one command Interest: small and medium.
        const SizeClass& cls = kClasses[rng.uniform(2)];
        in_.publishes.push_back(makeObject(rng, "pub/" + std::to_string(i),
                                           gridSize(cls, rng.uniform(cls.objects), cls.objects),
                                           0));
      } else {
        if (read % kPublishedReadEvery == kPublishedReadEvery - 1) {
          // Until a publish has finished, this reads the smallest object.
          op.kind = OpKind::kReadPublished;
          op.target = members[0][0];
          op.pick = rng.uniformDouble();
        } else {
          op.target = targets[next++];
        }
        ++read;
      }
      in_.ops.push_back(op);
    }
  }

  [[nodiscard]] std::size_t ops() const override { return in_.ops.size(); }
  [[nodiscard]] std::unique_ptr<Scenario> build(bool traced) const override {
    return std::make_unique<LakeScenario>(in_, traced);
  }

 private:
  Inputs in_;
};

}  // namespace

std::unique_ptr<Workload> makeLakeFetch(std::uint64_t seed, std::size_t ops) {
  return std::make_unique<LakeFetch>(seed, ops == 0 ? 4000 : ops);
}

}  // namespace perfbench
