// Shared types of the LIDC benchmark. A Workload holds the inputs made
// from the seed; build() turns them into a Scenario — a fresh simulated
// federation — whose constructor is the timed set-up, run() the timed
// phase, and collect() the untimed read-out of outcomes, work counts and
// output checks. Every layer is driven and read through its public API.
#pragma once

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "k8s/resources.hpp"

namespace lidc {
namespace ndn {
class Forwarder;
}
namespace net {
class Topology;
}
namespace k8s {
class Cluster;
}
namespace core {
class ComputeCluster;
}
namespace telemetry {
class MetricsRegistry;
class Tracer;
struct CollectorCounters;
}  // namespace telemetry
}  // namespace lidc

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// CPU time of the calling thread in seconds. Host costs are measured
/// with it, so time the OS gives to other processes is not counted.
double threadCpuSeconds();

/// FNV-1a over raw bytes, chainable through `h`.
std::uint64_t fnv1a(const void* data, std::size_t size,
                    std::uint64_t h = 14695981039346656037ULL);

/// Deterministic pseudo-random bytes (object payloads).
std::vector<std::uint8_t> randomBytes(std::uint64_t seed, std::size_t size);

/// Names, packet sizes and object sizes a run actually produced; the
/// traced run replays each layer's public functions on them.
struct Capture {
  std::vector<std::string> names;         // Interest names expressed
  std::vector<std::size_t> payloadSizes;  // Data content sizes moved
  std::vector<std::size_t> objectSizes;   // lake objects read or written
  lidc::k8s::Resources podRequest;        // resources of one job
};

/// Live state of a finished repetition, for replays against real tables.
struct LiveState {
  lidc::ndn::Forwarder* router = nullptr;  // core/aggregation router
  lidc::k8s::Cluster* cluster = nullptr;   // largest cluster
  lidc::telemetry::MetricsRegistry* registry = nullptr;  // null when off
};

/// Outcome of one repetition. Everything except appsHostS is
/// deterministic for a seed.
struct RepResult {
  /// Simulated latency per op in ns, -1 when the op failed.
  std::vector<std::int64_t> latencyNs;
  double makespanS = 0;
  /// Per-layer work counts, already divided by ops where named *_per_*.
  std::map<std::string, double> counts;
  /// Raw totals used to attribute host time (not printed).
  std::map<std::string, double> totals;
  Capture capture;
  /// Host seconds spent inside application code the benchmark
  /// registered (app runners and op-completion callbacks).
  double appsHostS = 0;
  /// Empty when every output check passed.
  std::string checkError;

  [[nodiscard]] std::uint64_t failed() const;
  /// Digest over (op index, simulated latency, outcome) of every op.
  [[nodiscard]] std::uint64_t digest() const;
};

class Scenario {
 public:
  virtual ~Scenario() = default;
  /// Timed phase: starts every op and runs the simulation to quiescence.
  virtual void run() = 0;
  virtual RepResult collect() = 0;
  virtual LiveState live() = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  [[nodiscard]] virtual std::size_t ops() const = 0;
  /// Builds the federation (the timed set-up). `traced` attaches a
  /// metrics registry and the telemetry::Tracer to every layer.
  [[nodiscard]] virtual std::unique_ptr<Scenario> build(bool traced) const = 0;
};

std::unique_ptr<Workload> makeControlStorm(std::uint64_t seed, std::size_t ops);
std::unique_ptr<Workload> makeLakeFetch(std::uint64_t seed, std::size_t ops);
std::unique_ptr<Workload> makeDagObserved(std::uint64_t seed, std::size_t ops);

/// Scoped host timer adding the thread CPU seconds it spans to `sink`.
class HostTimer {
 public:
  explicit HostTimer(double& sink) : sink_(sink), start_(threadCpuSeconds()) {}
  ~HostTimer() { sink_ += threadCpuSeconds() - start_; }
  HostTimer(const HostTimer&) = delete;
  HostTimer& operator=(const HostTimer&) = delete;

 private:
  double& sink_;
  double start_;
};

/// Adds network-wide counts read from every node and link of `topology`:
/// ndn.*, net.* and link bytes, divided by `ops`; raw totals go to
/// result.totals.
void addNetworkCounts(lidc::net::Topology& topology, double ops, RepResult& result);

/// Adds core.*, k8s.*, datalake.* and qos.* counts read from every
/// cluster's gateway, admission controller and file server. `submits`
/// is the number of submit Interests the clients sent; `tenants` names
/// the QoS tenants (empty when QoS is off).
void addFederationCounts(const std::vector<lidc::core::ComputeCluster*>& clusters,
                         const std::vector<std::string>& tenants, double submits,
                         double ops, RepResult& result);

/// Adds telemetry.* counts; both pointers may be null (plane off).
void addTelemetryCounts(lidc::telemetry::MetricsRegistry* registry,
                        const lidc::telemetry::CollectorCounters* collector,
                        RepResult& result);

/// Records count metrics whose layer a workload does not exercise.
void addAbsent(RepResult& result, std::initializer_list<const char*> names);

/// Adds trace.* metrics: per span kind, simulated self time as a share
/// of the summed op latency, plus spans and admissions per op.
void addTraceCounts(const lidc::telemetry::Tracer& tracer, double ops,
                    RepResult& result);

}  // namespace perfbench
