// ChaosEngine: deterministic fault injection for LIDC simulations.
// A seeded engine schedules declarative fault plans on the shared
// Simulator — link flaps, loss/latency bursts, node crashes, gateway
// blackouts — and records a reproducible event trace so two runs with
// the same seed inject byte-identical fault schedules. This is the
// harness behind the end-to-end failure-recovery tests and the
// bench_chaos_recovery sweep.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "k8s/cluster.hpp"
#include "net/link.hpp"
#include "sim/simulator.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"

namespace lidc::sim {

enum class FaultKind {
  kLinkDown,      // administrative link outage for a window
  kLinkFlaps,     // seeded random up/down schedule over a window
  kLossBurst,     // elevated packet loss for a window
  kLatencyBurst,  // added propagation latency for a window
  kNodeCrash,     // k8s node failure (pods evicted, jobs fail/retry)
  kClusterCrash,  // every node of a cluster fails
  kBlackout,      // a component silently drops all traffic for a window
  // Gray failures: the component keeps answering, but wrongly.
  kCorruption,    // seeded bit-flips in Data payloads crossing a link
  kSlowNode,      // node serves 10-50x slower while still Ready
  kGrayGateway,   // gateway admits jobs, returns Pending forever
  kStaleReplay,   // a cache re-serves old Data past its freshness
  kNoisyNeighbor,  // one tenant hammers submits far above its fair rate
  kDrain,         // planned cluster drain (live migration trigger)
  kCustom,        // caller-supplied action
};

std::string_view faultKindName(FaultKind kind) noexcept;

/// Aggregate counters for one declared fault.
struct FaultRecord {
  std::string label;
  FaultKind kind = FaultKind::kCustom;
  std::uint64_t injections = 0;
  std::uint64_t recoveries = 0;
};

class ChaosEngine {
 public:
  explicit ChaosEngine(Simulator& sim, std::uint64_t seed = 4242)
      : sim_(sim), rng_(seed), log_(sim, "chaos") {}
  ChaosEngine(const ChaosEngine&) = delete;
  ChaosEngine& operator=(const ChaosEngine&) = delete;

  // --- declarative fault plan -------------------------------------------

  /// Takes the link down at `at` and back up after `outage`.
  void linkDown(std::string label, net::Link& link, Time at, Duration outage);

  /// Seeded random flap schedule: alternating up/down periods drawn from
  /// exponential distributions (meanUp / meanDown), between `from` and
  /// `until`. The whole schedule is derived from the engine seed at plan
  /// time, so identical seeds give identical flap timelines.
  void linkFlaps(std::string label, net::Link& link, Time from, Time until,
                 Duration meanUp, Duration meanDown);

  /// Raises the link's loss rate to `lossRate` during the burst window,
  /// restoring the previous rate afterwards.
  void lossBurst(std::string label, net::Link& link, Time at, Duration burst,
                 double lossRate);

  /// Adds `extraLatency` to the link during the burst window.
  void latencyBurst(std::string label, net::Link& link, Time at, Duration burst,
                    Duration extraLatency);

  /// Hard-fails one node (pods evicted; running job attempts fail).
  void nodeCrash(std::string label, k8s::Cluster& cluster, std::string node,
                 Time at);

  /// Hard-fails every node of the cluster at `at`.
  void clusterCrash(std::string label, k8s::Cluster& cluster, Time at);

  /// Generic blackout window: `toggle(true)` at `at`, `toggle(false)`
  /// after `window`. Used for gateway blackouts via Gateway::setBlackout.
  void blackout(std::string label, Time at, Duration window,
                std::function<void(bool)> toggle);

  // --- gray failures ----------------------------------------------------

  /// Raises the link's payload corruption rate to `corruptRate` during
  /// the window (seeded bit-flips; signatures go stale, so verifying
  /// forwarders drop the damage). Restores the previous rate afterwards.
  void corruption(std::string label, net::Link& link, Time at, Duration window,
                  double corruptRate);

  /// Degrades one node's service rate by `factor` (e.g. 20 = 20x slower)
  /// for the window while it keeps reporting Ready — the classic
  /// limping-but-alive node that passes every health probe.
  void slowNode(std::string label, k8s::Cluster& cluster, std::string node,
                Time at, Duration window, double factor);

  /// Gray gateway window: `toggle(true)` at `at`, `toggle(false)` after
  /// `window`. Wire to Gateway::setGrayFailure — the gateway admits jobs
  /// and answers polls, but nothing ever runs.
  void grayGateway(std::string label, Time at, Duration window,
                   std::function<void(bool)> toggle);

  /// Stale-replay window: `toggle(true)`/`toggle(false)` around a cache
  /// that starts ignoring freshness (ContentStore::setServeStale) and
  /// re-serves old versioned Data against MustBeFresh Interests.
  void staleReplay(std::string label, Time at, Duration window,
                   std::function<void(bool)> toggle);

  /// Noisy-neighbor window: a tenant hammers `submit` at a seeded
  /// Poisson rate (mean inter-submit gap `meanGap`) between `from` and
  /// `until` — typically 10x its fair share. Like linkFlaps, the whole
  /// submit timeline is drawn at plan time from the engine seed, so two
  /// runs with the same seed produce byte-identical aggressor load.
  /// Only the window edges enter the chaos trace (one inject at `from`,
  /// one recover at `until`); individual submits bump the fault's
  /// injection counter without flooding the trace.
  void noisyNeighbor(std::string label, Time from, Time until,
                     Duration meanGap, std::function<void()> submit);

  /// Planned drain: fires `drain` at `at` — wire to
  /// MigrationCoordinator::drainCluster so running jobs checkpoint-
  /// migrate off the cluster before an operator takes it down. Unlike
  /// the crash faults, a drain leaves the cluster healthy; it only
  /// triggers the migration plane.
  void drain(std::string label, Time at, std::function<void()> action);

  /// One-shot custom fault.
  void custom(std::string label, Time at, std::function<void()> apply);

  // --- observability ----------------------------------------------------

  [[nodiscard]] const std::vector<FaultRecord>& faults() const noexcept {
    return faults_;
  }
  /// The event trace, one "t=10.000000s inject east-crash (cluster-crash)"
  /// line per injection or recovery — convenient for byte-identical
  /// determinism assertions.
  [[nodiscard]] const std::string& traceString() const noexcept {
    return log_.text();
  }

  [[nodiscard]] std::uint64_t totalInjections() const noexcept;
  [[nodiscard]] std::uint64_t totalRecoveries() const noexcept;

  /// Binds injection/recovery totals (and per-fault injection counters,
  /// for faults declared before or after this call) into `registry`,
  /// read at snapshot time.
  void attachTelemetry(telemetry::MetricsRegistry& registry);

  /// Records every injection/recovery into `recorder` (the trace line,
  /// as a "chaos" event), so alert post-mortems show the fault that
  /// caused the symptom.
  void setFlightRecorder(telemetry::FlightRecorder* recorder) noexcept {
    log_.setRecorder(recorder);
  }

 private:
  /// Registers a fault record; returns its index.
  std::size_t declare(std::string label, FaultKind kind);
  /// Binds one fault's injection counter into registry_.
  void bindFault(std::size_t fault);
  /// Schedules `action` at `at`, recording it in the trace and counters.
  void schedulePhase(std::size_t fault, Time at, bool inject,
                     std::function<void()> action);

  Simulator& sim_;
  Rng rng_;
  std::vector<FaultRecord> faults_;
  telemetry::EventLog log_;
  telemetry::MetricsRegistry* registry_ = nullptr;
};

}  // namespace lidc::sim
