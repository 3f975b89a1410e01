// Forwarding strategies, modeled on NFD's strategy framework: per-prefix
// pluggable modules that decide which next hop(s) receive an Interest.
// LIDC's "network as matchmaker" behaviour lives here — BestRoute picks
// the nearest/cheapest cluster, LoadBalance spreads jobs by observed RTT,
// Multicast floods to all clusters.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/rng.hpp"
#include "common/small_vector.hpp"
#include "ndn/face.hpp"
#include "ndn/fib.hpp"
#include "ndn/packet.hpp"
#include "ndn/pit.hpp"

namespace lidc::ndn {

class Forwarder;

/// Smoothed RTT bookkeeping per upstream face, shared by strategies.
class RttMeasurements {
 public:
  /// Records one RTT sample for a face (EWMA, alpha = 1/8).
  void addSample(FaceId face, sim::Duration rtt);
  /// Smoothed RTT; nullopt when no samples yet.
  [[nodiscard]] std::optional<sim::Duration> srtt(FaceId face) const;
  void forget(FaceId face) { srtt_.erase(face); }

 private:
  std::unordered_map<FaceId, double> srtt_;  // seconds
};

class Strategy {
 public:
  explicit Strategy(Forwarder& forwarder) : forwarder_(forwarder) {}
  virtual ~Strategy() = default;
  Strategy(const Strategy&) = delete;
  Strategy& operator=(const Strategy&) = delete;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Called for each Interest that needs forwarding (CS miss, new or
  /// retransmitted PIT entry).
  virtual void afterReceiveInterest(const Interest& interest, Face& inFace,
                                    PitEntry& entry) = 0;

  /// Called just before Data satisfies a PIT entry (RTT bookkeeping).
  virtual void beforeSatisfyInterest(PitEntry& entry,
                                     Face& inFace, const Data& data);

  /// Called when an upstream nacks; default gives up and nacks downstream.
  virtual void afterReceiveNack(const Nack& nack, Face& inFace,
                                PitEntry& entry);

  /// Called when the PIT entry expires unsatisfied.
  virtual void onInterestTimeout(PitEntry& entry);

 protected:
  // Actions available to strategies (implemented via the forwarder).
  void sendInterestTo(PitEntry& entry, FaceId upstream);
  void sendNackDownstream(PitEntry& entry, NackReason reason);
  /// The least severe reason among the entry's nacked upstreams (NFD
  /// semantics: reason codes order by severity, so a Congestion from one
  /// path outranks a Duplicate from a looped one). `fallback` when no
  /// upstream recorded a reason.
  [[nodiscard]] static NackReason leastSevereNackReason(
      const PitEntry& entry, NackReason fallback);
  [[nodiscard]] const FibEntry* lookupFib(const Interest& interest) const;
  /// Next hops that are up and not the ingress face, cheapest first.
  [[nodiscard]] SmallVector<NextHop, 8> viableNextHops(const FibEntry* fibEntry,
                                                       FaceId ingress) const;
  [[nodiscard]] RttMeasurements& measurements();
  [[nodiscard]] bool faceIsUp(FaceId face) const;

  Forwarder& forwarder_;
};

/// Forwards to the lowest-cost viable next hop; on Nack, falls over to the
/// next-cheapest upstream. This is NFD's best-route behaviour and the
/// mechanism behind LIDC's "nearest cluster wins" + automatic failover.
class BestRouteStrategy : public Strategy {
 public:
  using Strategy::Strategy;
  [[nodiscard]] std::string_view name() const noexcept override {
    return "best-route";
  }
  void afterReceiveInterest(const Interest& interest, Face& inFace,
                            PitEntry& entry) override;
  void afterReceiveNack(const Nack& nack, Face& inFace,
                        PitEntry& entry) override;
};

/// Forwards every Interest to all next hops (except the ingress face).
class MulticastStrategy : public Strategy {
 public:
  using Strategy::Strategy;
  [[nodiscard]] std::string_view name() const noexcept override {
    return "multicast";
  }
  void afterReceiveInterest(const Interest& interest, Face& inFace,
                            PitEntry& entry) override;
};

/// Weighted-random next hop selection, weight = 1 / SRTT (unmeasured faces
/// get the median weight so new clusters receive probe traffic).
class LoadBalanceStrategy : public Strategy {
 public:
  LoadBalanceStrategy(Forwarder& forwarder, std::uint64_t seed)
      : Strategy(forwarder), rng_(seed) {}
  [[nodiscard]] std::string_view name() const noexcept override {
    return "load-balance";
  }
  void afterReceiveInterest(const Interest& interest, Face& inFace,
                            PitEntry& entry) override;
  void afterReceiveNack(const Nack& nack, Face& inFace,
                        PitEntry& entry) override;

 private:
  Rng rng_;
};

/// ASF-flavoured adaptive forwarding (after NFD's Adaptive SRTT-based
/// Forwarding strategy): forwards on the face with the lowest smoothed
/// RTT, and every `probeInterval`-th Interest additionally probes one
/// unmeasured or alternative face so the measurements never go stale.
/// Where BestRoute trusts configured costs, ASF trusts what it observed.
class AsfStrategy : public Strategy {
 public:
  AsfStrategy(Forwarder& forwarder, std::uint64_t seed, int probeInterval = 10)
      : Strategy(forwarder), rng_(seed), probe_interval_(probeInterval) {}
  [[nodiscard]] std::string_view name() const noexcept override { return "asf"; }
  void afterReceiveInterest(const Interest& interest, Face& inFace,
                            PitEntry& entry) override;
  void afterReceiveNack(const Nack& nack, Face& inFace,
                        PitEntry& entry) override;

 private:
  Rng rng_;
  int probe_interval_;
  std::uint64_t interest_count_ = 0;
};

/// Deterministic rotation over next hops; useful as a fairness baseline.
class RoundRobinStrategy : public Strategy {
 public:
  using Strategy::Strategy;
  [[nodiscard]] std::string_view name() const noexcept override {
    return "round-robin";
  }
  void afterReceiveInterest(const Interest& interest, Face& inFace,
                            PitEntry& entry) override;

 private:
  std::unordered_map<Name, std::size_t, NameHash> cursor_;
};

}  // namespace lidc::ndn
