// Point-to-point simulated links. Each link is a pair of LinkFaces (one
// per endpoint forwarder); sending schedules delivery at the peer after
// propagation latency + serialization time, with optional random loss.
// Geo-distribution in LIDC benches is expressed purely through these
// link parameters (e.g. 5 ms campus hop vs 70 ms transcontinental hop).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "ndn/face.hpp"
#include "ndn/forwarder.hpp"
#include "sim/simulator.hpp"

namespace lidc::net {

struct LinkParams {
  sim::Duration latency = sim::Duration::millis(1);
  double bandwidthBitsPerSec = 0.0;  // 0 = infinite (no serialization delay)
  double lossRate = 0.0;             // probability a packet is dropped
  /// Probability a Data packet's payload is delivered with a seeded
  /// bit-flip (gray failure: the packet arrives, but is wrong). The
  /// stale pre-corruption signature travels with it, so verifying
  /// forwarders catch the damage. Driven by ChaosEngine::corruption().
  double corruptRate = 0.0;
};

class LinkFace;

/// The packets of one type in flight in one direction of a link. A send
/// parks a copy in a free slot, and the delivery event names only the
/// slot, so it fits the simulator's inline event storage. Slots are
/// reused: the copy reuses an earlier packet's name buffer. A released
/// slot holds no payload.
template <typename Packet>
class InFlight {
 public:
  std::uint32_t park(const Packet& packet) {
    auto slot = static_cast<std::uint32_t>(slots_.size());
    if (free_.empty()) {
      slots_.emplace_back(packet);
    } else {
      slot = free_.back();
      free_.pop_back();
      slots_[slot] = packet;
    }
    return slot;
  }
  /// Stays valid while other packets are parked (deque growth never
  /// moves an element), so a delivery may send on the same link.
  [[nodiscard]] Packet& operator[](std::uint32_t slot) noexcept { return slots_[slot]; }
  void release(std::uint32_t slot) {
    static const Packet kReleased;
    slots_[slot] = kReleased;  // copy-assigned: keeps the name buffer
    free_.push_back(slot);
  }

 private:
  std::deque<Packet> slots_;
  std::vector<std::uint32_t> free_;
};

/// Shared state of one bidirectional link.
class Link {
 public:
  Link(sim::Simulator& sim, LinkParams params, std::uint64_t lossSeed = 42)
      : sim_(sim),
        params_(params),
        loss_rng_(lossSeed),
        // Dedicated stream so enabling corruption never perturbs the
        // loss schedule of an otherwise-identical seeded run.
        corrupt_rng_(lossSeed ^ 0x9e3779b97f4a7c15ULL) {}

  /// Creates both faces and registers them with the two forwarders.
  /// Returns {faceId at a (towards b), faceId at b (towards a)}.
  static std::pair<ndn::FaceId, ndn::FaceId> connect(
      sim::Simulator& sim, ndn::Forwarder& a, ndn::Forwarder& b, LinkParams params,
      std::shared_ptr<Link>* out = nullptr, std::uint64_t lossSeed = 42);

  [[nodiscard]] const LinkParams& params() const noexcept { return params_; }
  void setParams(LinkParams params) noexcept { params_ = params; }

  /// Administratively takes the link up/down (both directions).
  void setUp(bool up);
  [[nodiscard]] bool isUp() const noexcept { return up_; }

  [[nodiscard]] std::uint64_t packetsDropped() const noexcept { return dropped_; }
  [[nodiscard]] std::uint64_t packetsDelivered() const noexcept { return delivered_; }
  [[nodiscard]] std::uint64_t packetsCorrupted() const noexcept { return corrupted_; }

  /// Replace the corruption stream. ChaosEngine::corruption() calls
  /// this with a draw from its own seeded RNG so different chaos seeds
  /// corrupt different packets on the same topology.
  void reseedCorruption(std::uint64_t seed) noexcept { corrupt_rng_ = Rng(seed); }

 private:
  friend class LinkFace;

  /// Computes the delivery delay for `bytes` in the given direction
  /// (serialization is FIFO per direction).
  sim::Duration transitDelay(std::size_t bytes, int direction);
  bool shouldDrop() { return params_.lossRate > 0 && loss_rng_.bernoulli(params_.lossRate); }
  /// Turns a parked Data into what the wire delivers: usually left as
  /// is, with one seeded bit flipped in the payload when the corruption
  /// draw fires.
  void maybeCorrupt(ndn::Data& data);

  template <typename Packet>
  [[nodiscard]] InFlight<Packet>& inFlight(int direction) noexcept {
    return std::get<InFlight<Packet>>(in_flight_[direction]);
  }
  /// Hands a parked packet to the face at the far end of `direction`,
  /// then releases its slot.
  template <typename Packet>
  void deliver(int direction, std::uint32_t slot);

  sim::Simulator& sim_;
  LinkParams params_;
  Rng loss_rng_;
  Rng corrupt_rng_;
  bool up_ = true;
  sim::Time next_free_[2];
  std::uint64_t dropped_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t corrupted_ = 0;
  LinkFace* ends_[2] = {nullptr, nullptr};
  std::tuple<InFlight<ndn::Interest>, InFlight<ndn::Data>, InFlight<ndn::Nack>>
      in_flight_[2];
};

/// One endpoint of a Link.
class LinkFace : public ndn::Face {
 public:
  LinkFace(std::string uri, std::shared_ptr<Link> link, int direction)
      : Face(std::move(uri)), link_(std::move(link)), direction_(direction) {}

  void sendInterest(const ndn::Interest& interest) override;
  void sendData(const ndn::Data& data) override;
  void sendNack(const ndn::Nack& nack) override;

  [[nodiscard]] Link& link() noexcept { return *link_; }

 private:
  [[nodiscard]] LinkFace* peer() const noexcept {
    return link_->ends_[1 - direction_];
  }
  /// Drops the parked packet in `slot` (link or face down, or the loss
  /// draw), or schedules its delivery after the transit delay.
  template <typename Packet>
  void transmit(std::uint32_t slot);

  std::shared_ptr<Link> link_;
  int direction_;  // 0 or 1; index into Link::ends_
};

}  // namespace lidc::net
