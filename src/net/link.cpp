#include "net/link.hpp"

#include <algorithm>
#include <type_traits>

namespace lidc::net {

std::pair<ndn::FaceId, ndn::FaceId> Link::connect(sim::Simulator& sim,
                                                  ndn::Forwarder& a,
                                                  ndn::Forwarder& b, LinkParams params,
                                                  std::shared_ptr<Link>* out,
                                                  std::uint64_t lossSeed) {
  auto link = std::make_shared<Link>(sim, params, lossSeed);
  auto faceA =
      std::make_shared<LinkFace>("link://" + a.name() + "->" + b.name(), link, 0);
  auto faceB =
      std::make_shared<LinkFace>("link://" + b.name() + "->" + a.name(), link, 1);
  link->ends_[0] = faceA.get();
  link->ends_[1] = faceB.get();
  const ndn::FaceId idA = a.addFace(faceA);
  const ndn::FaceId idB = b.addFace(faceB);
  if (out != nullptr) *out = link;
  return {idA, idB};
}

void Link::setUp(bool up) {
  up_ = up;
  for (auto* end : ends_) {
    if (end != nullptr) end->setUp(up);
  }
}

sim::Duration Link::transitDelay(std::size_t bytes, int direction) {
  sim::Duration serialization;
  if (params_.bandwidthBitsPerSec > 0) {
    serialization =
        sim::Duration::seconds(static_cast<double>(bytes) * 8.0 /
                               params_.bandwidthBitsPerSec);
  }
  // FIFO serialization per direction: packets queue behind earlier ones.
  const sim::Time depart = std::max(sim_.now(), next_free_[direction]);
  next_free_[direction] = depart + serialization;
  return (depart - sim_.now()) + serialization + params_.latency;
}

template <typename Packet>
void LinkFace::transmit(std::uint32_t slot) {
  InFlight<Packet>& inFlight = link_->inFlight<Packet>(direction_);
  if (!link_->up_ || !isUp()) {
    inFlight.release(slot);
    return;
  }
  if (link_->shouldDrop()) {
    ++link_->dropped_;
    inFlight.release(slot);
    return;
  }
  std::size_t bytes = 0;
  if constexpr (std::is_same_v<Packet, ndn::Nack>) {
    // Nacks are small control packets; use the Interest's wire size.
    bytes = inFlight[slot].interest().wireSize();
  } else {
    bytes = inFlight[slot].wireSize();
  }
  const sim::Duration delay = link_->transitDelay(bytes, direction_);
  ++link_->delivered_;
  link_->sim_.scheduleAfter(delay, [link = link_.get(), direction = direction_, slot] {
    link->deliver<Packet>(direction, slot);
  });
}

template <typename Packet>
void Link::deliver(int direction, std::uint32_t slot) {
  InFlight<Packet>& inFlight = this->inFlight<Packet>(direction);
  LinkFace& remote = *ends_[1 - direction];
  const Packet& packet = inFlight[slot];
  if constexpr (std::is_same_v<Packet, ndn::Interest>) {
    remote.receiveInterest(packet);
  } else if constexpr (std::is_same_v<Packet, ndn::Data>) {
    remote.receiveData(packet);
  } else {
    remote.receiveNack(packet);
  }
  inFlight.release(slot);
}

void LinkFace::sendInterest(const ndn::Interest& interest) {
  countOutInterest(interest);
  if (peer() == nullptr) return;
  InFlight<ndn::Interest>& inFlight = link_->inFlight<ndn::Interest>(direction_);
  const std::uint32_t slot = inFlight.park(interest);
  // The wire carries the decremented hop limit (Forwarder::sendInterest
  // hands over its PIT entry's Interest unchanged).
  ndn::Interest& parked = inFlight[slot];
  if (parked.hopLimit() > 0) parked.setHopLimit(parked.hopLimit() - 1);
  transmit<ndn::Interest>(slot);
}

void Link::maybeCorrupt(ndn::Data& data) {
  if (params_.corruptRate <= 0 || data.content().empty() ||
      !corrupt_rng_.bernoulli(params_.corruptRate)) {
    return;
  }
  // The flip goes into a fresh buffer: the sender's copy (and every
  // cache holding the shared original) keeps the intact bytes.
  std::vector<std::uint8_t> content = data.content();
  const std::size_t byte = corrupt_rng_.uniform(content.size());
  content[byte] ^= static_cast<std::uint8_t>(1u << corrupt_rng_.uniform(8));
  // setContent leaves any existing signature untouched but drops the
  // memoized digest, so the stale signature travels with the damaged
  // payload and the next verify() recomputes — exactly what a bit-flip
  // below the signature does on a real wire.
  data.setContent(std::move(content));
  ++corrupted_;
}

void LinkFace::sendData(const ndn::Data& data) {
  countOutData(data);
  if (peer() == nullptr) return;
  InFlight<ndn::Data>& inFlight = link_->inFlight<ndn::Data>(direction_);
  const std::uint32_t slot = inFlight.park(data);
  // The corruption draw comes before the link-up check and the loss
  // draw; moving it would shift every seeded run.
  link_->maybeCorrupt(inFlight[slot]);
  transmit<ndn::Data>(slot);
}

void LinkFace::sendNack(const ndn::Nack& nack) {
  countOutNack();
  if (peer() == nullptr) return;
  transmit<ndn::Nack>(link_->inFlight<ndn::Nack>(direction_).park(nack));
}

}  // namespace lidc::net
