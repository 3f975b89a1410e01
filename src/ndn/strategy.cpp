#include "ndn/strategy.hpp"

#include <algorithm>

#include "ndn/forwarder.hpp"

namespace lidc::ndn {

void RttMeasurements::addSample(FaceId face, sim::Duration rtt) {
  constexpr double kAlpha = 0.125;
  const double sample = rtt.toSeconds();
  auto [it, inserted] = srtt_.try_emplace(face, sample);
  if (!inserted) it->second = (1.0 - kAlpha) * it->second + kAlpha * sample;
}

std::optional<sim::Duration> RttMeasurements::srtt(FaceId face) const {
  auto it = srtt_.find(face);
  if (it == srtt_.end()) return std::nullopt;
  return sim::Duration::seconds(it->second);
}

void Strategy::beforeSatisfyInterest(PitEntry& entry,
                                     Face& inFace, const Data& /*data*/) {
  if (auto* out = entry.findOutRecord(inFace.id())) {
    measurements().addSample(inFace.id(),
                             forwarder_.simulator().now() - out->lastSent);
  }
}

void Strategy::afterReceiveNack(const Nack& nack, Face& inFace,
                                PitEntry& entry) {
  if (auto* out = entry.findOutRecord(inFace.id())) {
    out->nacked = true;
    out->nackReason = nack.reason();
  }
  if (entry.allUpstreamsNacked()) {
    sendNackDownstream(entry, leastSevereNackReason(entry, NackReason::kNoRoute));
  }
}

void Strategy::onInterestTimeout(PitEntry& /*entry*/) {}

void Strategy::sendInterestTo(PitEntry& entry,
                              FaceId upstream) {
  forwarder_.sendInterest(entry, upstream);
}

void Strategy::sendNackDownstream(PitEntry& entry,
                                  NackReason reason) {
  forwarder_.sendNackDownstream(entry, reason);
}

NackReason Strategy::leastSevereNackReason(const PitEntry& entry,
                                           NackReason fallback) {
  NackReason least = NackReason::kNone;
  for (const auto& out : entry.outRecords()) {
    if (!out.nacked || out.nackReason == NackReason::kNone) continue;
    if (least == NackReason::kNone ||
        static_cast<std::uint32_t>(out.nackReason) < static_cast<std::uint32_t>(least)) {
      least = out.nackReason;
    }
  }
  return least == NackReason::kNone ? fallback : least;
}

const FibEntry* Strategy::lookupFib(const Interest& interest) const {
  return forwarder_.fib().longestPrefixMatch(interest.name());
}

RttMeasurements& Strategy::measurements() { return forwarder_.measurements(); }

bool Strategy::faceIsUp(FaceId face) const {
  const auto* f = forwarder_.face(face);
  return f != nullptr && f->isUp();
}

SmallVector<NextHop, 8> Strategy::viableNextHops(const FibEntry* fibEntry,
                                                 FaceId ingress) const {
  SmallVector<NextHop, 8> hops;
  if (fibEntry == nullptr) return hops;
  for (const auto& hop : fibEntry->nextHops()) {
    if (hop.face != ingress && faceIsUp(hop.face)) hops.push_back(hop);
  }
  return hops;
}

void BestRouteStrategy::afterReceiveInterest(const Interest& interest, Face& inFace,
                                             PitEntry& entry) {
  const auto* fibEntry = lookupFib(interest);
  auto hops = viableNextHops(fibEntry, inFace.id());
  if (hops.empty()) {
    sendNackDownstream(entry, NackReason::kNoRoute);
    return;
  }
  // Prefer the cheapest upstream not already tried (no out-record yet).
  for (const auto& hop : hops) {
    if (entry.findOutRecord(hop.face) == nullptr) {
      sendInterestTo(entry, hop.face);
      return;
    }
  }
  // Retransmission: resend on the cheapest upstream.
  sendInterestTo(entry, hops.front().face);
}

void BestRouteStrategy::afterReceiveNack(const Nack& nack, Face& inFace,
                                         PitEntry& entry) {
  if (auto* out = entry.findOutRecord(inFace.id())) {
    out->nacked = true;
    out->nackReason = nack.reason();
  }

  // Failover: try the cheapest upstream that has not been tried or nacked.
  const auto* fibEntry = lookupFib(entry.interest());
  auto hops = viableNextHops(fibEntry, kInvalidFaceId);
  for (const auto& hop : hops) {
    const auto* out = entry.findOutRecord(hop.face);
    if (out == nullptr || !out->nacked) {
      if (out == nullptr) {
        sendInterestTo(entry, hop.face);
        return;
      }
      continue;  // already in flight on this face
    }
  }
  if (entry.allUpstreamsNacked()) {
    sendNackDownstream(entry, leastSevereNackReason(entry, nack.reason()));
  }
}

void MulticastStrategy::afterReceiveInterest(const Interest& interest, Face& inFace,
                                             PitEntry& entry) {
  const auto* fibEntry = lookupFib(interest);
  auto hops = viableNextHops(fibEntry, inFace.id());
  if (hops.empty()) {
    sendNackDownstream(entry, NackReason::kNoRoute);
    return;
  }
  for (const auto& hop : hops) {
    if (entry.findOutRecord(hop.face) == nullptr) sendInterestTo(entry, hop.face);
  }
}

void LoadBalanceStrategy::afterReceiveInterest(const Interest& interest, Face& inFace,
                                               PitEntry& entry) {
  const auto* fibEntry = lookupFib(interest);
  auto hops = viableNextHops(fibEntry, inFace.id());
  if (hops.empty()) {
    sendNackDownstream(entry, NackReason::kNoRoute);
    return;
  }
  if (hops.size() == 1) {
    sendInterestTo(entry, hops.front().face);
    return;
  }

  // Weight each hop by 1/SRTT; faces without samples get the average
  // measured weight so fresh clusters still attract probe traffic.
  SmallVector<double, 8> weights;
  double measured_sum = 0.0;
  std::size_t measured_count = 0;
  for (const auto& hop : hops) {
    double& weight = weights.emplace_back(0.0);
    if (auto srtt = measurements().srtt(hop.face)) {
      weight = 1.0 / std::max(srtt->toSeconds(), 1e-6);
      measured_sum += weight;
      ++measured_count;
    }
  }
  const double fallback =
      measured_count > 0 ? measured_sum / static_cast<double>(measured_count) : 1.0;
  double total = 0.0;
  for (auto& w : weights) {
    if (w == 0.0) w = fallback;
    total += w;
  }
  double pick = rng_.uniformDouble() * total;
  for (std::size_t i = 0; i < hops.size(); ++i) {
    pick -= weights[i];
    if (pick <= 0.0) {
      sendInterestTo(entry, hops[i].face);
      return;
    }
  }
  sendInterestTo(entry, hops.back().face);
}

void LoadBalanceStrategy::afterReceiveNack(const Nack& nack, Face& inFace,
                                           PitEntry& entry) {
  if (auto* out = entry.findOutRecord(inFace.id())) {
    out->nacked = true;
    out->nackReason = nack.reason();
  }
  const auto* fibEntry = lookupFib(entry.interest());
  auto hops = viableNextHops(fibEntry, kInvalidFaceId);
  for (const auto& hop : hops) {
    if (entry.findOutRecord(hop.face) == nullptr) {
      sendInterestTo(entry, hop.face);
      return;
    }
  }
  if (entry.allUpstreamsNacked()) {
    sendNackDownstream(entry, leastSevereNackReason(entry, nack.reason()));
  }
}

void AsfStrategy::afterReceiveInterest(const Interest& interest, Face& inFace,
                                       PitEntry& entry) {
  const auto* fibEntry = lookupFib(interest);
  auto hops = viableNextHops(fibEntry, inFace.id());
  if (hops.empty()) {
    sendNackDownstream(entry, NackReason::kNoRoute);
    return;
  }
  ++interest_count_;

  // Pick the face with the best (lowest) SRTT; unmeasured faces rank by
  // configured cost behind any measured face.
  const NextHop* best = nullptr;
  double bestSrtt = 0.0;
  const NextHop* bestUnmeasured = nullptr;
  SmallVector<const NextHop*, 8> unmeasured;
  for (const auto& hop : hops) {
    if (auto srtt = measurements().srtt(hop.face)) {
      if (best == nullptr || srtt->toSeconds() < bestSrtt) {
        best = &hop;
        bestSrtt = srtt->toSeconds();
      }
    } else {
      unmeasured.push_back(&hop);
      if (bestUnmeasured == nullptr || hop.cost < bestUnmeasured->cost) {
        bestUnmeasured = &hop;
      }
    }
  }
  const NextHop* primary = best != nullptr ? best : bestUnmeasured;
  sendInterestTo(entry, primary->face);

  // Probing: periodically also forward to an unmeasured face (priority)
  // or a random alternative, so a recovered/faster path is rediscovered.
  if (hops.size() > 1 && probe_interval_ > 0 &&
      interest_count_ % static_cast<std::uint64_t>(probe_interval_) == 0) {
    const NextHop* probe = nullptr;
    if (!unmeasured.empty() && unmeasured.front() != primary) {
      probe = unmeasured.front();
    } else {
      const auto& candidate = hops[rng_.uniform(hops.size())];
      if (candidate.face != primary->face) probe = &candidate;
    }
    if (probe != nullptr && entry.findOutRecord(probe->face) == nullptr) {
      sendInterestTo(entry, probe->face);
    }
  }
}

void AsfStrategy::afterReceiveNack(const Nack& nack, Face& inFace,
                                   PitEntry& entry) {
  if (auto* out = entry.findOutRecord(inFace.id())) {
    out->nacked = true;
    out->nackReason = nack.reason();
  }
  const auto* fibEntry = lookupFib(entry.interest());
  auto hops = viableNextHops(fibEntry, kInvalidFaceId);
  for (const auto& hop : hops) {
    if (entry.findOutRecord(hop.face) == nullptr) {
      sendInterestTo(entry, hop.face);
      return;
    }
  }
  if (entry.allUpstreamsNacked()) {
    sendNackDownstream(entry, leastSevereNackReason(entry, nack.reason()));
  }
}

void RoundRobinStrategy::afterReceiveInterest(const Interest& interest, Face& inFace,
                                              PitEntry& entry) {
  const auto* fibEntry = lookupFib(interest);
  auto hops = viableNextHops(fibEntry, inFace.id());
  if (hops.empty()) {
    sendNackDownstream(entry, NackReason::kNoRoute);
    return;
  }
  auto& cursor = cursor_[fibEntry->prefix()];
  sendInterestTo(entry, hops[cursor % hops.size()].face);
  ++cursor;
}

}  // namespace lidc::ndn
