#include "ndn/forwarder.hpp"

#include <array>
#include <cassert>

#include "common/logging.hpp"

namespace lidc::ndn {

Forwarder::Forwarder(std::string name, sim::Simulator& sim)
    : name_(std::move(name)), sim_(sim) {
  // Default strategy for the whole namespace, as in NFD.
  strategies_.push_back({Name("/"), std::make_unique<BestRouteStrategy>(*this)});
}

Forwarder::~Forwarder() = default;

FaceId Forwarder::addFace(std::shared_ptr<Face> face) {
  assert(face);
  const FaceId id = next_face_id_++;
  face->setId(id);
  installHandlers(*face);
  tapFace(*face);
  faces_.emplace(id, std::move(face));
  return id;
}

void Forwarder::removeFace(FaceId id) {
  fib_.removeFaceFromAll(id);
  measurements_.forget(id);
  faces_.erase(id);
}

Face* Forwarder::face(FaceId id) noexcept {
  auto it = faces_.find(id);
  return it == faces_.end() ? nullptr : it->second.get();
}

void Forwarder::registerPrefix(const Name& prefix, FaceId face, std::uint64_t cost) {
  fib_.insert(prefix, face, cost);
}

void Forwarder::unregisterPrefix(const Name& prefix, FaceId face) {
  fib_.removeNextHop(prefix, face);
}

void Forwarder::setStrategy(const Name& prefix, std::unique_ptr<Strategy> strategy) {
  assert(strategy);
  for (auto& choice : strategies_) {
    if (choice.prefix == prefix) {
      choice.strategy = std::move(strategy);
      return;
    }
  }
  strategies_.push_back({prefix, std::move(strategy)});
}

Strategy& Forwarder::findStrategy(const Name& name) {
  // The root entry always exists and is a prefix of every name.
  const StrategyChoice* longest = &strategies_.front();
  for (const auto& choice : strategies_) {
    if (choice.prefix.size() > longest->prefix.size() &&
        choice.prefix.isPrefixOf(name)) {
      longest = &choice;
    }
  }
  return *longest->strategy;
}

void Forwarder::attachTelemetry(telemetry::MetricsRegistry& registry,
                                telemetry::Tracer* tracer) {
  tracer_ = tracer;
  const telemetry::Labels labels{{"node", name_}};
  const ForwarderCounters& c = counters_;
  registry.bindCounter("lidc_forwarder_in_interests", labels, c.nInInterests);
  registry.bindCounter("lidc_forwarder_out_interests", labels, c.nOutInterests);
  registry.bindCounter("lidc_forwarder_in_data", labels, c.nInData);
  registry.bindCounter("lidc_forwarder_out_data", labels, c.nOutData);
  registry.bindCounter("lidc_forwarder_cs_hits", labels, c.nCsHits);
  registry.bindCounter("lidc_forwarder_cs_misses", labels, c.nCsMisses);
  registry.bindCounter("lidc_forwarder_satisfied", labels, c.nSatisfied);
  registry.bindCounter("lidc_forwarder_unsatisfied", labels, c.nUnsatisfied);
  registry.bindCounter("lidc_forwarder_duplicate_nonce", labels, c.nDuplicateNonce);
  registry.bindCounter("lidc_forwarder_no_route", labels, c.nNoRoute);
  registry.bindCounter("lidc_forwarder_unsolicited_data", labels, c.nUnsolicitedData);
  registry.bindCounter("lidc_integrity_drops_total", labels, c.nIntegrityDrops);

  // Per-face counters and table occupancy are aggregated at export.
  const auto faceTotal = [this](std::uint64_t FaceCounters::*field) {
    return [this, field] {
      std::uint64_t total = 0;
      for (const auto& [id, face] : faces_) total += face->counters().*field;
      return total;
    };
  };
  registry.bindCounter("lidc_face_in_interests", labels,
                       faceTotal(&FaceCounters::nInInterests));
  registry.bindCounter("lidc_face_out_interests", labels,
                       faceTotal(&FaceCounters::nOutInterests));
  registry.bindCounter("lidc_face_in_data", labels, faceTotal(&FaceCounters::nInData));
  registry.bindCounter("lidc_face_out_data", labels,
                       faceTotal(&FaceCounters::nOutData));
  registry.bindCounter("lidc_face_in_nacks", labels,
                       faceTotal(&FaceCounters::nInNacks));
  registry.bindCounter("lidc_face_out_nacks", labels,
                       faceTotal(&FaceCounters::nOutNacks));
  registry.bindCounter("lidc_face_in_bytes", labels,
                       faceTotal(&FaceCounters::nInBytes));
  registry.bindCounter("lidc_face_out_bytes", labels,
                       faceTotal(&FaceCounters::nOutBytes));
  registry.bindGauge("lidc_cs_size", labels,
                     [this] { return static_cast<double>(cs_.size()); });
  registry.bindGauge("lidc_pit_size", labels,
                     [this] { return static_cast<double>(pit_.size()); });
  registry.bindCounter("lidc_cs_hits", labels, [this] { return cs_.hits(); });
  registry.bindCounter("lidc_cs_misses", labels, [this] { return cs_.misses(); });
  registry.bindCounter("lidc_cs_poisoned_rejects_total", labels,
                       [this] { return cs_.poisonedRejects(); });
  registry.bindCounter("lidc_cs_poisoned_evictions_total", labels,
                       [this] { return cs_.poisonedEvictions(); });
}

void Forwarder::attachFlowAccounting(telemetry::FlowAccountant& accountant) {
  flow_ = &accountant;
  for (auto& [id, face] : faces_) tapFace(*face);
}

void Forwarder::tapFace(Face& face) {
  // Only point-to-point link faces carry a tap: app faces sit on the
  // node itself, so their traffic never crosses a physical link.
  if (flow_ == nullptr || face.uri().rfind("link://", 0) != 0) return;
  face.setFlowStats(flow_->registerLink(face.uri()));
}

void Forwarder::attributeData(Face& outFace, const Interest& interest,
                              const Data& data, bool fromCache) {
  if (flow_ == nullptr || outFace.flowStats() == nullptr) return;
  // extractFlowKey only ever reads a handful of leading components, so
  // a fixed stack buffer keeps this off the allocator.
  std::array<std::string_view, 16> comps;
  std::size_t count = 0;
  for (const ComponentView c : data.name()) {
    if (count == comps.size()) break;
    comps[count++] = std::string_view(
        reinterpret_cast<const char*>(c.value().data()), c.value().size());
  }
  flow_->attribute(
      outFace.uri(),
      telemetry::extractFlowKey(comps.data(), count, interest.flowLabel()),
      data.wireSize(), fromCache);
}

void Forwarder::hopInstant(const Interest& interest, const char* decision,
                           telemetry::SpanAttrs extra) {
  if (!tracing()) return;
  const telemetry::TraceContext ctx = interest.traceContext();
  if (!ctx) return;
  telemetry::SpanAttrs attrs{{"decision", decision}};
  attrs.insert(attrs.end(), extra.begin(), extra.end());
  tracer_->instant("forwarder-hop", "forwarder:" + name_, ctx, std::move(attrs));
}

void Forwarder::installHandlers(Face& face) {
  face.onReceiveInterest = [this](Face& inFace, const Interest& interest) {
    onIncomingInterest(inFace, interest);
  };
  face.onReceiveData = [this](Face& inFace, const Data& data) {
    onIncomingData(inFace, data);
  };
  face.onReceiveNack = [this](Face& inFace, const Nack& nack) {
    onIncomingNack(inFace, nack);
  };
}

void Forwarder::onIncomingInterest(Face& inFace, const Interest& interest) {
  const Pit::Hold hold(pit_);
  ++counters_.nInInterests;
  LIDC_LOG(kTrace, "forwarder") << name_ << " <- Interest " << interest.name().toUri()
                                << " via face " << inFace.id();

  // Hop limit.
  if (interest.hopLimit() == 0) return;

  // Dead Nonce List: a nonce that looped back after its PIT entry was
  // consumed is still a duplicate.
  if (dnl_.has(interest.name(), interest.nonce())) {
    nackDuplicate(inFace, interest);
    return;
  }

  auto [entry, isNew] = pit_.insert(interest);

  // Loop detection by nonce.
  if (!isNew && entry->isDuplicateNonce(interest.nonce(), inFace.id())) {
    nackDuplicate(inFace, interest);
    return;
  }

  // Content Store lookup.
  if (auto cached = cs_.find(interest, sim_.now())) {
    ++counters_.nCsHits;
    hopInstant(interest, "cs-hit");
    if (isNew) pit_.erase(entry);
    ++counters_.nOutData;
    attributeData(inFace, interest, *cached, /*fromCache=*/true);
    inFace.sendData(*cached);
    return;
  }
  ++counters_.nCsMisses;

  const sim::Time expiry = sim_.now() + interest.lifetime();
  entry->insertInRecord(inFace.id(), interest.nonce(), expiry);

  if (isNew) {
    // Unsatisfy timer. Erasing the entry cancels it, so the entry it
    // names is still in the table when it fires.
    entry->expiryTimer = sim_.scheduleAfter(
        interest.lifetime(), [this, entry = entry] { onInterestExpiry(*entry); });
    findStrategy(interest.name()).afterReceiveInterest(interest, inFace, *entry);
  } else if (!entry->hasOutRecords()) {
    // Entry exists but was never forwarded (e.g. all upstreams were down);
    // give the strategy another chance.
    findStrategy(interest.name()).afterReceiveInterest(interest, inFace, *entry);
  } else {
    // Aggregated onto the in-flight Interest (no re-forwarding).
    hopInstant(interest, "pit-aggregate");
  }
}

void Forwarder::nackDuplicate(Face& inFace, const Interest& interest) {
  ++counters_.nDuplicateNonce;
  hopInstant(interest, "nack-duplicate");
  inFace.sendNack(Nack(interest, NackReason::kDuplicate));
}

void Forwarder::onIncomingData(Face& inFace, const Data& data) {
  const Pit::Hold hold(pit_);
  ++counters_.nInData;
  LIDC_LOG(kTrace, "forwarder") << name_ << " <- Data " << data.name().toUri()
                                << " via face " << inFace.id();

  // Integrity gate: a signed packet whose digest no longer matches was
  // corrupted in flight (or poisoned at a cache). Dropping it here —
  // before the CS and before PIT satisfaction — means the downstream
  // consumer sees a plain timeout and retries, and no cache along the
  // path ever stores the bad copy.
  if (verify_data_ && data.hasSignature() && !data.verify()) {
    ++counters_.nIntegrityDrops;
    LIDC_FR_EVENT(recorder_, kWarn, "forwarder",
                  name_ + " integrity-drop " + data.name().toUri());
    return;
  }

  const Pit::Matches matches = pit_.findMatches(data);
  if (matches.empty()) {
    ++counters_.nUnsolicitedData;
    return;  // unsolicited Data is dropped, as in NFD's default policy
  }

  cs_.insert(data, sim_.now());

  // A nested pipeline may erase a matched entry (a local producer that
  // answers at once, a consumer that re-expresses from onData); the hold
  // keeps it readable, and erase() then removes whatever entry holds its
  // key by now, if any.
  for (PitEntry* entry : matches) {
    entry->expiryTimer.cancel();
    findStrategy(entry->name()).beforeSatisfyInterest(*entry, inFace, data);
    for (const auto& in : entry->inRecords()) {
      if (in.face == inFace.id()) continue;
      if (auto* downstream = face(in.face); downstream != nullptr) {
        ++counters_.nOutData;
        attributeData(*downstream, entry->interest(), data,
                      /*fromCache=*/false);
        downstream->sendData(data);
      }
    }
    ++counters_.nSatisfied;
    recordDeadNonces(*entry);
    pit_.erase(entry);
  }
}

void Forwarder::recordDeadNonces(const PitEntry& entry) {
  for (const auto& in : entry.inRecords()) {
    dnl_.add(entry.name(), in.nonce);
  }
  for (const auto& out : entry.outRecords()) {
    dnl_.add(entry.name(), out.nonce);
  }
}

void Forwarder::onIncomingNack(Face& inFace, const Nack& nack) {
  const Pit::Hold hold(pit_);
  PitEntry* entry = pit_.find(nack.interest());
  if (entry == nullptr) return;
  // Only meaningful if we actually sent on that face.
  if (entry->findOutRecord(inFace.id()) == nullptr) return;
  findStrategy(entry->name()).afterReceiveNack(nack, inFace, *entry);
}

void Forwarder::onInterestExpiry(PitEntry& entry) {
  const Pit::Hold hold(pit_);
  ++counters_.nUnsatisfied;
  LIDC_FR_EVENT(recorder_, kWarn, "forwarder",
                name_ + " unsatisfied " + entry.interest().name().toUri());
  hopInstant(entry.interest(), "expire");
  findStrategy(entry.name()).onInterestTimeout(entry);
  recordDeadNonces(entry);
  pit_.erase(&entry);
}

void Forwarder::sendInterest(PitEntry& entry, FaceId upstream) {
  auto* outFace = face(upstream);
  if (outFace == nullptr || !outFace->isUp()) return;

  // The face gets the PIT entry's own Interest: the hop limit is
  // decremented on the wire, in the copy a link face puts in flight.
  const Interest& interest = entry.interest();
  entry.insertOutRecord(upstream, interest.nonce(), sim_.now());
  ++counters_.nOutInterests;
  if (tracing()) hopInstant(interest, "forward", {{"face", std::to_string(upstream)}});
  LIDC_LOG(kTrace, "forwarder") << name_ << " -> Interest " << interest.name().toUri()
                                << " via face " << upstream;
  outFace->sendInterest(interest);
}

void Forwarder::sendNackDownstream(PitEntry& entry, NackReason reason) {
  ++counters_.nNoRoute;
  LIDC_FR_EVENT(recorder_, kWarn, "forwarder",
                name_ + " nack " + std::string(nackReasonName(reason)) + " " +
                    entry.interest().name().toUri());
  if (tracing()) {
    hopInstant(entry.interest(), "nack",
               {{"reason", std::string(nackReasonName(reason))}});
  }
  for (const auto& in : entry.inRecords()) {
    if (auto* downstream = face(in.face); downstream != nullptr) {
      downstream->sendNack(Nack(entry.interest(), reason));
    }
  }
  pit_.erase(&entry);
}

}  // namespace lidc::ndn
