#include "ndn/pit.hpp"

#include <algorithm>

namespace lidc::ndn {

void PitEntry::insertInRecord(FaceId face, std::uint32_t nonce, sim::Time expiry) {
  for (auto& record : in_records_) {
    if (record.face == face) {
      record.nonce = nonce;
      record.expiry = expiry;
      return;
    }
  }
  in_records_.push_back(InRecord{face, nonce, expiry});
}

void PitEntry::insertOutRecord(FaceId face, std::uint32_t nonce, sim::Time sentAt) {
  for (auto& record : out_records_) {
    if (record.face == face) {
      record.nonce = nonce;
      record.lastSent = sentAt;
      record.nacked = false;
      return;
    }
  }
  out_records_.push_back(OutRecord{face, nonce, sentAt, false});
}

OutRecord* PitEntry::findOutRecord(FaceId face) noexcept {
  for (auto& record : out_records_) {
    if (record.face == face) return &record;
  }
  return nullptr;
}

void PitEntry::deleteInRecord(FaceId face) {
  erase_if(in_records_, [face](const InRecord& r) { return r.face == face; });
}

bool PitEntry::isDuplicateNonce(std::uint32_t nonce, FaceId face) const noexcept {
  for (const auto& record : in_records_) {
    if (record.nonce == nonce && record.face != face) return true;
  }
  for (const auto& record : out_records_) {
    if (record.nonce == nonce && record.face != face) return true;
  }
  return false;
}

bool PitEntry::allUpstreamsNacked() const noexcept {
  if (out_records_.empty()) return false;
  return std::all_of(out_records_.begin(), out_records_.end(),
                     [](const OutRecord& r) { return r.nacked; });
}

namespace {
/// Copy-assigned into a freed slot: drops the Interest's parameters
/// (up to 512 KiB for a publish) and keeps its name buffer.
const Interest kFreed;

/// Accepts the entry whose key is (name, canBePrefix, mustBeFresh).
auto sameKey(const NamePrefix& name, bool canBePrefix, bool mustBeFresh) {
  return [&name, canBePrefix, mustBeFresh](const PitEntry& entry) {
    const Interest& stored = entry.interest();
    return stored.canBePrefix() == canBePrefix && stored.mustBeFresh() == mustBeFresh &&
           stored.name().hash() == name.hash() && name.sameAs(stored.name().wire());
  };
}
}  // namespace

Pit::~Pit() {
  index_.forEach([](PitEntry& entry) { entry.expiryTimer.cancel(); });
}

Pit::InsertResult Pit::insert(const Interest& interest) {
  if (PitEntry* entry = find(interest)) return {entry, false};

  // Copy-assigning into a recycled slot reuses its name buffer.
  PitEntry* entry = pool_.acquire();
  entry->interest_ = interest;
  entry->in_records_.clear();
  entry->out_records_.clear();
  entry->retxCount = 0;
  entry->expiryTimer = sim::EventHandle();
  index_.insert(entry);
  if (interest.canBePrefix()) ++prefix_entries_;
  return {entry, true};
}

PitEntry* Pit::find(const Interest& interest) const {
  return lookup(NamePrefix(interest.name()), interest.canBePrefix(),
                interest.mustBeFresh());
}

PitEntry* Pit::lookup(const NamePrefix& name, bool canBePrefix, bool mustBeFresh) const {
  return index_.find(keyHash(name.hash(), canBePrefix, mustBeFresh),
                     sameKey(name, canBePrefix, mustBeFresh));
}

Pit::Matches Pit::findMatches(const Data& data) const {
  Matches matches;
  const auto probe = [&](const NamePrefix& name, bool canBePrefix, bool mustBeFresh) {
    if (PitEntry* entry = lookup(name, canBePrefix, mustBeFresh)) matches.push_back(entry);
  };
  if (prefix_entries_ == 0) {
    // Only an entry for the exact name can match, and its memoized hash
    // is the probe's.
    const NamePrefix exact(data.name());
    probe(exact, false, false);
    probe(exact, false, true);
    return matches;
  }
  // Every prefix, shortest first, for CanBePrefix entries, and the exact
  // name for the others too. Probing prefixes keeps this O(name length)
  // rather than O(table size), and probing by view copies no prefix.
  const std::size_t exactSize = data.name().size();
  data.name().forEachPrefix([&](const NamePrefix& prefix) {
    for (const bool mustBeFresh : {false, true}) {
      if (prefix.size() == exactSize) probe(prefix, false, mustBeFresh);
      probe(prefix, true, mustBeFresh);
    }
  });
  return matches;
}

void Pit::erase(PitEntry* entry) {
  if (entry == nullptr) return;
  const Interest& key = entry->interest_;
  const NamePrefix name(key.name());
  PitEntry* erased =
      index_.remove(keyHash(name.hash(), key.canBePrefix(), key.mustBeFresh()),
                    sameKey(name, key.canBePrefix(), key.mustBeFresh()));
  if (erased == nullptr) return;
  erased->expiryTimer.cancel();
  if (erased->interest_.canBePrefix()) --prefix_entries_;
  if (holds_ > 0) {
    parked_.push_back(erased);
  } else {
    release(erased);
  }
}

void Pit::release(PitEntry* entry) {
  entry->interest_ = kFreed;
  pool_.release(entry);
}

void Pit::reclaimParked() {
  for (PitEntry* entry : parked_) release(entry);
  parked_.clear();
}

}  // namespace lidc::ndn
