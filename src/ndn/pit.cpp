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
  std::erase_if(in_records_, [face](const InRecord& r) { return r.face == face; });
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

Pit::InsertResult Pit::insert(const Interest& interest) {
  auto it = entries_.find(makeKey(interest));
  if (it != entries_.end()) return {it->second, false};
  auto entry = std::make_shared<PitEntry>(interest);
  entries_.emplace(makeKey(entry->interest()), entry);
  return {entry, true};
}

std::shared_ptr<PitEntry> Pit::find(const Interest& interest) const {
  auto it = entries_.find(makeKey(interest));
  return it == entries_.end() ? nullptr : it->second;
}

std::vector<std::shared_ptr<PitEntry>> Pit::findMatches(const Data& data) const {
  std::vector<std::shared_ptr<PitEntry>> matches;
  // Exact-name entries (CanBePrefix false or true), then every proper
  // prefix with CanBePrefix set. Probing prefixes keeps this O(name length)
  // rather than O(table size), and probing by view copies no prefix.
  const std::size_t exactSize = data.name().size();
  data.name().forEachPrefix([&](const NamePrefix& probe) {
    const bool exact = probe.size() == exactSize;
    for (const bool mustBeFresh : {false, true}) {
      if (exact) {
        auto it = entries_.find(Key{probe, false, mustBeFresh});
        if (it != entries_.end()) matches.push_back(it->second);
      }
      auto it = entries_.find(Key{probe, true, mustBeFresh});
      if (it != entries_.end()) matches.push_back(it->second);
    }
  });
  return matches;
}

void Pit::erase(const std::shared_ptr<PitEntry>& entry) {
  if (!entry) return;
  // Erase by iterator: the stored key views the entry the node owns.
  auto it = entries_.find(makeKey(entry->interest()));
  if (it != entries_.end()) entries_.erase(it);
}

}  // namespace lidc::ndn
