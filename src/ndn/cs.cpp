#include "ndn/cs.hpp"

namespace lidc::ndn {

namespace {
/// Signed-but-invalid is the poisoned state; unsigned Data carries no
/// integrity information and passes (see file comment).
bool isPoisoned(const Data& data) { return data.hasSignature() && !data.verify(); }
}  // namespace

void ContentStore::insert(const Data& data, sim::Time now) {
  if (capacity_ == 0) return;
  if (verify_inserts_ && isPoisoned(data)) {
    ++poisoned_rejects_;
    return;
  }
  auto it = index_.lower_bound(data.name());
  if (it != index_.end() && it->first == data.name()) {
    it->second.first = Entry{data, now};
    touch(it->second.second);
    return;
  }
  it = index_.emplace_hint(it, data.name(), std::make_pair(Entry{data, now}, lru_.end()));
  lru_.push_front(&it->first);
  it->second.second = lru_.begin();
  evictIfNeeded();
}

std::optional<Data> ContentStore::find(const Interest& interest, sim::Time now) {
  const Name& name = interest.name();
  const std::optional<std::uint64_t> exclude = interest.excludeDigest();

  // Serve-or-evict decision for one candidate entry. Poisoned entries
  // (cached while verification was off, or corrupted post-admission) are
  // removed instead of served, so a cache never re-serves bad content.
  auto usable = [&](const Entry& entry) {
    if (!isFreshEnough(entry, interest, now)) return false;
    if (exclude && entry.data.contentDigest() == *exclude) return false;
    return true;
  };

  if (!interest.canBePrefix()) {
    auto it = index_.find(name);
    if (it != index_.end() && isPoisoned(it->second.first.data)) {
      ++poisoned_evictions_;
      erase(it->first);
    } else if (it != index_.end() && usable(it->second.first)) {
      touch(it->second.second);
      ++hits_;
      return it->second.first.data;
    }
    ++misses_;
    return std::nullopt;
  }

  // CanBePrefix: scan names >= prefix until we leave the subtree.
  for (auto it = index_.lower_bound(name); it != index_.end();) {
    if (!name.isPrefixOf(it->first)) break;
    if (isPoisoned(it->second.first.data)) {
      ++poisoned_evictions_;
      auto victim = it++;
      erase(victim->first);
      continue;
    }
    if (usable(it->second.first)) {
      touch(it->second.second);
      ++hits_;
      return it->second.first.data;
    }
    ++it;
  }
  ++misses_;
  return std::nullopt;
}

void ContentStore::erase(const Name& name) {
  auto it = index_.find(name);
  if (it == index_.end()) return;
  lru_.erase(it->second.second);
  index_.erase(it);
}

void ContentStore::clear() {
  index_.clear();
  lru_.clear();
}

void ContentStore::setCapacity(std::size_t capacity) {
  capacity_ = capacity;
  evictIfNeeded();
}

void ContentStore::touch(LruList::iterator it) {
  lru_.splice(lru_.begin(), lru_, it);
}

void ContentStore::evictIfNeeded() {
  while (index_.size() > capacity_ && !lru_.empty()) {
    index_.erase(index_.find(*lru_.back()));
    lru_.pop_back();
  }
}

bool ContentStore::isFreshEnough(const Entry& entry, const Interest& interest,
                                 sim::Time now) const noexcept {
  if (!interest.mustBeFresh()) return true;
  if (serve_stale_) return true;  // chaos: buggy cache replays stale Data
  if (entry.data.freshnessPeriod() == sim::Duration()) return false;
  return now < entry.arrival + entry.data.freshnessPeriod();
}

}  // namespace lidc::ndn
