#include "ndn/cs.hpp"

#include <algorithm>

namespace lidc::ndn {

namespace {
/// Signed-but-invalid is the poisoned state; unsigned Data carries no
/// integrity information and passes (see file comment).
bool isPoisoned(const Data& data) { return data.hasSignature() && !data.verify(); }

/// Copy-assigned into a freed slot: drops the payload reference and
/// keeps the name's buffer for the next packet.
const Data kFreed;
}  // namespace

void ContentStore::insert(const Data& data, sim::Time now) {
  if (capacity_ == 0) return;
  if (verify_inserts_ && isPoisoned(data)) {
    ++poisoned_rejects_;
    return;
  }
  if (const std::uint32_t slot = lookup(data.name()); slot != kNone) {
    slots_[slot].data = data;
    slots_[slot].arrival = now;
    touch(slot);
    return;
  }
  // A full store hands its least recently used slot to the newcomer.
  if (size_ >= capacity_) remove(oldest_);
  add(data, now);
}

std::optional<Data> ContentStore::find(const Interest& interest, sim::Time now) {
  if (interest.canBePrefix()) return findUnderPrefix(interest, now);
  // Poisoned entries (cached while verification was off, or corrupted
  // post-admission) are removed instead of served, so a cache never
  // re-serves bad content.
  const std::uint32_t slot = lookup(interest.name());
  if (slot != kNone && isPoisoned(slots_[slot].data)) {
    ++poisoned_evictions_;
    remove(slot);
  } else if (slot != kNone && usable(slots_[slot], interest, now)) {
    touch(slot);
    ++hits_;
    return slots_[slot].data;
  }
  ++misses_;
  return std::nullopt;
}

std::optional<Data> ContentStore::findUnderPrefix(const Interest& interest,
                                                  sim::Time now) {
  // No forwarding path sets CanBePrefix, so this scans every entry and
  // visits those under the prefix in canonical order, smallest first.
  std::vector<std::uint32_t> under;
  for (std::uint32_t slot = newest_; slot != kNone; slot = slots_[slot].older) {
    if (interest.name().isPrefixOf(slots_[slot].data.name())) under.push_back(slot);
  }
  std::sort(under.begin(), under.end(), [this](std::uint32_t a, std::uint32_t b) {
    return slots_[a].data.name() < slots_[b].data.name();
  });
  for (const std::uint32_t slot : under) {
    if (isPoisoned(slots_[slot].data)) {
      ++poisoned_evictions_;
      remove(slot);
    } else if (usable(slots_[slot], interest, now)) {
      touch(slot);
      ++hits_;
      return slots_[slot].data;
    }
  }
  ++misses_;
  return std::nullopt;
}

void ContentStore::erase(const Name& name) {
  if (const std::uint32_t slot = lookup(name); slot != kNone) remove(slot);
}

void ContentStore::clear() {
  slots_.clear();
  free_.clear();
  table_.clear();
  newest_ = oldest_ = kNone;
  size_ = 0;
}

void ContentStore::setCapacity(std::size_t capacity) {
  capacity_ = capacity;
  evictIfNeeded();
}

std::uint32_t ContentStore::lookup(const Name& name) const noexcept {
  if (table_.empty()) return kNone;
  const std::size_t mask = table_.size() - 1;
  const std::size_t hash = name.hash();
  for (std::size_t cell = hash & mask; table_[cell] != kNone;
       cell = (cell + 1) & mask) {
    const Name& stored = slots_[table_[cell]].data.name();
    if (stored.hash() == hash && stored == name) return table_[cell];
  }
  return kNone;
}

void ContentStore::add(const Data& data, sim::Time now) {
  auto slot = static_cast<std::uint32_t>(slots_.size());
  if (free_.empty()) {
    slots_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  slots_[slot].data = data;
  slots_[slot].arrival = now;
  ++size_;
  index(slot);
  linkNewest(slot);
}

void ContentStore::remove(std::uint32_t slot) {
  unindex(slot);
  unlink(slot);
  slots_[slot].data = kFreed;
  free_.push_back(slot);
  --size_;
}

void ContentStore::index(std::uint32_t slot) {
  auto place = [this](std::uint32_t s) {
    const std::size_t mask = table_.size() - 1;
    std::size_t cell = slots_[s].data.name().hash() & mask;
    while (table_[cell] != kNone) cell = (cell + 1) & mask;
    table_[cell] = s;
  };
  if (size_ * 2 > table_.size()) {
    // Rehash at double the size; the live slots are the LRU list.
    table_.assign(std::max<std::size_t>(16, table_.size() * 2), kNone);
    for (std::uint32_t live = newest_; live != kNone; live = slots_[live].older) {
      place(live);
    }
  }
  place(slot);
}

void ContentStore::unindex(std::uint32_t slot) noexcept {
  const std::size_t mask = table_.size() - 1;
  std::size_t hole = slots_[slot].data.name().hash() & mask;
  while (table_[hole] != slot) hole = (hole + 1) & mask;
  // Backward-shift deletion: pull later cells of the probe run into the
  // hole when it lies between their home cell and where they sit.
  for (std::size_t next = (hole + 1) & mask; table_[next] != kNone;
       next = (next + 1) & mask) {
    const std::size_t home = slots_[table_[next]].data.name().hash() & mask;
    if (((next - home) & mask) >= ((next - hole) & mask)) {
      table_[hole] = table_[next];
      hole = next;
    }
  }
  table_[hole] = kNone;
}

void ContentStore::linkNewest(std::uint32_t slot) noexcept {
  slots_[slot].newer = kNone;
  slots_[slot].older = newest_;
  if (newest_ != kNone) slots_[newest_].newer = slot;
  newest_ = slot;
  if (oldest_ == kNone) oldest_ = slot;
}

void ContentStore::unlink(std::uint32_t slot) noexcept {
  const Slot& s = slots_[slot];
  if (s.newer != kNone) {
    slots_[s.newer].older = s.older;
  } else {
    newest_ = s.older;
  }
  if (s.older != kNone) {
    slots_[s.older].newer = s.newer;
  } else {
    oldest_ = s.newer;
  }
}

void ContentStore::touch(std::uint32_t slot) noexcept {
  if (slot == newest_) return;
  unlink(slot);
  linkNewest(slot);
}

void ContentStore::evictIfNeeded() {
  while (size_ > capacity_) remove(oldest_);
}

bool ContentStore::usable(const Slot& slot, const Interest& interest,
                          sim::Time now) const {
  if (interest.mustBeFresh() && !serve_stale_) {  // serve_stale_: chaos replay
    const sim::Duration freshness = slot.data.freshnessPeriod();
    if (freshness == sim::Duration() || now >= slot.arrival + freshness) return false;
  }
  const std::optional<std::uint64_t> exclude = interest.excludeDigest();
  return !exclude || slot.data.contentDigest() != *exclude;
}

}  // namespace lidc::ndn
