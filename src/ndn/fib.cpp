#include "ndn/fib.hpp"

#include <algorithm>

namespace lidc::ndn {

void FibEntry::addOrUpdateNextHop(FaceId face, std::uint64_t cost) {
  for (auto& hop : next_hops_) {
    if (hop.face == face) {
      hop.cost = cost;
      std::stable_sort(next_hops_.begin(), next_hops_.end(),
                       [](const NextHop& a, const NextHop& b) { return a.cost < b.cost; });
      return;
    }
  }
  next_hops_.push_back(NextHop{face, cost});
  std::stable_sort(next_hops_.begin(), next_hops_.end(),
                   [](const NextHop& a, const NextHop& b) { return a.cost < b.cost; });
}

void FibEntry::removeNextHop(FaceId face) {
  std::erase_if(next_hops_, [face](const NextHop& h) { return h.face == face; });
}

bool FibEntry::hasNextHop(FaceId face) const noexcept {
  return std::any_of(next_hops_.begin(), next_hops_.end(),
                     [face](const NextHop& h) { return h.face == face; });
}

FibEntry& Fib::insert(const Name& prefix, FaceId face, std::uint64_t cost) {
  auto [it, inserted] = entries_.try_emplace(prefix, FibEntry(prefix));
  if (inserted) count(prefix, +1);
  it->second.addOrUpdateNextHop(face, cost);
  return it->second;
}

void Fib::removeNextHop(const Name& prefix, FaceId face) {
  auto it = entries_.find(prefix);
  if (it == entries_.end()) return;
  it->second.removeNextHop(face);
  if (it->second.empty()) {
    count(prefix, -1);
    entries_.erase(it);
  }
}

void Fib::removeFaceFromAll(FaceId face) {
  for (auto it = entries_.begin(); it != entries_.end();) {
    it->second.removeNextHop(face);
    if (it->second.empty()) {
      count(it->first, -1);
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
}

void Fib::count(const Name& prefix, int delta) {
  if (lengths_.size() <= prefix.size()) lengths_.resize(prefix.size() + 1);
  lengths_[prefix.size()] += static_cast<std::uint32_t>(delta);
  while (!lengths_.empty() && lengths_.back() == 0) lengths_.pop_back();
}

const FibEntry* Fib::longestPrefixMatch(const Name& name) const {
  // Prefixes come shortest first, so the last match is the longest.
  // lengths_ ends at the longest length held, so hashing stops there.
  const FibEntry* longest = nullptr;
  if (lengths_.empty()) return longest;
  name.forEachPrefix(
      [&](const NamePrefix& prefix) {
        if (lengths_[prefix.size()] == 0) return;
        auto it = entries_.find(prefix);
        if (it != entries_.end() && !it->second.empty()) longest = &it->second;
      },
      lengths_.size() - 1);
  return longest;
}

const FibEntry* Fib::findExact(const Name& prefix) const {
  auto it = entries_.find(prefix);
  return it == entries_.end() ? nullptr : &it->second;
}

}  // namespace lidc::ndn
