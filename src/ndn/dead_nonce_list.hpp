// Dead Nonce List, per the NFD design: remembers (name, nonce) pairs of
// recently satisfied or expired Interests so that a looping copy that
// arrives *after* its PIT entry is gone is still detected as a duplicate
// instead of being forwarded again. A fixed-capacity FIFO ring of
// 64-bit hashes, with a flat count table answering membership.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "ndn/name.hpp"

namespace lidc::ndn {

class DeadNonceList {
 public:
  explicit DeadNonceList(std::size_t capacity = 8192) : capacity_(capacity) {}

  void add(const Name& name, std::uint32_t nonce) {
    if (capacity_ == 0) return;
    const std::uint64_t entry = hashOf(name, nonce);
    ++counts_[cellFor(entry)].count;
    if (ring_.size() < capacity_) {
      ring_.push_back(entry);
      return;
    }
    // Full: the new hash takes the oldest one's place.
    const std::uint64_t victim = ring_[oldest_];
    ring_[oldest_] = entry;
    oldest_ = (oldest_ + 1) % capacity_;
    release(victim);
  }

  [[nodiscard]] bool has(const Name& name, std::uint32_t nonce) const {
    if (counts_.empty()) return false;
    return counts_[probe(hashOf(name, nonce))].count > 0;
  }

  [[nodiscard]] std::size_t size() const noexcept { return ring_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  /// One distinct hash in the ring and how many ring slots hold it
  /// (hash collisions between live slots); count 0 = empty cell.
  struct Cell {
    std::uint64_t hash = 0;
    std::uint32_t count = 0;
  };

  static std::uint64_t hashOf(const Name& name, std::uint32_t nonce) noexcept {
    std::uint64_t h = name.hash();
    h ^= 0x9e3779b97f4a7c15ULL + nonce + (h << 6) + (h >> 2);
    return h;
  }

  /// Linear probing: the cell holding `hash`, or the empty cell that ends
  /// its probe run. Needs a non-empty table.
  [[nodiscard]] std::size_t probe(std::uint64_t hash) const noexcept {
    const std::size_t mask = counts_.size() - 1;
    std::size_t cell = static_cast<std::size_t>(hash) & mask;
    while (counts_[cell].count > 0 && counts_[cell].hash != hash) {
      cell = (cell + 1) & mask;
    }
    return cell;
  }

  /// The cell for `hash`, claimed if new. The table doubles to stay at
  /// most three quarters full.
  std::size_t cellFor(std::uint64_t hash) {
    if ((distinct_ + 1) * 4 > counts_.size() * 3) {
      std::vector<Cell> old(std::max<std::size_t>(16, counts_.size() * 2));
      old.swap(counts_);
      for (const Cell& cell : old) {
        if (cell.count > 0) counts_[probe(cell.hash)] = cell;
      }
    }
    const std::size_t cell = probe(hash);
    if (counts_[cell].count == 0) {
      counts_[cell].hash = hash;
      ++distinct_;
    }
    return cell;
  }

  /// Drops one reference to `hash`; the last one frees its cell by
  /// backward-shift deletion, so probe runs never hold tombstones.
  void release(std::uint64_t hash) {
    std::size_t hole = probe(hash);
    if (--counts_[hole].count > 0) return;
    --distinct_;
    const std::size_t mask = counts_.size() - 1;
    for (std::size_t next = (hole + 1) & mask; counts_[next].count > 0;
         next = (next + 1) & mask) {
      const std::size_t home = static_cast<std::size_t>(counts_[next].hash) & mask;
      if (((next - home) & mask) >= ((next - hole) & mask)) {
        counts_[hole] = counts_[next];
        hole = next;
      }
    }
    counts_[hole] = Cell{};
  }

  std::size_t capacity_;
  std::vector<std::uint64_t> ring_;
  std::size_t oldest_ = 0;  // ring index of the oldest hash once full
  std::vector<Cell> counts_;
  std::size_t distinct_ = 0;
};

}  // namespace lidc::ndn
