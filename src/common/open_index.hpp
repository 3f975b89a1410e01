// A hash index over objects stored elsewhere (in a SlotPool, say): each
// cell holds a pointer to one object or null. Open addressing with
// linear probing, at most half full, and backward-shift deletion, so an
// erase leaves no tombstone and a lookup stops at the first empty cell.
// The caller does the hashing: a lookup takes the hash of what it seeks
// and a predicate that tells the object sought from others in its probe
// run, and `HashOf` gives a stored object's hash when cells move.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace lidc {

/// `HashOf{}(const T&)` must equal the hash a lookup for that object passes.
template <typename T, typename HashOf>
class OpenIndex {
 public:
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// The object with this hash that `same(const T&)` accepts, or null.
  template <typename Same>
  [[nodiscard]] T* find(std::size_t hash, const Same& same) const {
    return cells_.empty() ? nullptr : cells_[cellOf(hash, same)];
  }

  /// Adds an object that no stored object is the same as.
  void insert(T* object) {
    if ((size_ + 1) * 2 > cells_.size()) grow();
    place(object);
    ++size_;
  }

  /// Removes the object that find(hash, same) gives and returns it, or
  /// returns null when there is none.
  template <typename Same>
  T* remove(std::size_t hash, const Same& same) {
    if (cells_.empty()) return nullptr;
    std::size_t hole = cellOf(hash, same);
    T* const removed = cells_[hole];
    if (removed == nullptr) return nullptr;
    const std::size_t mask = cells_.size() - 1;
    // Backward-shift deletion: pull later cells of the probe run into the
    // hole when it lies between their home cell and where they sit.
    for (std::size_t next = (hole + 1) & mask; cells_[next] != nullptr;
         next = (next + 1) & mask) {
      const std::size_t home = HashOf{}(*cells_[next]) & mask;
      if (((next - home) & mask) >= ((next - hole) & mask)) {
        cells_[hole] = cells_[next];
        hole = next;
      }
    }
    cells_[hole] = nullptr;
    --size_;
    return removed;
  }

  /// Calls visit(T&) on every stored object, in no particular order.
  template <typename Visit>
  void forEach(const Visit& visit) const {
    for (T* object : cells_) {
      if (object != nullptr) visit(*object);
    }
  }

 private:
  /// The cell of the object `same` accepts, or the empty cell that ends
  /// the probe run. There must be cells.
  template <typename Same>
  [[nodiscard]] std::size_t cellOf(std::size_t hash, const Same& same) const {
    const std::size_t mask = cells_.size() - 1;
    for (std::size_t cell = hash & mask;; cell = (cell + 1) & mask) {
      const T* object = cells_[cell];
      if (object == nullptr || same(*object)) return cell;
    }
  }

  void place(T* object) noexcept {
    const std::size_t mask = cells_.size() - 1;
    std::size_t cell = HashOf{}(*object) & mask;
    while (cells_[cell] != nullptr) cell = (cell + 1) & mask;
    cells_[cell] = object;
  }

  /// Doubles the cells (16 at first) and re-places every object.
  void grow() {
    std::vector<T*> old(std::max<std::size_t>(16, cells_.size() * 2), nullptr);
    old.swap(cells_);
    for (T* object : old) {
      if (object != nullptr) place(object);
    }
  }

  std::vector<T*> cells_;
  std::size_t size_ = 0;
};

}  // namespace lidc
