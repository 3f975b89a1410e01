// Objects that never move, for tables whose callers keep a reference to
// one entry while the table changes: a PIT entry held by a pipeline
// across nested inserts, an AppFace record whose Interest its own
// callback is still reading. Objects are built a fixed-size chunk at a
// time and recycled through a free list, so a steady state allocates
// nothing. A released object keeps its state (a name's buffer, say) for
// its next user, who overwrites what it needs.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

namespace lidc {

template <typename T, std::size_t kChunk>
class SlotPool {
  static_assert(kChunk > 0);

 public:
  /// A free object, in whatever state its last user left it.
  [[nodiscard]] T* acquire() {
    if (free_.empty()) grow();
    T* slot = free_.back();
    free_.pop_back();
    return slot;
  }

  /// Takes back an object from acquire(); it is not used until handed out again.
  void release(T* slot) { free_.push_back(slot); }

 private:
  void grow() {
    chunks_.push_back(std::make_unique<T[]>(kChunk));
    T* chunk = chunks_.back().get();
    for (std::size_t i = kChunk; i > 0; --i) free_.push_back(chunk + i - 1);
  }

  std::vector<std::unique_ptr<T[]>> chunks_;
  std::vector<T*> free_;
};

}  // namespace lidc
