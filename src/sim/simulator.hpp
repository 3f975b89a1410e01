// Deterministic discrete-event simulator. Events fire in (time, sequence)
// order; ties break by scheduling order so runs are bit-reproducible.
// Everything in LIDC — link delays, pod startup, job execution, Interest
// timeouts — is an event on one Simulator instance.
//
// Scheduling allocates nothing in the steady state. Each event's callable
// is built in a slot of a pool that grows in fixed-size chunks (so slots
// never move) and recycles freed slots; a callable larger than the slot's
// inline buffer gets one heap block. The queue is a binary heap of small
// (time, seq, slot) entries, and an array records each queued slot's
// position in it, so cancel() removes the entry and destroys the callable
// at once.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace lidc::sim {

/// Handle used to cancel or query a scheduled event. A small value: copies
/// name the same event, by the issuing simulator's serial number, the
/// event's slot and the slot's generation. It stays safe to use after the
/// event fired, after it was cancelled, inside the event's own callback and
/// after its Simulator was destroyed: pending() is then false and cancel()
/// does nothing. Use it on the thread that built its Simulator.
class EventHandle {
 public:
  EventHandle() = default;

  /// Cancels the event if it is still queued: the event leaves the queue
  /// and its callable is destroyed before cancel() returns. Safe to call
  /// repeatedly.
  void cancel() noexcept;

  /// True while the event is queued; false from the moment it starts firing.
  [[nodiscard]] bool pending() const noexcept;

 private:
  friend class Simulator;
  EventHandle(std::uint64_t owner, std::uint32_t slot, std::uint32_t generation) noexcept
      : owner_(owner), slot_(slot), generation_(generation) {}

  std::uint64_t owner_ = 0;  // serial of the issuing Simulator; 0 = no event
  std::uint32_t slot_ = 0;
  std::uint32_t generation_ = 0;
};

namespace detail {

/// Bytes of a callable a slot holds inline. Sized for the common captures
/// (a few pointers, a shared_ptr, a std::function); larger ones fall back
/// to one heap block.
inline constexpr std::size_t kEventInlineBytes = 64;

struct EventSlot;

/// Type-erased operations on the callable stored in a slot.
struct EventOps {
  void (*invoke)(EventSlot&);
  void (*destroy)(EventSlot&) noexcept;
};

struct EventSlot {
  alignas(std::max_align_t) unsigned char storage[kEventInlineBytes];
  const EventOps* ops = nullptr;  // set while the slot holds a callable
  /// Bumped when the event leaves the queue (fires or is cancelled), which
  /// turns every handle to it stale.
  std::uint32_t generation = 0;
  std::uint32_t nextFree = 0;  // while on the free list
};

template <typename Fn>
inline constexpr bool kFitsInline =
    sizeof(Fn) <= kEventInlineBytes && alignof(Fn) <= alignof(std::max_align_t);

template <typename Fn>
Fn& callableIn(EventSlot& slot) noexcept {
  if constexpr (kFitsInline<Fn>) {
    return *std::launder(reinterpret_cast<Fn*>(slot.storage));
  } else {
    return **std::launder(reinterpret_cast<Fn**>(slot.storage));
  }
}

template <typename Fn>
inline constexpr EventOps kEventOps{
    [](EventSlot& slot) { callableIn<Fn>(slot)(); },
    [](EventSlot& slot) noexcept {
      if constexpr (kFitsInline<Fn>) {
        callableIn<Fn>(slot).~Fn();
      } else {
        delete &callableIn<Fn>(slot);
      }
    }};

}  // namespace detail

class Simulator {
 public:
  /// Installs this simulator's clock as the log timestamp source (the
  /// most recently constructed simulator wins; the destructor removes
  /// it again only if still the owner).
  Simulator();
  /// Destroys the callables still queued. Handles to them, and to every
  /// other event of this simulator, go inert first.
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] Time now() const noexcept { return now_; }

  /// Schedules fn (any callable taking no arguments, move-only ones
  /// included) to run at absolute time `at` (clamped to now). The callable
  /// is built in the event's slot and destroyed once it has run or been
  /// cancelled.
  template <typename F>
  EventHandle scheduleAt(Time at, F&& fn);

  /// Schedules fn to run after `delay`.
  template <typename F>
  EventHandle scheduleAfter(Duration delay, F&& fn) {
    return scheduleAt(now_ + delay, std::forward<F>(fn));
  }

  /// Runs events until the queue drains. Returns number of events fired.
  std::size_t run();

  /// Runs events with firing time <= deadline; leaves later events queued.
  /// Advances now() to `deadline` even if the queue drains earlier.
  std::size_t runUntil(Time deadline);

  /// Runs at most `maxEvents` events.
  std::size_t runSteps(std::size_t maxEvents);

  /// Queued events; a cancelled event has already left the queue.
  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t pendingEvents() const noexcept { return heap_.size(); }

 private:
  friend class EventHandle;

  struct Entry {
    Time at;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  /// Slots are allocated this many at a time; a power of two.
  static constexpr std::uint32_t kChunkShift = 8;
  static constexpr std::uint32_t kChunkSlots = 1u << kChunkShift;
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  /// The live simulator with this serial on the calling thread, or null.
  static Simulator* live(std::uint64_t serial) noexcept;

  detail::EventSlot& slotAt(std::uint32_t index) noexcept {
    return chunks_[index >> kChunkShift][index & (kChunkSlots - 1)];
  }
  /// Index of a free slot, growing the pool if none is free. The slot stays
  /// on the free list until enqueue(), so a callable whose construction
  /// throws leaves the simulator unchanged.
  std::uint32_t freeSlot();
  /// Takes the free-list head (which holds a callable) into the queue.
  EventHandle enqueue(Time at, const detail::EventOps& ops) noexcept;
  /// Pops and fires one event; returns false if the queue was empty.
  bool step();
  void cancel(std::uint32_t slot, std::uint32_t generation) noexcept;
  /// Destroys the slot's callable and returns the slot to the free list.
  void release(std::uint32_t index) noexcept;

  static bool before(const Entry& a, const Entry& b) noexcept {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  }
  void place(std::size_t pos, const Entry& entry) noexcept {
    heap_[pos] = entry;
    position_[entry.slot] = static_cast<std::uint32_t>(pos);
  }
  void siftUp(std::size_t pos, Entry entry) noexcept;
  void siftDown(std::size_t pos, Entry entry) noexcept;
  void removeAt(std::size_t pos) noexcept;

  Time now_;
  std::uint64_t next_seq_ = 0;
  const std::uint64_t serial_;
  Simulator* older_ = nullptr;  // next in this thread's live list (see live())
  std::vector<std::unique_ptr<detail::EventSlot[]>> chunks_;
  std::uint32_t free_ = kNoSlot;  // head of the free list
  /// Min-heap on (at, seq). Its capacity covers every slot, so pushing
  /// never reallocates.
  std::vector<Entry> heap_;
  /// Heap index of each queued slot's entry. Kept apart from the slots so
  /// a sift writes a compact array, not one slot per level.
  std::vector<std::uint32_t> position_;
};

template <typename F>
EventHandle Simulator::scheduleAt(Time at, F&& fn) {
  using Fn = std::decay_t<F>;
  static_assert(std::is_invocable_v<Fn&>, "an event is a callable taking no arguments");
  if constexpr (std::is_same_v<Fn, std::function<void()>>) assert(fn);
  if (at < now_) at = now_;
  void* storage = slotAt(freeSlot()).storage;
  if constexpr (detail::kFitsInline<Fn>) {
    ::new (storage) Fn(std::forward<F>(fn));
  } else {
    ::new (storage) Fn*(new Fn(std::forward<F>(fn)));
  }
  return enqueue(at, detail::kEventOps<Fn>);
}

}  // namespace lidc::sim
