#include "sim/simulator.hpp"

#include <algorithm>
#include <atomic>

#include "common/logging.hpp"

namespace lidc::sim {

namespace {
/// The simulator currently feeding log timestamps; guards against a
/// destroyed simulator leaving a dangling time source behind.
Simulator* g_log_clock_owner = nullptr;
/// Serial numbers are unique across threads, so a handle used on the wrong
/// thread finds no simulator instead of the wrong one.
std::atomic<std::uint64_t> g_next_serial{1};
/// Newest live simulator built on this thread; the rest chain via older_.
thread_local Simulator* t_newest_live = nullptr;
}  // namespace

void EventHandle::cancel() noexcept {
  if (Simulator* sim = Simulator::live(owner_)) sim->cancel(slot_, generation_);
}

bool EventHandle::pending() const noexcept {
  Simulator* sim = Simulator::live(owner_);
  return sim != nullptr && sim->slotAt(slot_).generation == generation_;
}

Simulator::Simulator()
    : serial_(g_next_serial.fetch_add(1, std::memory_order_relaxed)), older_(t_newest_live) {
  t_newest_live = this;
  g_log_clock_owner = this;
  log::setTimeSource([this] { return now().toSeconds(); });
}

Simulator::~Simulator() {
  // Unlink first: handles held by the callables destroyed below (or by
  // anyone else) see a dead simulator and do nothing.
  for (Simulator** link = &t_newest_live; *link != nullptr; link = &(*link)->older_) {
    if (*link == this) {
      *link = older_;
      break;
    }
  }
  // Popping the last entry keeps the heap valid, so a destructor that
  // schedules another event cannot corrupt this loop.
  while (!heap_.empty()) {
    const std::uint32_t index = heap_.back().slot;
    heap_.pop_back();
    release(index);
  }
  if (g_log_clock_owner == this) {
    g_log_clock_owner = nullptr;
    log::setTimeSource(nullptr);
  }
}

Simulator* Simulator::live(std::uint64_t serial) noexcept {
  if (serial == 0) return nullptr;
  for (Simulator* sim = t_newest_live; sim != nullptr; sim = sim->older_) {
    if (sim->serial_ == serial) return sim;
  }
  return nullptr;
}

std::uint32_t Simulator::freeSlot() {
  if (free_ != kNoSlot) return free_;
  const auto first = static_cast<std::uint32_t>(chunks_.size() * kChunkSlots);
  if (heap_.capacity() < first + kChunkSlots) {
    heap_.reserve(std::max<std::size_t>(first + kChunkSlots, 2 * heap_.capacity()));
  }
  position_.resize(first + kChunkSlots);
  chunks_.push_back(std::make_unique<detail::EventSlot[]>(kChunkSlots));
  // Thread the new slots onto the free list in index order.
  for (std::uint32_t i = kChunkSlots; i-- > 0;) {
    slotAt(first + i).nextFree = free_;
    free_ = first + i;
  }
  return free_;
}

EventHandle Simulator::enqueue(Time at, const detail::EventOps& ops) noexcept {
  const std::uint32_t index = free_;
  detail::EventSlot& slot = slotAt(index);
  free_ = slot.nextFree;
  slot.ops = &ops;
  const Entry entry{at, next_seq_++, index};
  heap_.push_back(entry);  // never reallocates: capacity covers every slot
  siftUp(heap_.size() - 1, entry);
  return EventHandle{serial_, index, slot.generation};
}

bool Simulator::step() {
  if (heap_.empty()) return false;
  const Entry top = heap_.front();
  removeAt(0);
  now_ = top.at;
  detail::EventSlot& slot = slotAt(top.slot);
  ++slot.generation;  // handles go stale before the callable runs
  // The callable runs in place (slots never move, even if it schedules
  // more events) and is destroyed afterwards, also if it throws.
  struct Done {
    Simulator& sim;
    std::uint32_t index;
    ~Done() { sim.release(index); }
  } done{*this, top.slot};
  slot.ops->invoke(slot);
  return true;
}

void Simulator::cancel(std::uint32_t index, std::uint32_t generation) noexcept {
  detail::EventSlot& slot = slotAt(index);
  if (slot.generation != generation) return;  // fired, firing or cancelled
  ++slot.generation;
  removeAt(position_[index]);
  release(index);
}

void Simulator::release(std::uint32_t index) noexcept {
  detail::EventSlot& slot = slotAt(index);
  // The slot joins the free list only after the destructor ran, so events
  // the destructor schedules cannot land in it.
  std::exchange(slot.ops, nullptr)->destroy(slot);
  slot.nextFree = free_;
  free_ = index;
}

void Simulator::siftUp(std::size_t pos, Entry entry) noexcept {
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!before(entry, heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, entry);
}

void Simulator::siftDown(std::size_t pos, Entry entry) noexcept {
  const std::size_t size = heap_.size();
  for (std::size_t child = 2 * pos + 1; child < size; child = 2 * pos + 1) {
    if (child + 1 < size && before(heap_[child + 1], heap_[child])) ++child;
    if (!before(heap_[child], entry)) break;
    place(pos, heap_[child]);
    pos = child;
  }
  place(pos, entry);
}

void Simulator::removeAt(std::size_t pos) noexcept {
  const Entry last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;
  if (pos > 0 && before(last, heap_[(pos - 1) / 2])) {
    siftUp(pos, last);
  } else {
    siftDown(pos, last);
  }
}

std::size_t Simulator::run() {
  std::size_t fired = 0;
  while (step()) ++fired;
  return fired;
}

std::size_t Simulator::runUntil(Time deadline) {
  std::size_t fired = 0;
  while (!heap_.empty() && heap_.front().at <= deadline) {
    step();
    ++fired;
  }
  if (now_ < deadline) now_ = deadline;
  return fired;
}

std::size_t Simulator::runSteps(std::size_t maxEvents) {
  std::size_t fired = 0;
  while (fired < maxEvents && step()) ++fired;
  return fired;
}

}  // namespace lidc::sim
