// A vector that keeps its first N elements inside the object, so short
// lists (a PIT entry's in- and out-records, the PIT matches of one Data,
// a strategy's viable next hops) cost no heap block. Past N it moves
// everything to a heap buffer and grows like std::vector. Contiguous, so
// iterators are plain pointers.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace lidc {

template <typename T, std::size_t N>
class SmallVector {
  static_assert(N > 0);

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  SmallVector() noexcept = default;
  SmallVector(const SmallVector& other) {
    for (const T& value : other) emplace_back(value);
  }
  SmallVector(SmallVector&& other) noexcept(std::is_nothrow_move_constructible_v<T>) {
    takeFrom(other);
  }
  SmallVector& operator=(const SmallVector& other) {
    if (this != &other) {
      clear();
      for (const T& value : other) emplace_back(value);
    }
    return *this;
  }
  SmallVector& operator=(SmallVector&& other) noexcept(
      std::is_nothrow_move_constructible_v<T>) {
    if (this != &other) {
      clear();
      freeHeap();
      takeFrom(other);
    }
    return *this;
  }
  ~SmallVector() {
    clear();
    freeHeap();
  }

  [[nodiscard]] T* data() noexcept {
    return heap_ != nullptr ? heap_ : std::launder(reinterpret_cast<T*>(inline_));
  }
  [[nodiscard]] const T* data() const noexcept {
    return heap_ != nullptr ? heap_
                            : std::launder(reinterpret_cast<const T*>(inline_));
  }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  [[nodiscard]] iterator begin() noexcept { return data(); }
  [[nodiscard]] iterator end() noexcept { return data() + size_; }
  [[nodiscard]] const_iterator begin() const noexcept { return data(); }
  [[nodiscard]] const_iterator end() const noexcept { return data() + size_; }

  [[nodiscard]] T& operator[](std::size_t i) noexcept { return data()[i]; }
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept { return data()[i]; }
  [[nodiscard]] T& front() noexcept { return data()[0]; }
  [[nodiscard]] const T& front() const noexcept { return data()[0]; }
  [[nodiscard]] T& back() noexcept { return data()[size_ - 1]; }
  [[nodiscard]] const T& back() const noexcept { return data()[size_ - 1]; }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == capacity_) return growAndEmplace(std::forward<Args>(args)...);
    T* slot = std::construct_at(data() + size_, std::forward<Args>(args)...);
    ++size_;
    return *slot;
  }
  void push_back(const T& value) { emplace_back(value); }
  void push_back(T&& value) { emplace_back(std::move(value)); }

  void clear() noexcept {
    std::destroy(begin(), end());
    size_ = 0;
  }

  /// Removes every element `pred` accepts, keeping the others in order.
  template <typename Pred>
  friend std::size_t erase_if(SmallVector& v, Pred pred) {
    T* kept = v.begin();
    for (T& value : v) {
      if (pred(value)) continue;
      if (&value != kept) *kept = std::move(value);
      ++kept;
    }
    const std::size_t removed = static_cast<std::size_t>(v.end() - kept);
    std::destroy(kept, v.end());
    v.size_ -= removed;
    return removed;
  }

 private:
  /// The new element is built in the new buffer before the old ones
  /// move, so an argument that refers into this vector stays valid.
  template <typename... Args>
  T& growAndEmplace(Args&&... args) {
    const std::size_t capacity = capacity_ * 2;
    T* buffer = std::allocator<T>().allocate(capacity);
    T* slot = std::construct_at(buffer + size_, std::forward<Args>(args)...);
    std::uninitialized_move(begin(), end(), buffer);
    std::destroy(begin(), end());
    freeHeap();
    heap_ = buffer;
    capacity_ = capacity;
    ++size_;
    return *slot;
  }
  void freeHeap() noexcept {
    if (heap_ != nullptr) std::allocator<T>().deallocate(heap_, capacity_);
    heap_ = nullptr;
    capacity_ = N;
  }
  /// Leaves `other` empty; this must be empty and inline.
  void takeFrom(SmallVector& other) noexcept(std::is_nothrow_move_constructible_v<T>) {
    if (other.heap_ != nullptr) {
      heap_ = std::exchange(other.heap_, nullptr);
      capacity_ = std::exchange(other.capacity_, N);
      size_ = std::exchange(other.size_, 0);
      return;
    }
    std::uninitialized_move(other.begin(), other.end(), begin());
    size_ = other.size_;
    other.clear();
  }

  alignas(T) std::byte inline_[N * sizeof(T)];
  T* heap_ = nullptr;
  std::size_t size_ = 0;
  std::size_t capacity_ = N;
};

}  // namespace lidc
