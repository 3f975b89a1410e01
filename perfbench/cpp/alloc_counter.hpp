// Heap-allocation counter for the benchmark binary. alloc_counter.cpp
// replaces the global operator new/delete family; while counting is
// enabled every successful allocation adds to the count and to the
// requested byte total. The benchmark enables it only around the timed
// phase, so set-up and checking are excluded.
#pragma once

#include <cstdint>

namespace perfbench::alloc {

struct Totals {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
};

/// Zeroes the totals and starts counting.
void start() noexcept;
/// Stops counting and returns what was counted since start().
Totals stop() noexcept;

}  // namespace perfbench::alloc
