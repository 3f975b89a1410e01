// Content Store: the forwarder's in-network cache of Data packets with
// LRU eviction and freshness semantics. This is the substrate for
// LIDC's result caching (paper SVII): identical compute requests are
// satisfied from the CS without re-executing the job.
//
// Integrity policy (gray-failure defense): a Data packet that carries a
// signature failing verification is *poisoned* — it is rejected at
// admission and, if one ever got in (e.g. verification was toggled off),
// evicted on lookup instead of served. Unsigned Data is admitted
// unchanged: it carries no integrity information, and end hosts that
// care verify end-to-end.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "ndn/packet.hpp"
#include "sim/time.hpp"

namespace lidc::ndn {

class ContentStore {
 public:
  explicit ContentStore(std::size_t capacity = 4096) : capacity_(capacity) {}

  /// Inserts (or refreshes) a Data packet observed at time `now`.
  /// Poisoned packets (signed but failing verify()) are rejected and
  /// counted while verification is enabled.
  void insert(const Data& data, sim::Time now);

  /// Looks up a match for the Interest. Exact-name match, or the
  /// lexicographically smallest name under the prefix when CanBePrefix.
  /// MustBeFresh requires now < arrival + freshnessPeriod. Entries whose
  /// digest matches the Interest's excludeDigest hint are skipped;
  /// poisoned entries are evicted rather than served. The returned copy
  /// shares the cached payload and its memoized digest.
  [[nodiscard]] std::optional<Data> find(const Interest& interest, sim::Time now);

  void erase(const Name& name);
  void clear();

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  void setCapacity(std::size_t capacity);

  /// Admission-time integrity checking (on by default). Benches turn it
  /// off to measure the undefended baseline.
  void setVerification(bool enabled) noexcept { verify_inserts_ = enabled; }

  /// Chaos hook (kStaleReplay): a buggy cache that keeps serving entries
  /// past their freshness, ignoring MustBeFresh.
  void setServeStale(bool on) noexcept { serve_stale_ = on; }

  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }
  [[nodiscard]] std::uint64_t poisonedRejects() const noexcept {
    return poisoned_rejects_;
  }
  [[nodiscard]] std::uint64_t poisonedEvictions() const noexcept {
    return poisoned_evictions_;
  }

 private:
  static constexpr std::uint32_t kNone = UINT32_MAX;

  /// One cached packet. Slots are reused: a refresh, or an insert into a
  /// full store, copy-assigns into an existing slot and so reuses its
  /// name buffer. `newer`/`older` thread the LRU list through the slots.
  struct Slot {
    Data data;
    sim::Time arrival;
    std::uint32_t newer = kNone;
    std::uint32_t older = kNone;
  };

  /// The slot cached under `name`, or kNone.
  [[nodiscard]] std::uint32_t lookup(const Name& name) const noexcept;
  /// Stores `data` in a free slot, indexed and most recently used.
  void add(const Data& data, sim::Time now);
  /// Unindexes and unlinks a slot, drops its payload and frees it.
  void remove(std::uint32_t slot);
  void index(std::uint32_t slot);
  void unindex(std::uint32_t slot) noexcept;
  void linkNewest(std::uint32_t slot) noexcept;
  void unlink(std::uint32_t slot) noexcept;
  void touch(std::uint32_t slot) noexcept;
  void evictIfNeeded();
  /// The best usable entry under a CanBePrefix Interest's name.
  [[nodiscard]] std::optional<Data> findUnderPrefix(const Interest& interest,
                                                    sim::Time now);

  [[nodiscard]] bool usable(const Slot& slot, const Interest& interest,
                            sim::Time now) const;

  std::size_t capacity_;
  std::size_t size_ = 0;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  /// Open addressing with linear probing over Name::hash(): each cell
  /// holds a slot index or kNone. At most half full.
  std::vector<std::uint32_t> table_;
  std::uint32_t newest_ = kNone;
  std::uint32_t oldest_ = kNone;
  bool verify_inserts_ = true;
  bool serve_stale_ = false;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t poisoned_rejects_ = 0;
  std::uint64_t poisoned_evictions_ = 0;
};

}  // namespace lidc::ndn
