// Pending Interest Table. Records which faces asked for which names so
// returning Data retraces the Interest path, and aggregates duplicate
// Interests (the mechanism behind NDN's built-in request collapsing,
// which LIDC's result caching leans on).
#pragma once

#include <cstdint>
#include <vector>

#include "common/open_index.hpp"
#include "common/slot_pool.hpp"
#include "common/small_vector.hpp"
#include "ndn/face.hpp"
#include "ndn/packet.hpp"
#include "sim/simulator.hpp"

namespace lidc::ndn {

struct InRecord {
  FaceId face = kInvalidFaceId;
  std::uint32_t nonce = 0;
  sim::Time expiry;
};

struct OutRecord {
  FaceId face = kInvalidFaceId;
  std::uint32_t nonce = 0;
  sim::Time lastSent;
  bool nacked = false;
  NackReason nackReason = NackReason::kNone;
};

class PitEntry {
 public:
  /// Room for two records inline: an entry is usually asked for by one
  /// downstream and forwarded to one upstream.
  using InRecords = SmallVector<InRecord, 2>;
  using OutRecords = SmallVector<OutRecord, 2>;

  PitEntry() = default;
  /// The Interest never changes while the entry is in a Pit: the table's
  /// key for this entry is its name and selectors.
  explicit PitEntry(Interest interest) : interest_(std::move(interest)) {}

  [[nodiscard]] const Interest& interest() const noexcept { return interest_; }
  [[nodiscard]] const Name& name() const noexcept { return interest_.name(); }

  [[nodiscard]] InRecords& inRecords() noexcept { return in_records_; }
  [[nodiscard]] const InRecords& inRecords() const noexcept { return in_records_; }
  [[nodiscard]] OutRecords& outRecords() noexcept { return out_records_; }
  [[nodiscard]] const OutRecords& outRecords() const noexcept { return out_records_; }

  /// Adds or refreshes the in-record for a downstream face.
  void insertInRecord(FaceId face, std::uint32_t nonce, sim::Time expiry);
  /// Adds or refreshes the out-record for an upstream face.
  void insertOutRecord(FaceId face, std::uint32_t nonce, sim::Time sentAt);
  [[nodiscard]] OutRecord* findOutRecord(FaceId face) noexcept;
  void deleteInRecord(FaceId face);

  /// Loop detection: has this nonce been seen on a *different* face?
  [[nodiscard]] bool isDuplicateNonce(std::uint32_t nonce, FaceId face) const noexcept;

  /// True once the Interest has been forwarded upstream at least once.
  [[nodiscard]] bool hasOutRecords() const noexcept { return !out_records_.empty(); }

  /// True when every out-record has been nacked (no viable upstream left).
  [[nodiscard]] bool allUpstreamsNacked() const noexcept;

  sim::EventHandle expiryTimer;
  /// Retransmission attempts made by the strategy for this entry.
  int retxCount = 0;

 private:
  friend class Pit;

  Interest interest_;
  InRecords in_records_;
  OutRecords out_records_;
};

/// The table itself, keyed by (name, canBePrefix, mustBeFresh). Entries
/// live in pooled slots that never move, in an OpenIndex on the memoized
/// Name::hash().
class Pit {
 public:
  struct InsertResult {
    PitEntry* entry = nullptr;
    bool isNew = false;
  };
  /// The entries one Data satisfies; rarely more than one.
  using Matches = SmallVector<PitEntry*, 4>;

  /// While any Hold on a Pit is alive, erase() unindexes an entry at once
  /// but keeps its storage intact until the last Hold ends. A caller that
  /// holds a PitEntry& across code that may erase it (a pipeline whose
  /// Data reaches an app that answers or re-expresses synchronously)
  /// takes one. Without a Hold, erase() frees the entry at once.
  class Hold {
   public:
    explicit Hold(Pit& pit) noexcept : pit_(pit) { ++pit_.holds_; }
    ~Hold() {
      if (--pit_.holds_ == 0) pit_.reclaimParked();
    }
    Hold(const Hold&) = delete;
    Hold& operator=(const Hold&) = delete;

   private:
    Pit& pit_;
  };

  Pit() = default;
  /// Cancels the expiry timers of the entries still indexed.
  ~Pit();
  Pit(const Pit&) = delete;
  Pit& operator=(const Pit&) = delete;

  /// Finds or creates the entry for this Interest.
  InsertResult insert(const Interest& interest);

  /// Finds the entry for this exact Interest (nullptr if absent).
  [[nodiscard]] PitEntry* find(const Interest& interest) const;

  /// All entries that `data` satisfies (exact name, or prefix when the
  /// Interest allows it): shorter prefixes first; within one prefix,
  /// MustBeFresh false before true, and for the exact name the
  /// CanBePrefix-false entry before the CanBePrefix one.
  [[nodiscard]] Matches findMatches(const Data& data) const;

  /// Erases the entry indexed under `entry`'s key and cancels its expiry
  /// timer. That is `entry` itself, unless `entry` was already erased and
  /// an entry with the same key was inserted since; with none indexed (or
  /// a null `entry`) nothing happens.
  void erase(PitEntry* entry);

  [[nodiscard]] std::size_t size() const noexcept { return index_.size(); }

 private:
  /// The key hash: the name's hash with one constant per selector.
  static std::size_t keyHash(std::size_t nameHash, bool canBePrefix,
                             bool mustBeFresh) noexcept {
    return nameHash ^ (canBePrefix ? 0x9e3779b9U : 0U) ^ (mustBeFresh ? 0x85ebca6bU : 0U);
  }
  struct KeyHash {
    std::size_t operator()(const PitEntry& entry) const noexcept {
      const Interest& interest = entry.interest_;
      return keyHash(interest.name().hash(), interest.canBePrefix(), interest.mustBeFresh());
    }
  };
  [[nodiscard]] PitEntry* lookup(const NamePrefix& name, bool canBePrefix,
                                 bool mustBeFresh) const;
  /// Returns an unindexed entry's slot to the pool.
  void release(PitEntry* entry);
  void reclaimParked();

  SlotPool<PitEntry, 8> pool_;
  OpenIndex<PitEntry, KeyHash> index_;
  /// Indexed entries with CanBePrefix set. While there are none,
  /// findMatches probes only the exact name.
  std::size_t prefix_entries_ = 0;
  unsigned holds_ = 0;
  /// Erased during a Hold: unindexed, storage kept until the Hold ends.
  std::vector<PitEntry*> parked_;
};

}  // namespace lidc::ndn
