// Pending Interest Table. Records which faces asked for which names so
// returning Data retraces the Interest path, and aggregates duplicate
// Interests (the mechanism behind NDN's built-in request collapsing,
// which LIDC's result caching leans on).
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>

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

  /// The Interest never changes after construction: the PIT's key for
  /// this entry is a view into its name.
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
  Interest interest_;
  InRecords in_records_;
  OutRecords out_records_;
};

/// The table itself, keyed by (name, canBePrefix, mustBeFresh).
class Pit {
 public:
  struct InsertResult {
    std::shared_ptr<PitEntry> entry;
    bool isNew = false;
  };
  /// The entries one Data satisfies; rarely more than one.
  using Matches = SmallVector<std::shared_ptr<PitEntry>, 4>;

  /// Finds or creates the entry for this Interest.
  InsertResult insert(const Interest& interest);

  /// Finds the entry for this exact Interest (nullptr if absent).
  [[nodiscard]] std::shared_ptr<PitEntry> find(const Interest& interest) const;

  /// All entries that `data` satisfies (exact name, or prefix when the
  /// Interest allows it): shorter prefixes first; within one prefix,
  /// MustBeFresh false before true, and for the exact name the
  /// CanBePrefix-false entry before the CanBePrefix one.
  [[nodiscard]] Matches findMatches(const Data& data) const;

  void erase(const std::shared_ptr<PitEntry>& entry);

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

 private:
  /// (name, canBePrefix, mustBeFresh), with the name held as a view:
  /// a stored key points into its own entry's Interest name, which the
  /// entry keeps alive and never changes; a probe points into the packet
  /// being matched.
  struct Key {
    NamePrefix name;
    bool canBePrefix;
    bool mustBeFresh;
    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      return k.name.hash() ^ (k.canBePrefix ? 0x9e3779b9U : 0U) ^
             (k.mustBeFresh ? 0x85ebca6bU : 0U);
    }
  };
  static Key makeKey(const Interest& interest) {
    return Key{NamePrefix(interest.name()), interest.canBePrefix(),
               interest.mustBeFresh()};
  }

  std::unordered_map<Key, std::shared_ptr<PitEntry>, KeyHash> entries_;
};

}  // namespace lidc::ndn
