#include "ndn/pit.hpp"

#include <gtest/gtest.h>

namespace lidc::ndn {
namespace {

Interest makeInterest(const std::string& uri, std::uint32_t nonce = 1,
                      bool canBePrefix = false) {
  Interest interest((Name(uri)));
  interest.setNonce(nonce);
  interest.setCanBePrefix(canBePrefix);
  return interest;
}

TEST(PitTest, InsertCreatesThenFinds) {
  Pit pit;
  auto [entry, isNew] = pit.insert(makeInterest("/a/b"));
  EXPECT_TRUE(isNew);
  ASSERT_NE(entry, nullptr);
  auto [again, isNewAgain] = pit.insert(makeInterest("/a/b", 2));
  EXPECT_FALSE(isNewAgain);
  EXPECT_EQ(entry, again);
  EXPECT_EQ(pit.size(), 1u);
}

TEST(PitTest, DifferentSelectorsAreDifferentEntries) {
  Pit pit;
  pit.insert(makeInterest("/a", 1, false));
  pit.insert(makeInterest("/a", 1, true));
  Interest fresh = makeInterest("/a", 1, false);
  fresh.setMustBeFresh(true);
  pit.insert(fresh);
  EXPECT_EQ(pit.size(), 3u);
}

TEST(PitTest, InRecordRefreshesPerFace) {
  PitEntry entry(makeInterest("/a"));
  entry.insertInRecord(1, 100, sim::Time::fromNanos(10));
  entry.insertInRecord(1, 200, sim::Time::fromNanos(20));
  entry.insertInRecord(2, 300, sim::Time::fromNanos(30));
  ASSERT_EQ(entry.inRecords().size(), 2u);
  EXPECT_EQ(entry.inRecords()[0].nonce, 200u);
}

TEST(PitTest, DuplicateNonceDetectedAcrossFaces) {
  PitEntry entry(makeInterest("/a"));
  entry.insertInRecord(1, 42, sim::Time::fromNanos(0));
  EXPECT_TRUE(entry.isDuplicateNonce(42, 2));   // same nonce, other face
  EXPECT_FALSE(entry.isDuplicateNonce(42, 1));  // same face: retransmission
  EXPECT_FALSE(entry.isDuplicateNonce(43, 2));
}

TEST(PitTest, OutRecordLifecycle) {
  PitEntry entry(makeInterest("/a"));
  EXPECT_FALSE(entry.hasOutRecords());
  entry.insertOutRecord(5, 1, sim::Time::fromNanos(100));
  EXPECT_TRUE(entry.hasOutRecords());
  auto* record = entry.findOutRecord(5);
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->lastSent.toNanos(), 100);
  EXPECT_EQ(entry.findOutRecord(6), nullptr);
}

TEST(PitTest, AllUpstreamsNacked) {
  PitEntry entry(makeInterest("/a"));
  EXPECT_FALSE(entry.allUpstreamsNacked());  // vacuous case is false
  entry.insertOutRecord(1, 1, sim::Time());
  entry.insertOutRecord(2, 1, sim::Time());
  entry.findOutRecord(1)->nacked = true;
  EXPECT_FALSE(entry.allUpstreamsNacked());
  entry.findOutRecord(2)->nacked = true;
  EXPECT_TRUE(entry.allUpstreamsNacked());
  // Re-sending on a nacked face clears the flag.
  entry.insertOutRecord(1, 2, sim::Time());
  EXPECT_FALSE(entry.allUpstreamsNacked());
}

TEST(PitTest, FindMatchesExactName) {
  Pit pit;
  pit.insert(makeInterest("/a/b"));
  Data data(Name("/a/b"));
  EXPECT_EQ(pit.findMatches(data).size(), 1u);
  Data other(Name("/a/c"));
  EXPECT_TRUE(pit.findMatches(other).empty());
}

TEST(PitTest, FindMatchesPrefixOnlyWhenCanBePrefix) {
  Pit pit;
  pit.insert(makeInterest("/a", 1, /*canBePrefix=*/true));
  pit.insert(makeInterest("/a", 2, /*canBePrefix=*/false));
  Data deeper(Name("/a/b/c"));
  // Only the CanBePrefix entry matches deeper names.
  EXPECT_EQ(pit.findMatches(deeper).size(), 1u);
  Data exact(Name("/a"));
  EXPECT_EQ(pit.findMatches(exact).size(), 2u);
}

TEST(PitTest, EraseRemovesEntry) {
  Pit pit;
  auto [entry, isNew] = pit.insert(makeInterest("/a"));
  pit.erase(entry);
  EXPECT_EQ(pit.size(), 0u);
  EXPECT_EQ(pit.find(makeInterest("/a")), nullptr);
  pit.erase(nullptr);  // harmless
}

TEST(PitTest, EraseWhileHeldKeepsTheEntryReadableUntilReleased) {
  Pit pit;
  {
    const Pit::Hold hold(pit);
    PitEntry* entry = pit.insert(makeInterest("/a/b", 7)).entry;
    entry->insertInRecord(1, 7, sim::Time());
    pit.erase(entry);
    EXPECT_EQ(pit.size(), 0u);
    EXPECT_EQ(pit.find(makeInterest("/a/b")), nullptr);
    // Unindexed, but its Interest and records are intact.
    EXPECT_EQ(entry->name(), Name("/a/b"));
    EXPECT_EQ(entry->interest().nonce(), 7u);
    EXPECT_EQ(entry->inRecords().size(), 1u);

    // The same Interest again makes a new entry in another slot.
    auto [again, isNew] = pit.insert(makeInterest("/a/b", 7));
    EXPECT_TRUE(isNew);
    EXPECT_NE(again, entry);
    EXPECT_EQ(pit.size(), 1u);
    // Erasing through the stale entry removes the one now under its key.
    pit.erase(entry);
    EXPECT_EQ(pit.size(), 0u);
    EXPECT_EQ(entry->name(), Name("/a/b"));
  }
  EXPECT_EQ(pit.size(), 0u);

  // Without a hold the slot is free at once: the next insert reuses it.
  PitEntry* first = pit.insert(makeInterest("/c")).entry;
  pit.erase(first);
  EXPECT_EQ(pit.size(), 0u);
  PitEntry* next = pit.insert(makeInterest("/d")).entry;
  EXPECT_EQ(next, first);
  EXPECT_EQ(next->name(), Name("/d"));
  EXPECT_TRUE(next->inRecords().empty());
}

TEST(PitTest, DeleteInRecord) {
  PitEntry entry(makeInterest("/a"));
  entry.insertInRecord(1, 1, sim::Time());
  entry.insertInRecord(2, 2, sim::Time());
  entry.deleteInRecord(1);
  ASSERT_EQ(entry.inRecords().size(), 1u);
  EXPECT_EQ(entry.inRecords()[0].face, 2u);
}

}  // namespace
}  // namespace lidc::ndn
