// Copy-free table lookups agree with brute force. The FIB and the PIT
// probe every prefix of a name by view and hash; these seeded sweeps
// check the answers against linear scans with isPrefixOf, including the
// order of Pit::findMatches, which decides the order Data is sent
// downstream and so the simulated event sequence.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "ndn/fib.hpp"
#include "ndn/pit.hpp"

namespace lidc::ndn {
namespace {

/// Names over a three-letter alphabet, so prefixes collide often.
Name randomName(Rng& rng, std::size_t maxComponents) {
  static constexpr const char* kLetters[] = {"a", "b", "c"};
  Name name;
  const std::size_t count = rng.uniform(maxComponents + 1);
  for (std::size_t i = 0; i < count; ++i) name.append(kLetters[rng.uniform(3)]);
  return name;
}

class LookupProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LookupProperty, FibLongestPrefixMatchIsTheLongestRegisteredPrefix) {
  Rng rng(GetParam());
  Fib fib;
  // Reference: registered prefix -> faces still on it.
  std::map<Name, std::vector<FaceId>> registered;
  for (FaceId face = 1; face <= 40; ++face) {
    const Name prefix = randomName(rng, 4);
    fib.insert(prefix, face, rng.uniform(100));
    registered[prefix].push_back(face);
  }
  // Withdraw some next hops; an entry with none left is dropped.
  for (int i = 0; i < 15; ++i) {
    auto it = std::next(registered.begin(),
                        static_cast<long>(rng.uniform(registered.size())));
    fib.removeNextHop(it->first, it->second.back());
    it->second.pop_back();
    if (it->second.empty()) registered.erase(it);
  }
  for (int trial = 0; trial < 300; ++trial) {
    const Name name = randomName(rng, 6);
    const Name* longest = nullptr;
    for (const auto& [prefix, faces] : registered) {
      if (prefix.isPrefixOf(name) && (longest == nullptr || prefix.size() > longest->size())) {
        longest = &prefix;
      }
    }
    const FibEntry* match = fib.longestPrefixMatch(name);
    if (longest == nullptr) {
      EXPECT_EQ(match, nullptr) << name;
    } else {
      ASSERT_NE(match, nullptr) << name;
      EXPECT_EQ(match->prefix(), *longest) << name;
    }
  }
}

TEST_P(LookupProperty, PitFindMatchesIsTheBruteForceSetInOrder) {
  Rng rng(GetParam() ^ 0x9172);
  for (int round = 0; round < 20; ++round) {
    Pit pit;
    std::vector<Interest> pending;
    for (int i = 0; i < 30; ++i) {
      Interest interest(randomName(rng, 4));
      interest.setCanBePrefix(rng.bernoulli(0.5)).setMustBeFresh(rng.bernoulli(0.5));
      if (pit.insert(interest).isNew) pending.push_back(interest);
    }
    // Erase a few, through entries found by a fresh copy of the Interest.
    for (int i = 0; i < 5 && !pending.empty(); ++i) {
      const std::size_t victim = rng.uniform(pending.size());
      const Interest copy = pending[victim];
      pit.erase(pit.find(copy));
      pending.erase(pending.begin() + static_cast<long>(victim));
    }
    ASSERT_EQ(pit.size(), pending.size());
    for (const Interest& interest : pending) {
      auto entry = pit.find(interest);
      ASSERT_NE(entry, nullptr);
      EXPECT_EQ(entry->name(), interest.name());
    }

    for (int trial = 0; trial < 30; ++trial) {
      const Data data(randomName(rng, 5));
      // Brute force: every pending Interest the Data satisfies, ordered
      // by prefix length, then MustBeFresh, then CanBePrefix.
      std::vector<const Interest*> expected;
      for (const Interest& interest : pending) {
        const bool satisfies = interest.canBePrefix()
                                   ? interest.name().isPrefixOf(data.name())
                                   : interest.name() == data.name();
        if (satisfies) expected.push_back(&interest);
      }
      std::sort(expected.begin(), expected.end(), [](const Interest* a, const Interest* b) {
        return std::tuple(a->name().size(), a->mustBeFresh(), a->canBePrefix()) <
               std::tuple(b->name().size(), b->mustBeFresh(), b->canBePrefix());
      });
      const auto matches = pit.findMatches(data);
      ASSERT_EQ(matches.size(), expected.size()) << data.name();
      for (std::size_t i = 0; i < matches.size(); ++i) {
        const Interest& got = matches[i]->interest();
        EXPECT_EQ(got.name(), expected[i]->name()) << data.name() << " #" << i;
        EXPECT_EQ(got.canBePrefix(), expected[i]->canBePrefix()) << data.name() << " #" << i;
        EXPECT_EQ(got.mustBeFresh(), expected[i]->mustBeFresh()) << data.name() << " #" << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LookupProperty,
                         ::testing::Values(1, 42, 2024, 0xDEADBEEF, 77777));

}  // namespace
}  // namespace lidc::ndn
