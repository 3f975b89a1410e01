// Copy-free table lookups agree with brute force. The FIB probes prefixes
// by view and hash only at the lengths that hold an entry, and the PIT
// probes them only while it holds a CanBePrefix entry; these seeded
// sweeps check the answers against linear scans with isPrefixOf, as
// entries come and go, including the order of
// Pit::findMatches, which decides the order Data is sent downstream and
// so the simulated event sequence. The Content Store and
// the Dead Nonce List are checked against plain reference models: every
// answer and every counter must agree.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "ndn/cs.hpp"
#include "ndn/dead_nonce_list.hpp"
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

/// The longest registered prefix of `name` by a scan, or null.
const Name* bruteForceLongest(const std::map<Name, std::vector<FaceId>>& registered,
                              const Name& name) {
  const Name* longest = nullptr;
  for (const auto& [prefix, faces] : registered) {
    if (prefix.isPrefixOf(name) && (longest == nullptr || prefix.size() > longest->size())) {
      longest = &prefix;
    }
  }
  return longest;
}

/// Checks `trials` random names against the scan.
void expectLongestPrefixMatches(const Fib& fib,
                                const std::map<Name, std::vector<FaceId>>& registered,
                                Rng& rng, int trials) {
  for (int trial = 0; trial < trials; ++trial) {
    const Name name = randomName(rng, 6);
    const Name* longest = bruteForceLongest(registered, name);
    const FibEntry* match = fib.longestPrefixMatch(name);
    if (longest == nullptr) {
      EXPECT_EQ(match, nullptr) << name;
    } else {
      ASSERT_NE(match, nullptr) << name;
      EXPECT_EQ(match->prefix(), *longest) << name;
    }
  }
}

/// findMatches returns every pending Interest the Data satisfies, ordered
/// by prefix length, then MustBeFresh, then CanBePrefix.
void expectMatchesBruteForce(const Pit& pit, const std::vector<Interest>& pending,
                             const Data& data) {
  std::vector<const Interest*> expected;
  for (const Interest& interest : pending) {
    const bool satisfies = interest.canBePrefix() ? interest.name().isPrefixOf(data.name())
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
  expectLongestPrefixMatches(fib, registered, rng, 300);
}

TEST_P(LookupProperty, FibLongestPrefixMatchHoldsAsFacesGoAway) {
  Rng rng(GetParam() ^ 0xf1b);
  Fib fib;
  std::map<Name, std::vector<FaceId>> registered;
  const auto withdraw = [&registered](const Name& prefix, FaceId face) {
    auto it = registered.find(prefix);
    if (it == registered.end()) return;
    std::erase(it->second, face);
    if (it->second.empty()) registered.erase(it);
  };
  for (int round = 0; round < 6; ++round) {
    // Few faces, so taking one away empties many entries and lengths.
    for (int i = 0; i < 30; ++i) {
      const Name prefix = randomName(rng, 5);
      const auto face = static_cast<FaceId>(1 + rng.uniform(5));
      fib.insert(prefix, face, rng.uniform(100));
      auto& faces = registered[prefix];
      if (std::find(faces.begin(), faces.end(), face) == faces.end()) faces.push_back(face);
    }
    expectLongestPrefixMatches(fib, registered, rng, 200);
    for (int i = 0; i < 10 && !registered.empty(); ++i) {
      auto it = std::next(registered.begin(),
                          static_cast<long>(rng.uniform(registered.size())));
      const Name prefix = it->first;
      const FaceId face = it->second[rng.uniform(it->second.size())];
      fib.removeNextHop(prefix, face);
      withdraw(prefix, face);
    }
    expectLongestPrefixMatches(fib, registered, rng, 200);
    const auto face = static_cast<FaceId>(1 + rng.uniform(5));
    fib.removeFaceFromAll(face);
    for (auto it = registered.begin(); it != registered.end();) {
      std::erase(it->second, face);
      it = it->second.empty() ? registered.erase(it) : std::next(it);
    }
    ASSERT_EQ(fib.size(), registered.size());
    expectLongestPrefixMatches(fib, registered, rng, 200);
  }
  // With every face gone, nothing matches at any length.
  for (FaceId face = 1; face <= 5; ++face) fib.removeFaceFromAll(face);
  registered.clear();
  EXPECT_EQ(fib.size(), 0u);
  expectLongestPrefixMatches(fib, registered, rng, 200);
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
      expectMatchesBruteForce(pit, pending, Data(randomName(rng, 5)));
    }
  }
}

TEST_P(LookupProperty, PitFindMatchesWithoutCanBePrefixEntries) {
  // What every workload does: no entry sets CanBePrefix, so only the
  // exact name is probed.
  Rng rng(GetParam() ^ 0xe4ac7);
  Pit pit;
  std::vector<Interest> pending;
  for (int op = 0; op < 600; ++op) {
    if (pending.empty() || rng.uniform(3) != 0) {
      Interest interest(randomName(rng, 4));
      interest.setMustBeFresh(rng.bernoulli(0.5));
      if (pit.insert(interest).isNew) pending.push_back(interest);
    } else {
      const std::size_t victim = rng.uniform(pending.size());
      pit.erase(pit.find(pending[victim]));
      pending.erase(pending.begin() + static_cast<long>(victim));
    }
    ASSERT_EQ(pit.size(), pending.size());
    expectMatchesBruteForce(pit, pending, Data(randomName(rng, 5)));
  }
}

TEST_P(LookupProperty, PitFindMatchesAsCanBePrefixEntriesComeAndGo) {
  Rng rng(GetParam() ^ 0xcb9);
  Pit pit;
  std::vector<Interest> pending;
  const auto eraseWhere = [&](auto&& pick) {
    for (std::size_t i = pending.size(); i-- > 0;) {
      if (!pick(pending[i])) continue;
      pit.erase(pit.find(pending[i]));
      pending.erase(pending.begin() + static_cast<long>(i));
    }
  };
  for (int phase = 0; phase < 8; ++phase) {
    // Each phase puts CanBePrefix entries at a few lengths...
    for (int i = 0; i < 25; ++i) {
      Interest interest(randomName(rng, 4));
      interest.setCanBePrefix(rng.bernoulli(0.5)).setMustBeFresh(rng.bernoulli(0.5));
      if (pit.insert(interest).isNew) pending.push_back(interest);
    }
    for (int trial = 0; trial < 30; ++trial) {
      expectMatchesBruteForce(pit, pending, Data(randomName(rng, 5)));
    }
    // ...then takes some away at random, and every other phase all of
    // them, so the count of CanBePrefix entries falls back to zero.
    eraseWhere([&rng](const Interest& interest) {
      return interest.canBePrefix() && rng.bernoulli(0.5);
    });
    if (phase % 2 == 1) {
      eraseWhere([](const Interest& interest) { return interest.canBePrefix(); });
    }
    ASSERT_EQ(pit.size(), pending.size());
    for (int trial = 0; trial < 30; ++trial) {
      expectMatchesBruteForce(pit, pending, Data(randomName(rng, 5)));
    }
  }
}

/// The Content Store as a sorted list of entries, each stamped with its
/// last use; the least recently used is the smallest stamp.
class ReferenceCs {
 public:
  struct Entry {
    Data data;
    sim::Time arrival;
    std::uint64_t lastUse;
  };

  void insert(const Data& data, sim::Time now) {
    if (capacity == 0) return;
    if (verify && poisoned(data)) {
      ++poisonedRejects;
      return;
    }
    auto it = findExact(data.name());
    if (it != entries_.end()) {
      *it = Entry{data, now, ++clock_};
    } else {
      entries_.push_back(Entry{data, now, ++clock_});
      std::sort(entries_.begin(), entries_.end(), [](const Entry& a, const Entry& b) {
        return a.data.name() < b.data.name();
      });
    }
    evict();
  }

  std::optional<Data> find(const Interest& interest, sim::Time now) {
    std::vector<Name> candidates;  // in canonical order
    for (const Entry& entry : entries_) {
      const bool under = interest.canBePrefix()
                             ? interest.name().isPrefixOf(entry.data.name())
                             : interest.name() == entry.data.name();
      if (under) candidates.push_back(entry.data.name());
    }
    for (const Name& name : candidates) {
      auto it = findExact(name);
      if (poisoned(it->data)) {
        ++poisonedEvictions;
        entries_.erase(it);
        continue;
      }
      const bool fresh = !interest.mustBeFresh() || serveStale ||
                         (it->data.freshnessPeriod() != sim::Duration() &&
                          now < it->arrival + it->data.freshnessPeriod());
      const bool excluded = interest.excludeDigest().has_value() &&
                            *interest.excludeDigest() == it->data.contentDigest();
      if (fresh && !excluded) {
        it->lastUse = ++clock_;
        ++hits;
        return it->data;
      }
    }
    ++misses;
    return std::nullopt;
  }

  void erase(const Name& name) {
    if (auto it = findExact(name); it != entries_.end()) entries_.erase(it);
  }
  void clear() { entries_.clear(); }
  void setCapacity(std::size_t c) {
    capacity = c;
    evict();
  }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }

  std::size_t capacity = 0;
  bool verify = true;
  bool serveStale = false;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t poisonedRejects = 0;
  std::uint64_t poisonedEvictions = 0;

 private:
  static bool poisoned(const Data& data) {
    return data.hasSignature() && !data.verify();
  }
  std::vector<Entry>::iterator findExact(const Name& name) {
    return std::find_if(entries_.begin(), entries_.end(),
                        [&name](const Entry& e) { return e.data.name() == name; });
  }
  void evict() {
    while (entries_.size() > capacity) {
      entries_.erase(std::min_element(
          entries_.begin(), entries_.end(),
          [](const Entry& a, const Entry& b) { return a.lastUse < b.lastUse; }));
    }
  }

  std::vector<Entry> entries_;
  std::uint64_t clock_ = 0;
};

TEST_P(LookupProperty, ContentStoreAgreesWithAReferenceModel) {
  Rng rng(GetParam() ^ 0xc5c5);
  const std::size_t capacity = 1 + rng.uniform(12);
  ContentStore cs(capacity);
  ReferenceCs ref;
  ref.capacity = capacity;
  sim::Time now;
  std::uint64_t version = 0;  // makes each inserted payload distinct
  for (int op = 0; op < 4000; ++op) {
    now = now + sim::Duration::millis(static_cast<std::int64_t>(rng.uniform(400)));
    const std::uint64_t kind = rng.uniform(100);
    if (kind < 45) {
      Data data(randomName(rng, 3));
      data.setContent("v" + std::to_string(++version));
      constexpr std::int64_t kFreshnessMs[] = {0, 500, 2000, 10000};
      data.setFreshnessPeriod(sim::Duration::millis(kFreshnessMs[rng.uniform(4)]));
      if (rng.uniform(10) != 0) data.sign();  // some stay unsigned
      if (data.hasSignature() && rng.uniform(6) == 0) {
        // Poisoned: the payload no longer matches its signature.
        auto bytes = data.content();
        bytes[0] ^= 0x01;
        data.setContent(std::move(bytes));
      }
      cs.insert(data, now);
      ref.insert(data, now);
    } else if (kind < 90) {
      Interest interest(randomName(rng, 3));
      interest.setCanBePrefix(rng.bernoulli(0.5)).setMustBeFresh(rng.bernoulli(0.5));
      if (rng.uniform(4) == 0 && ref.size() > 0) {
        const Data& victim = ref.entries()[rng.uniform(ref.size())].data;
        interest.setExcludeDigest(victim.contentDigest());
      }
      const std::optional<Data> got = cs.find(interest, now);
      const std::optional<Data> want = ref.find(interest, now);
      ASSERT_EQ(got.has_value(), want.has_value())
          << "op " << op << " " << interest.name();
      if (want) {
        EXPECT_EQ(got->name(), want->name()) << "op " << op;
        EXPECT_EQ(got->content(), want->content()) << "op " << op;
      }
    } else if (kind < 94) {
      const Name name = randomName(rng, 3);
      cs.erase(name);
      ref.erase(name);
    } else if (kind < 97) {
      const std::size_t c = rng.uniform(13);
      cs.setCapacity(c);
      ref.setCapacity(c);
    } else if (kind < 98) {
      cs.clear();
      ref.clear();
    } else {
      // Let poisoned entries in for a while, or replay stale ones.
      if (rng.bernoulli(0.5)) {
        ref.verify = !ref.verify;
        cs.setVerification(ref.verify);
      } else {
        ref.serveStale = !ref.serveStale;
        cs.setServeStale(ref.serveStale);
      }
    }
    ASSERT_EQ(cs.size(), ref.size()) << "op " << op;
    ASSERT_EQ(cs.hits(), ref.hits) << "op " << op;
    ASSERT_EQ(cs.misses(), ref.misses) << "op " << op;
    ASSERT_EQ(cs.poisonedRejects(), ref.poisonedRejects) << "op " << op;
    ASSERT_EQ(cs.poisonedEvictions(), ref.poisonedEvictions) << "op " << op;
  }
  // Every op kind ran, and the cache did more than miss.
  EXPECT_GT(ref.hits, 100u);
  EXPECT_GT(ref.poisonedEvictions + ref.poisonedRejects, 10u);
}

TEST_P(LookupProperty, DeadNonceListAgreesWithADequeAndMultiset) {
  Rng rng(GetParam() ^ 0xd41);
  for (const int ringSize : {0, 1, 7, 64}) {
    const auto capacity = static_cast<std::size_t>(ringSize);
    DeadNonceList dnl(capacity);
    std::deque<std::pair<Name, std::uint32_t>> fifo;
    std::multiset<std::pair<Name, std::uint32_t>> live;
    // A small universe of (name, nonce) pairs: the same pair recurs, so
    // equal hashes share a count, and ~20 ring wrap-arounds pass.
    for (std::size_t i = 0; i < 20 * capacity + 50; ++i) {
      const std::pair<Name, std::uint32_t> entry{
          randomName(rng, 2), static_cast<std::uint32_t>(rng.uniform(4))};
      dnl.add(entry.first, entry.second);
      if (capacity > 0) {
        fifo.push_back(entry);
        live.insert(entry);
        if (fifo.size() > capacity) {
          live.erase(live.find(fifo.front()));
          fifo.pop_front();
        }
      }
      ASSERT_EQ(dnl.size(), fifo.size());
      for (int probe = 0; probe < 8; ++probe) {
        const std::pair<Name, std::uint32_t> query{
            randomName(rng, 2), static_cast<std::uint32_t>(rng.uniform(4))};
        ASSERT_EQ(dnl.has(query.first, query.second), live.count(query) > 0)
            << "capacity " << capacity << " step " << i << " " << query.first << "/"
            << query.second;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LookupProperty,
                         ::testing::Values(1, 42, 2024, 0xDEADBEEF, 77777));

}  // namespace
}  // namespace lidc::ndn
