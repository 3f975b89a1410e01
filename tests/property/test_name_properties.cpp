// Property tests over NDN names: URI round-trips for arbitrary byte
// components, ordering laws, and prefix-relation invariants, swept over
// random seeds via parameterized gtest.
#include <gtest/gtest.h>

#include <algorithm>
#include <compare>
#include <vector>

#include "common/rng.hpp"
#include "ndn/name.hpp"

namespace lidc::ndn {
namespace {

Name randomName(Rng& rng, std::size_t maxComponents = 6,
                std::size_t maxComponentLength = 12) {
  const std::size_t count = rng.uniform(maxComponents + 1);
  Name name;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t length = 1 + rng.uniform(maxComponentLength);
    std::vector<std::uint8_t> bytes(length);
    for (auto& byte : bytes) byte = static_cast<std::uint8_t>(rng());
    name.append(Component(std::move(bytes)));
  }
  return name;
}

class NameProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NameProperty, UriRoundTripsArbitraryBytes) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    const Name name = randomName(rng);
    const Name reparsed(name.toUri());
    EXPECT_EQ(reparsed, name) << name.toUri();
    EXPECT_EQ(reparsed.hash(), name.hash());
  }
}

TEST_P(NameProperty, CompareIsAStrictWeakOrder) {
  Rng rng(GetParam() ^ 0x5555);
  std::vector<Name> names;
  for (int i = 0; i < 50; ++i) names.push_back(randomName(rng));
  for (const auto& a : names) {
    EXPECT_EQ(a.compare(a), std::strong_ordering::equal);
    for (const auto& b : names) {
      const auto ab = a.compare(b);
      const auto ba = b.compare(a);
      // Antisymmetry.
      if (ab == std::strong_ordering::less) {
        EXPECT_EQ(ba, std::strong_ordering::greater);
      } else if (ab == std::strong_ordering::greater) {
        EXPECT_EQ(ba, std::strong_ordering::less);
      } else {
        EXPECT_EQ(a, b);
      }
    }
  }
}

TEST_P(NameProperty, PrefixRelationLaws) {
  Rng rng(GetParam() ^ 0xAAAA);
  for (int trial = 0; trial < 100; ++trial) {
    const Name name = randomName(rng);
    // Every prefix of a name is a prefix of it, and sorts <= it.
    for (std::size_t len = 0; len <= name.size(); ++len) {
      const Name prefix = name.prefix(len);
      EXPECT_TRUE(prefix.isPrefixOf(name));
      EXPECT_NE(prefix.compare(name), std::strong_ordering::greater);
    }
    // Appending breaks the reverse relation (unless nothing appended).
    Name extended = name;
    extended.append("suffix");
    EXPECT_TRUE(name.isPrefixOf(extended));
    EXPECT_FALSE(extended.isPrefixOf(name));
  }
}

TEST_P(NameProperty, SubNamePartitionReassembles) {
  Rng rng(GetParam() ^ 0x1234);
  for (int trial = 0; trial < 100; ++trial) {
    const Name name = randomName(rng);
    if (name.empty()) continue;
    const std::size_t cut = rng.uniform(name.size() + 1);
    Name front = name.prefix(cut);
    front.append(name.subName(cut));
    EXPECT_EQ(front, name);
  }
}

// --- Laws at var-number boundaries ------------------------------------
// A Name stores canonical component TLVs and orders, compares and hashes
// those bytes. Component lengths straddling every var-number width (the
// 1-byte form ends at 252, the 3-byte form spans 253..65535) check that
// this agrees with component-by-component reference definitions.

using Components = std::vector<std::vector<std::uint8_t>>;

constexpr std::size_t kBoundaryLengths[] = {0, 1, 252, 253, 254, 65535, 65536};

/// A name drawn from a small pool of boundary-length components, so
/// equal names, shared prefixes and equal-length components are common.
/// Returns the components beside the Name as the reference model.
std::pair<Components, Name> boundaryName(Rng& rng, const Components& pool) {
  Components components;
  Name name;
  const std::size_t count = rng.uniform(5);
  for (std::size_t i = 0; i < count; ++i) {
    components.push_back(pool[rng.uniform(pool.size())]);
    name.append(Component(components.back()));
  }
  return {std::move(components), std::move(name)};
}

Components boundaryPool(Rng& rng) {
  Components pool;
  for (int i = 0; i < 12; ++i) {
    const std::size_t length =
        kBoundaryLengths[rng.uniform(std::size(kBoundaryLengths))];
    std::vector<std::uint8_t> bytes(length, static_cast<std::uint8_t>(rng.uniform(2)));
    if (length > 0) bytes[rng.uniform(length)] = static_cast<std::uint8_t>(rng.uniform(2));
    pool.push_back(std::move(bytes));
  }
  return pool;
}

/// NDN canonical order, component by component: shorter component
/// first, then bytes; a proper prefix sorts before the longer name.
std::strong_ordering referenceCompare(const Components& a, const Components& b) {
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    if (a[i].size() != b[i].size()) return a[i].size() <=> b[i].size();
    const auto order = std::lexicographical_compare_three_way(
        a[i].begin(), a[i].end(), b[i].begin(), b[i].end());
    if (order != 0) return order;
  }
  return a.size() <=> b.size();
}

bool referenceIsPrefix(const Components& a, const Components& b) {
  return a.size() <= b.size() && std::equal(a.begin(), a.end(), b.begin());
}

/// Today's Name::hash(): FNV-1a over (length low byte, length high
/// byte, bytes) per component.
std::size_t referenceHash(const Components& components, std::size_t count) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint8_t byte) {
    h ^= byte;
    h *= 0x100000001b3ULL;
  };
  for (std::size_t i = 0; i < count; ++i) {
    mix(static_cast<std::uint8_t>(components[i].size() & 0xFF));
    mix(static_cast<std::uint8_t>((components[i].size() >> 8) & 0xFF));
    for (std::uint8_t byte : components[i]) mix(byte);
  }
  return static_cast<std::size_t>(h);
}

TEST_P(NameProperty, BoundaryLengthsOrderAndPrefixLikeComponents) {
  Rng rng(GetParam() ^ 0xB0B0);
  const Components pool = boundaryPool(rng);
  std::vector<std::pair<Components, Name>> names;
  for (int i = 0; i < 40; ++i) names.push_back(boundaryName(rng, pool));
  for (const auto& [ca, a] : names) {
    for (const auto& [cb, b] : names) {
      EXPECT_EQ(a.compare(b), referenceCompare(ca, cb));
      EXPECT_EQ(a.isPrefixOf(b), referenceIsPrefix(ca, cb));
      EXPECT_EQ(a == b, ca == cb);
      if (a == b) {
        EXPECT_EQ(a.hash(), b.hash());
      }
    }
  }
}

TEST_P(NameProperty, BoundaryLengthsHashEveryPrefixInOnePass) {
  Rng rng(GetParam() ^ 0xC0C0);
  const Components pool = boundaryPool(rng);
  for (int trial = 0; trial < 40; ++trial) {
    const auto drawn = boundaryName(rng, pool);
    const Components& components = drawn.first;
    const Name& name = drawn.second;
    std::size_t visited = 0;
    name.forEachPrefix([&](const NamePrefix& prefix) {
      ASSERT_EQ(prefix.size(), visited++);
      const Name copy = name.prefix(prefix.size());
      EXPECT_EQ(prefix.hash(), copy.hash());
      EXPECT_EQ(prefix.hash(), referenceHash(components, prefix.size()));
      EXPECT_TRUE(prefix.sameAs(copy.wire()));
    });
    EXPECT_EQ(visited, name.size() + 1);
    EXPECT_EQ(name.hash(), referenceHash(components, components.size()));
    // The TLV value round-trips, at every length-field width.
    auto decoded = Name::fromWire(name.wire());
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(*decoded, name);
    ASSERT_EQ(decoded->size(), components.size());
    for (std::size_t i = 0; i < components.size(); ++i) {
      EXPECT_TRUE(std::ranges::equal((*decoded)[i].value(), components[i]));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NameProperty,
                         ::testing::Values(1, 42, 2024, 0xDEADBEEF, 77777));

}  // namespace
}  // namespace lidc::ndn
