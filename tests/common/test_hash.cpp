#include "common/hash.hpp"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

namespace lidc {
namespace {

TEST(HashTest, Fnv1aMatchesStandardVectors) {
  EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a("foobar"), 0x85944171f73967e8ULL);
}

TEST(HashTest, Fnv1aOfBytesEqualsFnv1aOfText) {
  const std::string text = "sha=payload\x80\xff";
  const std::vector<std::uint8_t> bytes(text.begin(), text.end());
  EXPECT_EQ(fnv1a(bytes), fnv1a(text));
}

std::uint64_t xxh64Of(std::string_view text) {
  return xxh64({reinterpret_cast<const std::uint8_t*>(text.data()), text.size()}, 0);
}

TEST(HashTest, Xxh64MatchesReferenceVectors) {
  EXPECT_EQ(xxh64Of(""), 0xef46db3751d8e999ULL);
  EXPECT_EQ(xxh64Of("a"), 0xd24ec4f1a98c6e5bULL);
  EXPECT_EQ(xxh64Of("abc"), 0x44bc2cf5ad770999ULL);
  EXPECT_EQ(xxh64Of("message digest"), 0x066ed728fceeb3beULL);
  // 44 bytes: one 32-byte stripe, then an 8-byte and a 4-byte tail.
  EXPECT_EQ(xxh64Of("abcdefghijklmnopqrstuvwxyz0123456789ABCDEFGH"),
            0xc3228e97f434ef36ULL);
}

}  // namespace
}  // namespace lidc
