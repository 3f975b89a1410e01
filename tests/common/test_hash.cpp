#include "common/hash.hpp"

#include <gtest/gtest.h>

#include <string>
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

}  // namespace
}  // namespace lidc
