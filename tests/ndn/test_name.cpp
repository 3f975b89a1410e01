#include "ndn/name.hpp"

#include <gtest/gtest.h>

#include <unordered_set>

namespace lidc::ndn {
namespace {

TEST(NameTest, ParseSimpleUri) {
  const Name name("/ndn/k8s/compute");
  ASSERT_EQ(name.size(), 3u);
  EXPECT_EQ(name[0].toString(), "ndn");
  EXPECT_EQ(name[2].toString(), "compute");
}

TEST(NameTest, ParseCollapsesEmptySegments) {
  EXPECT_EQ(Name("//a///b/").size(), 2u);
  EXPECT_EQ(Name("/").size(), 0u);
  EXPECT_EQ(Name("").size(), 0u);
}

TEST(NameTest, NdnSchemePrefixAccepted) {
  EXPECT_EQ(Name("ndn:/a/b"), Name("/a/b"));
}

TEST(NameTest, RoundTripUri) {
  const Name name("/ndn/k8s/compute/mem=4&cpu=6&app=BLAST");
  EXPECT_EQ(Name(name.toUri()), name);
  EXPECT_EQ(name.toUri(), "/ndn/k8s/compute/mem=4&cpu=6&app=BLAST");
}

TEST(NameTest, EmptyNameUriIsSlash) { EXPECT_EQ(Name().toUri(), "/"); }

TEST(NameTest, PercentEscapingRoundTrips) {
  Name name;
  name.append(Component(std::vector<std::uint8_t>{0x00, 0x2F, 0x41}));  // \0, '/', 'A'
  const std::string uri = name.toUri();
  EXPECT_EQ(uri, "/%00%2FA");
  EXPECT_EQ(Name(uri), name);
}

TEST(NameTest, AppendChains) {
  Name name("/a");
  name.append("b").append("c").appendNumber(42);
  EXPECT_EQ(name.toUri(), "/a/b/c/42");
}

TEST(NameTest, AppendName) {
  Name name("/a/b");
  name.append(Name("/c/d"));
  EXPECT_EQ(name, Name("/a/b/c/d"));
}

TEST(NameTest, AppendOwnComponentSurvivesGrowth) {
  // A parsed name's buffer is exactly full, so this append reallocates
  // it while the component view still points into it.
  Name name("/first-component-long-enough-to-leave-any-small-buffer/b");
  name.append(name[0]).append(name[1]);
  EXPECT_EQ(name,
            Name("/first-component-long-enough-to-leave-any-small-buffer/b"
                 "/first-component-long-enough-to-leave-any-small-buffer/b"));
}

TEST(NameTest, AppendItself) {
  Name name("/a/b");
  name.append(name);
  EXPECT_EQ(name, Name("/a/b/a/b"));
  EXPECT_EQ(name.hash(), Name("/a/b/a/b").hash());
}

TEST(NameTest, SelfMoveKeepsTheName) {
  Name name("/a/b");
  Name& alias = name;
  name = std::move(alias);
  EXPECT_EQ(name.size(), 2u);
  EXPECT_EQ(name, Name("/a/b"));
  EXPECT_EQ(name[1].toString(), "b");
}

TEST(NameTest, SubNameAndPrefix) {
  const Name name("/a/b/c/d");
  EXPECT_EQ(name.subName(1, 2), Name("/b/c"));
  EXPECT_EQ(name.subName(2), Name("/c/d"));
  EXPECT_EQ(name.prefix(2), Name("/a/b"));
  EXPECT_EQ(name.subName(10), Name());
  EXPECT_EQ(name.prefix(0), Name());
}

TEST(NameTest, IsPrefixOf) {
  EXPECT_TRUE(Name("/a/b").isPrefixOf(Name("/a/b/c")));
  EXPECT_TRUE(Name("/a/b").isPrefixOf(Name("/a/b")));
  EXPECT_TRUE(Name("/").isPrefixOf(Name("/x")));
  EXPECT_FALSE(Name("/a/b/c").isPrefixOf(Name("/a/b")));
  EXPECT_FALSE(Name("/a/x").isPrefixOf(Name("/a/b/c")));
}

TEST(NameTest, CanonicalOrderShorterComponentsFirst) {
  // NDN canonical order: length first, then lexicographic.
  EXPECT_LT(Name("/z"), Name("/aa"));
  EXPECT_LT(Name("/a"), Name("/b"));
  EXPECT_LT(Name("/a"), Name("/a/b"));  // prefix sorts first
}

TEST(NameTest, HashConsistentWithEquality) {
  const Name a("/ndn/k8s/data/file");
  const Name b("/ndn/k8s/data/file");
  EXPECT_EQ(a.hash(), b.hash());
}

TEST(NameTest, HashDistinguishesComponentBoundaries) {
  // "/ab/c" and "/a/bc" have the same bytes but different boundaries.
  EXPECT_NE(Name("/ab/c").hash(), Name("/a/bc").hash());
}

TEST(NameTest, UsableInUnorderedContainers) {
  std::unordered_set<Name, NameHash> names;
  names.insert(Name("/a"));
  names.insert(Name("/a"));
  names.insert(Name("/b"));
  EXPECT_EQ(names.size(), 2u);
}

TEST(ComponentTest, FromEscapedRejectsBadEscapes) {
  EXPECT_FALSE(Component::fromEscaped("abc%2").has_value());
  EXPECT_FALSE(Component::fromEscaped("%GG").has_value());
  EXPECT_TRUE(Component::fromEscaped("%41").has_value());
  EXPECT_EQ(Component::fromEscaped("%41")->toString(), "A");
}

TEST(ComponentTest, SemanticCharactersStayReadable) {
  // '=' and '&' are central to LIDC names; they must not be escaped.
  Component component(std::string_view("mem=4&cpu=6"));
  EXPECT_EQ(component.toEscapedString(), "mem=4&cpu=6");
}

}  // namespace
}  // namespace lidc::ndn
