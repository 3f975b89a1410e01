#include "ndn/packet.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <span>
#include <string_view>
#include <vector>

#include "common/hash.hpp"

namespace lidc::ndn {
namespace {

TEST(InterestTest, WireRoundTripPreservesEverything) {
  Interest interest(Name("/ndn/k8s/compute/mem=4&cpu=6&app=BLAST"));
  interest.setCanBePrefix(true)
      .setMustBeFresh(true)
      .setNonce(0xDEADBEEF)
      .setLifetime(sim::Duration::millis(1234))
      .setHopLimit(7)
      .setApplicationParameters("params");

  const auto wire = interest.wireEncode();
  auto decoded = Interest::wireDecode(std::span<const std::uint8_t>(wire));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->name(), interest.name());
  EXPECT_TRUE(decoded->canBePrefix());
  EXPECT_TRUE(decoded->mustBeFresh());
  EXPECT_EQ(decoded->nonce(), 0xDEADBEEFu);
  EXPECT_EQ(decoded->lifetime(), sim::Duration::millis(1234));
  EXPECT_EQ(decoded->hopLimit(), 7);
  EXPECT_EQ(decoded->applicationParameters(),
            (std::vector<std::uint8_t>{'p', 'a', 'r', 'a', 'm', 's'}));
}

TEST(InterestTest, DefaultsDecodeCleanly) {
  Interest interest(Name("/a"));
  const auto wire = interest.wireEncode();
  auto decoded = Interest::wireDecode(std::span<const std::uint8_t>(wire));
  ASSERT_TRUE(decoded.ok());
  EXPECT_FALSE(decoded->canBePrefix());
  EXPECT_FALSE(decoded->mustBeFresh());
  EXPECT_EQ(decoded->lifetime(), sim::Duration::millis(4000));
}

TEST(InterestTest, GarbageFailsToDecode) {
  const std::vector<std::uint8_t> garbage{0xFF, 0x00, 0x01};
  EXPECT_FALSE(Interest::wireDecode(std::span<const std::uint8_t>(garbage)).ok());
}

TEST(InterestTest, DataPacketIsNotAnInterest) {
  Data data(Name("/a"));
  data.sign();
  const auto wire = data.wireEncode();
  EXPECT_FALSE(Interest::wireDecode(std::span<const std::uint8_t>(wire)).ok());
}

TEST(DataTest, WireRoundTripPreservesEverything) {
  Data data(Name("/ndn/k8s/data/human-ref/seg=3"));
  data.setContent("ACGTACGT")
      .setContentType(ContentType::kBlob)
      .setFreshnessPeriod(sim::Duration::seconds(10));
  data.sign();

  const auto wire = data.wireEncode();
  auto decoded = Data::wireDecode(std::span<const std::uint8_t>(wire));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->name(), data.name());
  EXPECT_EQ(decoded->contentAsString(), "ACGTACGT");
  EXPECT_EQ(decoded->freshnessPeriod(), sim::Duration::seconds(10));
  EXPECT_TRUE(decoded->verify());
}

TEST(DataTest, SignatureDetectsTampering) {
  Data data(Name("/x"));
  data.setContent("original");
  data.sign();
  EXPECT_TRUE(data.verify());
  data.setContent("tampered");
  EXPECT_FALSE(data.verify());
  data.sign();
  EXPECT_TRUE(data.verify());
}

TEST(DataTest, UnsignedDataDoesNotVerify) {
  Data data(Name("/x"));
  data.setContent("c");
  EXPECT_FALSE(data.verify());
}

TEST(DataTest, EmptyContentAllowed) {
  Data data(Name("/empty"));
  data.sign();
  const auto wire = data.wireEncode();
  auto decoded = Data::wireDecode(std::span<const std::uint8_t>(wire));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->content().empty());
  EXPECT_TRUE(decoded->verify());
}

TEST(DataTest, WireSizeGrowsWithContent) {
  Data small(Name("/x"));
  small.setContent(std::string(10, 'a'));
  Data large(Name("/x"));
  large.setContent(std::string(10'000, 'a'));
  EXPECT_GT(large.wireSize(), small.wireSize() + 9'000);
}

/// A signed packet with every digest-covered field set.
Data signedSegment() {
  Data data(Name("/ndn/k8s/data/obj/seg=0"));
  data.setContent("payload")
      .setContentType(ContentType::kBlob)
      .setFreshnessPeriod(sim::Duration::seconds(10));
  data.sign();
  return data;
}

TEST(DataTest, EveryDigestedSetterBreaksTheSignatureOfACopyOnly) {
  const Data original = signedSegment();
  ASSERT_TRUE(original.verify());
  const std::vector<std::function<void(Data&)>> setters = {
      [](Data& d) { d.setName(Name("/ndn/k8s/data/obj/seg=1")); },
      [](Data& d) { d.setContent("payloaD"); },
      [](Data& d) { d.setContent(std::vector<std::uint8_t>{'p', 'a', 'y'}); },
      [](Data& d) { d.setContentType(ContentType::kKey); },
      [](Data& d) { d.setFreshnessPeriod(sim::Duration::seconds(11)); },
  };
  for (std::size_t i = 0; i < setters.size(); ++i) {
    Data copy = original;
    ASSERT_TRUE(copy.verify()) << "setter " << i;
    setters[i](copy);
    EXPECT_FALSE(copy.verify()) << "setter " << i;
    EXPECT_NE(copy.contentDigest(), original.contentDigest()) << "setter " << i;
    EXPECT_TRUE(original.verify()) << "setter " << i;
    EXPECT_EQ(original.contentAsString(), "payload") << "setter " << i;
  }
}

TEST(DataTest, EverySingleBitFlipBreaksTheSignature) {
  // Sizes on both sides of each XXH64 step (1-, 4- and 8-byte tails,
  // the 32-byte stripe) and one segment's worth of stripes.
  for (const std::size_t size : {0, 1, 7, 8, 31, 32, 33, 63, 64, 65, 8197}) {
    std::vector<std::uint8_t> content(size);
    for (std::size_t i = 0; i < size; ++i) {
      content[i] = static_cast<std::uint8_t>(i * 131 + 7);
    }
    Data original(Name("/ndn/k8s/data/obj/seg=3"));
    original.setContent(content).setFreshnessPeriod(sim::Duration::seconds(10));
    original.sign();
    ASSERT_TRUE(original.verify());

    for (std::size_t bit = 0; bit < size * 8; ++bit) {
      std::vector<std::uint8_t> flipped = content;
      flipped[bit / 8] ^= static_cast<std::uint8_t>(1U << (bit % 8));
      Data copy = original;
      copy.setContent(std::move(flipped));
      ASSERT_FALSE(copy.verify()) << "size " << size << ", content bit " << bit;
      ASSERT_NE(copy.contentDigest(), original.contentDigest())
          << "size " << size << ", content bit " << bit;
    }

    const Name& name = original.name();
    for (std::size_t flip = 0; flip < name.size(); ++flip) {
      for (std::size_t bit = 0; bit < name[flip].size() * 8; ++bit) {
        Name tampered;
        for (std::size_t i = 0; i < name.size(); ++i) {
          const std::span<const std::uint8_t> bytes = name[i].value();
          std::vector<std::uint8_t> value(bytes.begin(), bytes.end());
          if (i == flip) value[bit / 8] ^= static_cast<std::uint8_t>(1U << (bit % 8));
          tampered.append(ComponentView(value));
        }
        Data copy = original;
        copy.setName(std::move(tampered));
        ASSERT_FALSE(copy.verify())
            << "size " << size << ", component " << flip << " bit " << bit;
        ASSERT_NE(copy.contentDigest(), original.contentDigest())
            << "size " << size << ", component " << flip << " bit " << bit;
      }
    }
  }
}

TEST(DataTest, CopiesShareDigestAndPayload) {
  const Data original = signedSegment();
  const Data copy = original;
  EXPECT_EQ(copy.contentDigest(), original.contentDigest());
  EXPECT_TRUE(copy.verify());
  // The payload is shared, not copied.
  EXPECT_EQ(copy.content().data(), original.content().data());

  // A copy taken before any digest exists computes the same one.
  Data unsignedData(Name("/x"));
  unsignedData.setContent("abc");
  const Data early = unsignedData;
  EXPECT_EQ(early.contentDigest(), unsignedData.contentDigest());
  // Re-setting equal fields leaves the digest equal.
  Data rebuilt = signedSegment();
  rebuilt.setContent("payload");
  EXPECT_EQ(rebuilt.contentDigest(), original.contentDigest());
  EXPECT_TRUE(rebuilt.verify());
}

TEST(DataTest, DataDecodedFromTamperedWireFailsVerification) {
  const Data original = signedSegment();
  const auto wire = original.wireEncode();
  // Every byte of the content and of the name's "obj" component.
  std::vector<std::size_t> offsets;
  for (std::string_view needle : {"payload", "obj"}) {
    const auto at = std::search(wire.begin(), wire.end(), needle.begin(), needle.end());
    ASSERT_NE(at, wire.end());
    for (std::size_t i = 0; i < needle.size(); ++i) {
      offsets.push_back(static_cast<std::size_t>(at - wire.begin()) + i);
    }
  }
  for (const std::size_t offset : offsets) {
    auto tampered = wire;
    tampered[offset] ^= 0x01;
    auto decoded = Data::wireDecode(std::span<const std::uint8_t>(tampered));
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_TRUE(decoded->hasSignature());
    EXPECT_FALSE(decoded->verify()) << "offset " << offset;
  }
  auto intact = Data::wireDecode(std::span<const std::uint8_t>(wire));
  ASSERT_TRUE(intact.ok());
  EXPECT_TRUE(intact->verify());
}

TEST(DataTest, DecodedNameIsReEncodedMinimally) {
  // One component /a whose type (FD 00 08) and length (FD 00 01) both
  // use a wider var-number form than needed.
  const std::vector<std::uint8_t> wire{
      0x06, 0x09,             // Data, 9 bytes
      0x07, 0x07,             // Name, 7 bytes
      0xFD, 0x00, 0x08,       // component type 8, 3-byte form
      0xFD, 0x00, 0x01, 'a'};  // length 1, 3-byte form
  auto decoded = Data::wireDecode(std::span<const std::uint8_t>(wire));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  const Name built = Name().append("a");
  EXPECT_EQ(decoded->name(), built);
  EXPECT_EQ(decoded->name(), Name("/a"));
  EXPECT_EQ(decoded->name().hash(), built.hash());
  EXPECT_EQ(decoded->name().compare(built), std::strong_ordering::equal);
  EXPECT_EQ(decoded->wireEncode(), Data(built).wireEncode());
  EXPECT_EQ(decoded->wireSize(), decoded->wireEncode().size());
}

TEST(InterestTest, ApplicationParametersAreSharedByCopies) {
  const std::vector<std::uint8_t> params(4096, 7);
  Interest interest(Name("/ndn/k8s/publish/obj"));
  interest.setApplicationParameters(params);
  EXPECT_EQ(interest.applicationParametersDigest(), fnv1a(params));
  const Interest copy = interest;
  EXPECT_EQ(copy.applicationParameters().data(), interest.applicationParameters().data());
  EXPECT_EQ(copy.applicationParametersDigest(), fnv1a(params));

  // New parameters drop the memo; the copy keeps its bytes and digest.
  interest.setApplicationParameters("other");
  EXPECT_EQ(interest.applicationParametersDigest(), fnv1a("other"));
  EXPECT_EQ(copy.applicationParameters(), params);
  EXPECT_EQ(copy.applicationParametersDigest(), fnv1a(params));

  // A decoded Interest hashes the bytes it was given.
  auto decoded = Interest::wireDecode(interest.wireEncode());
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->applicationParametersDigest(), fnv1a("other"));
  EXPECT_EQ(Interest().applicationParametersDigest(), fnv1a(""));
}

TEST(NackTest, CarriesInterestAndReason) {
  Interest interest(Name("/a/b"));
  interest.setNonce(5);
  const Nack nack(interest, NackReason::kNoRoute);
  EXPECT_EQ(nack.interest().name(), Name("/a/b"));
  EXPECT_EQ(nack.reason(), NackReason::kNoRoute);
  EXPECT_EQ(nackReasonName(NackReason::kNoRoute), "NoRoute");
  EXPECT_EQ(nackReasonName(NackReason::kCongestion), "Congestion");
  EXPECT_EQ(nackReasonName(NackReason::kDuplicate), "Duplicate");
}

}  // namespace
}  // namespace lidc::ndn
