// Property tests over the wire format: packet encode/decode round trips
// for randomized Interests/Data, and decoder robustness against random
// garbage and truncations (fuzz-style; the decoder must fail cleanly,
// never crash or over-read).
#include <gtest/gtest.h>

#include <iterator>

#include "common/rng.hpp"
#include "ndn/packet.hpp"

namespace lidc::ndn {
namespace {

Name randomName(Rng& rng) {
  Name name;
  const std::size_t count = 1 + rng.uniform(5);
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<std::uint8_t> bytes(1 + rng.uniform(10));
    for (auto& byte : bytes) byte = static_cast<std::uint8_t>(rng());
    name.append(Component(std::move(bytes)));
  }
  return name;
}

std::vector<std::uint8_t> randomBytes(Rng& rng, std::size_t size) {
  std::vector<std::uint8_t> bytes(size);
  for (auto& byte : bytes) byte = static_cast<std::uint8_t>(rng());
  return bytes;
}

/// Lengths on both sides of every var-number width change (1/3/5 bytes).
constexpr std::size_t kEdgeLengths[] = {0, 252, 253, 65'535, 65'536};
/// Values on both sides of every NonNegativeInteger width change (1/2/4/8).
constexpr std::uint64_t kEdgeValues[] = {0,           0xFF,          0x100,
                                         0xFFFF,      0x10000,       0xFFFFFFFF,
                                         0x100000000, ~std::uint64_t{0}};

std::size_t edgeLength(Rng& rng) {
  return kEdgeLengths[rng.uniform(std::size(kEdgeLengths))];
}

/// An edge value half of the time, else a random one of random width.
std::uint64_t edgeOrRandom(Rng& rng) {
  if (rng.bernoulli(0.5)) return kEdgeValues[rng.uniform(std::size(kEdgeValues))];
  const std::uint64_t value = rng();
  return value >> rng.uniform(64);
}

/// A random name, sometimes with one more component of an edge length.
Name edgeName(Rng& rng) {
  Name name = randomName(rng);
  if (rng.bernoulli(0.5)) name.append(Component(randomBytes(rng, edgeLength(rng))));
  return name;
}

/// Durations are whole milliseconds on the wire; kept under 2^43 ms so
/// the value in nanoseconds still fits an int64.
sim::Duration edgeMillis(Rng& rng) {
  return sim::Duration::millis(
      static_cast<std::int64_t>(edgeOrRandom(rng) % (std::uint64_t{1} << 43)));
}

class WireProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WireProperty, InterestWireSizeEqualsEncodedSize) {
  Rng rng(GetParam() ^ 0x512E);
  for (int trial = 0; trial < 60; ++trial) {
    Interest interest(edgeName(rng));
    interest.setCanBePrefix(rng.bernoulli(0.5));
    interest.setMustBeFresh(rng.bernoulli(0.5));
    interest.setNonce(static_cast<std::uint32_t>(edgeOrRandom(rng)));
    interest.setLifetime(edgeMillis(rng));
    if (rng.bernoulli(0.5)) interest.setExcludeDigest(edgeOrRandom(rng));
    if (rng.bernoulli(0.5)) {
      interest.setApplicationParameters(randomBytes(rng, edgeLength(rng)));
    }
    ASSERT_EQ(interest.wireSize(), interest.wireEncode().size()) << "trial " << trial;

    // The forwarder's per-hop decrement keeps the cached size valid.
    interest.setHopLimit(static_cast<std::uint8_t>(rng.uniform(256)));
    ASSERT_EQ(interest.wireSize(), interest.wireEncode().size()) << "trial " << trial;

    // A wire-visible setter after the size was cached re-derives it.
    interest.setNonce(static_cast<std::uint32_t>(edgeOrRandom(rng)));
    interest.setLifetime(edgeMillis(rng));
    ASSERT_EQ(interest.wireSize(), interest.wireEncode().size()) << "trial " << trial;
  }
}

TEST_P(WireProperty, DataWireSizeEqualsEncodedSize) {
  Rng rng(GetParam() ^ 0xDA7A);
  for (int trial = 0; trial < 60; ++trial) {
    Data data(edgeName(rng));
    data.setContent(randomBytes(rng, edgeLength(rng)));
    data.setContentType(static_cast<ContentType>(edgeOrRandom(rng) & 0xFFFFFFFF));
    data.setFreshnessPeriod(edgeMillis(rng));
    ASSERT_EQ(data.wireSize(), data.wireEncode().size()) << "trial " << trial;

    // Signing adds the SignatureValue block.
    data.sign();
    ASSERT_EQ(data.wireSize(), data.wireEncode().size()) << "trial " << trial;

    data.setContent(randomBytes(rng, edgeLength(rng)));
    data.setFreshnessPeriod(edgeMillis(rng));
    ASSERT_EQ(data.wireSize(), data.wireEncode().size()) << "trial " << trial;
  }
}

TEST_P(WireProperty, InterestRoundTrip) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    Interest interest(randomName(rng));
    interest.setCanBePrefix(rng.bernoulli(0.5));
    interest.setMustBeFresh(rng.bernoulli(0.5));
    interest.setNonce(static_cast<std::uint32_t>(rng()));
    interest.setLifetime(sim::Duration::millis(
        static_cast<std::int64_t>(rng.uniform(100'000))));
    interest.setHopLimit(static_cast<std::uint8_t>(rng.uniform(256)));
    if (rng.bernoulli(0.3)) {
      std::vector<std::uint8_t> params(rng.uniform(64));
      for (auto& byte : params) byte = static_cast<std::uint8_t>(rng());
      interest.setApplicationParameters(std::move(params));
    }

    const auto wire = interest.wireEncode();
    auto decoded = Interest::wireDecode(std::span<const std::uint8_t>(wire));
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(decoded->name(), interest.name());
    EXPECT_EQ(decoded->canBePrefix(), interest.canBePrefix());
    EXPECT_EQ(decoded->mustBeFresh(), interest.mustBeFresh());
    EXPECT_EQ(decoded->nonce(), interest.nonce());
    EXPECT_EQ(decoded->lifetime(), interest.lifetime());
    EXPECT_EQ(decoded->hopLimit(), interest.hopLimit());
    EXPECT_EQ(decoded->applicationParameters(), interest.applicationParameters());
  }
}

TEST_P(WireProperty, DataRoundTripAndSignatureSurvives) {
  Rng rng(GetParam() ^ 0xBEEF);
  for (int trial = 0; trial < 200; ++trial) {
    Data data(randomName(rng));
    std::vector<std::uint8_t> content(rng.uniform(256));
    for (auto& byte : content) byte = static_cast<std::uint8_t>(rng());
    data.setContent(std::move(content));
    data.setFreshnessPeriod(sim::Duration::millis(
        static_cast<std::int64_t>(rng.uniform(1'000'000))));
    data.sign();

    const auto wire = data.wireEncode();
    auto decoded = Data::wireDecode(std::span<const std::uint8_t>(wire));
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(decoded->name(), data.name());
    EXPECT_EQ(decoded->content(), data.content());
    EXPECT_TRUE(decoded->verify());
  }
}

TEST_P(WireProperty, DecoderNeverCrashesOnGarbage) {
  Rng rng(GetParam() ^ 0xF00D);
  for (int trial = 0; trial < 2'000; ++trial) {
    std::vector<std::uint8_t> garbage(rng.uniform(128));
    for (auto& byte : garbage) byte = static_cast<std::uint8_t>(rng());
    // Must either decode or return an error — never crash/UB.
    (void)Interest::wireDecode(std::span<const std::uint8_t>(garbage));
    (void)Data::wireDecode(std::span<const std::uint8_t>(garbage));
  }
}

TEST_P(WireProperty, TruncationsOfValidPacketsFailCleanly) {
  Rng rng(GetParam() ^ 0xCAFE);
  Interest interest(randomName(rng));
  interest.setNonce(7);
  const auto wire = interest.wireEncode();
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    auto truncated = Interest::wireDecode(
        std::span<const std::uint8_t>(wire.data(), cut));
    EXPECT_FALSE(truncated.ok()) << "cut=" << cut;
  }
  // Bit flips may or may not decode, but must not crash.
  for (int trial = 0; trial < 500; ++trial) {
    auto mutated = wire;
    mutated[rng.uniform(mutated.size())] ^=
        static_cast<std::uint8_t>(1u << rng.uniform(8));
    (void)Interest::wireDecode(std::span<const std::uint8_t>(mutated));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireProperty,
                         ::testing::Values(1, 99, 31337, 8675309));

}  // namespace
}  // namespace lidc::ndn
