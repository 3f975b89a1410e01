// Seeded fuzz for the TLV decoder and packet codecs (gray-failure
// hardening): on-the-wire corruption must surface as a clean decode
// error, never as a crash, an over-read, or an infinite loop. Three
// adversarial families are driven from fixed seeds so CI (including
// the ASan/UBSan job) replays the exact same buffers every run:
//   1. truncations of valid packets at every byte boundary,
//   2. valid packets with seeded random bit flips,
//   3. TLV headers whose declared length lies about the payload.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "ndn/packet.hpp"
#include "ndn/tlv.hpp"

namespace lidc::ndn {
namespace {

constexpr std::uint64_t kSeeds[] = {1, 99, 31337, 8675309};

Interest sampleInterest(std::uint64_t seed) {
  Interest interest(Name("/ndn/k8s/compute/app=aligner/user=fuzz/seed=" +
                         std::to_string(seed)));
  interest.setNonce(static_cast<std::uint32_t>(seed * 2654435761u));
  interest.setMustBeFresh(true);
  interest.setLifetime(sim::Duration::millis(4000));
  interest.setExcludeDigest(seed ^ 0xdeadbeefULL);
  return interest;
}

Data sampleData(std::uint64_t seed) {
  Data data(Name("/ndn/k8s/data/wf/fuzz/seed=" + std::to_string(seed)));
  lidc::Rng rng(seed);
  std::vector<std::uint8_t> payload(64 + rng.uniform(128));
  for (auto& byte : payload) byte = static_cast<std::uint8_t>(rng.uniform(256));
  data.setContent(std::move(payload));
  data.setFreshnessPeriod(sim::Duration::seconds(2));
  data.sign();
  return data;
}

/// Every decode of `wire` must terminate and report ok/error — the
/// assertions live in ASan/UBSan (no over-read) plus "we returned".
void decodeBoth(const std::vector<std::uint8_t>& wire) {
  (void)Interest::wireDecode(wire);
  (void)Data::wireDecode(wire);
  tlv::Decoder decoder(wire);
  // Bounded by the buffer: each readElement either consumes bytes or
  // errors; count iterations to catch a non-advancing loop.
  for (int guard = 0; !decoder.atEnd(); ++guard) {
    ASSERT_LT(guard, 4096) << "decoder failed to make progress";
    if (!decoder.readElement().ok()) break;
  }
}

TEST(TlvFuzzTest, EveryTruncationFailsCleanly) {
  for (const std::uint64_t seed : kSeeds) {
    for (const bool asData : {false, true}) {
      const tlv::Buffer wire =
          asData ? sampleData(seed).wireEncode() : sampleInterest(seed).wireEncode();
      for (std::size_t cut = 0; cut < wire.size(); ++cut) {
        std::vector<std::uint8_t> truncated(wire.begin(),
                                            wire.begin() + static_cast<long>(cut));
        decodeBoth(truncated);
        // A strict prefix of a valid packet is never a valid packet.
        if (asData) {
          EXPECT_FALSE(Data::wireDecode(truncated).ok())
              << "seed=" << seed << " cut=" << cut;
        } else {
          EXPECT_FALSE(Interest::wireDecode(truncated).ok())
              << "seed=" << seed << " cut=" << cut;
        }
      }
    }
  }
}

TEST(TlvFuzzTest, SeededBitFlipsNeverCrashTheDecoder) {
  for (const std::uint64_t seed : kSeeds) {
    lidc::Rng rng(seed ^ 0xb17f11b5ULL);
    for (const bool asData : {false, true}) {
      const tlv::Buffer original =
          asData ? sampleData(seed).wireEncode() : sampleInterest(seed).wireEncode();
      for (int round = 0; round < 200; ++round) {
        std::vector<std::uint8_t> mutated(original.begin(), original.end());
        const int flips = 1 + static_cast<int>(rng.uniform(4));
        for (int f = 0; f < flips; ++f) {
          const std::size_t at = rng.uniform(mutated.size());
          mutated[at] ^= static_cast<std::uint8_t>(1u << rng.uniform(8));
        }
        decodeBoth(mutated);
      }
    }
  }
}

TEST(TlvFuzzTest, LengthFieldLiesAreRejectedNotOverRead) {
  // Hand-built headers whose TLV length exceeds the bytes that follow.
  for (const std::uint64_t seed : kSeeds) {
    lidc::Rng rng(seed ^ 0x1e57ULL);
    for (int round = 0; round < 200; ++round) {
      std::vector<std::uint8_t> wire;
      // Single-byte type (1..252): 253+ would be parsed as a multi-byte
      // type var-number and swallow the lying length bytes.
      wire.push_back(static_cast<std::uint8_t>(1 + rng.uniform(252)));
      // Length claims up to 64 KiB - 1 (the most a 2-byte form encodes)...
      const std::uint64_t claimed = 1 + rng.uniform(65535);
      if (claimed < 253) {
        wire.push_back(static_cast<std::uint8_t>(claimed));
      } else {
        wire.push_back(253);
        wire.push_back(static_cast<std::uint8_t>(claimed >> 8));
        wire.push_back(static_cast<std::uint8_t>(claimed & 0xff));
      }
      // ...but only a sliver of payload is actually present.
      const std::uint64_t present = rng.uniform(claimed);
      for (std::uint64_t i = 0; i < present && i < 64; ++i) {
        wire.push_back(static_cast<std::uint8_t>(rng.uniform(256)));
      }
      tlv::Decoder decoder(wire);
      EXPECT_FALSE(decoder.readElement().ok()) << "seed=" << seed;
      decodeBoth(wire);
    }
  }
}

TEST(TlvFuzzTest, MultiByteVarNumberTruncationsFailCleanly) {
  // 253/254/255 prefixes announce 2/4/8 length bytes; cut them short.
  for (const std::uint8_t prefix : {253, 254, 255}) {
    for (std::size_t provided = 0; provided < 8; ++provided) {
      std::vector<std::uint8_t> wire{0x05};  // Interest type
      wire.push_back(prefix);
      for (std::size_t i = 0; i < provided; ++i) wire.push_back(0xff);
      tlv::Decoder decoder(wire);
      EXPECT_FALSE(decoder.readElement().ok())
          << "prefix=" << int(prefix) << " provided=" << provided;
      decodeBoth(wire);
    }
  }
}

/// An Interest for /a whose InterestLifetime is `millis`.
tlv::Buffer interestWithLifetime(std::uint64_t millis) {
  tlv::Encoder inner;
  inner.writeBlock(tlv::kName, Name("/a").wire());
  inner.writeNonNegativeInteger(tlv::kNonce, 1);
  inner.writeNonNegativeInteger(tlv::kInterestLifetime, millis);
  tlv::Encoder outer;
  outer.writeNested(tlv::kInterest, inner);
  return outer.takeBuffer();
}

/// A Data for /a whose FreshnessPeriod is `millis`.
tlv::Buffer dataWithFreshness(std::uint64_t millis) {
  tlv::Encoder meta;
  meta.writeNonNegativeInteger(tlv::kFreshnessPeriod, millis);
  tlv::Encoder inner;
  inner.writeBlock(tlv::kName, Name("/a").wire());
  inner.writeNested(tlv::kMetaInfo, meta);
  tlv::Encoder outer;
  outer.writeNested(tlv::kData, inner);
  return outer.takeBuffer();
}

TEST(TlvFuzzTest, MillisecondFieldsBeyondADurationAreRejected) {
  // Both fields are 8-byte NonNegativeIntegers of milliseconds; a
  // sim::Duration holds at most INT64_MAX ns = 9,223,372,036,854 ms.
  constexpr std::uint64_t kLargest = 9'223'372'036'854ULL;
  for (const std::uint64_t millis :
       {std::uint64_t{1} << 62, ~std::uint64_t{0}, kLargest + 1}) {
    EXPECT_FALSE(Interest::wireDecode(interestWithLifetime(millis)).ok()) << millis;
    EXPECT_FALSE(Data::wireDecode(dataWithFreshness(millis)).ok()) << millis;
  }
  auto interest = Interest::wireDecode(interestWithLifetime(kLargest));
  ASSERT_TRUE(interest.ok()) << interest.status();
  EXPECT_EQ(interest->lifetime(), sim::Duration::millis(kLargest));
  auto data = Data::wireDecode(dataWithFreshness(kLargest));
  ASSERT_TRUE(data.ok()) << data.status();
  EXPECT_EQ(data->freshnessPeriod(), sim::Duration::millis(kLargest));
}

}  // namespace
}  // namespace lidc::ndn
