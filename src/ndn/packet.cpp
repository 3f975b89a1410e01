#include "ndn/packet.hpp"

#include <algorithm>
#include <limits>

#include "common/hash.hpp"

namespace lidc::ndn {

namespace {

void encodeName(tlv::Encoder& encoder, const Name& name) {
  encoder.writeBlock(tlv::kName, name.wire());
}

std::size_t nameBlockSize(const Name& name) {
  return tlv::blockSize(tlv::kName, name.wire().size());
}

/// Durations travel as whole milliseconds, negatives clamped to 0.
std::uint64_t wireMillis(sim::Duration duration) {
  return static_cast<std::uint64_t>(
      std::max<std::int64_t>(0, duration.toNanos() / 1'000'000));
}

/// The most milliseconds a sim::Duration holds: 9,223,372,036,854.
constexpr std::uint64_t kMaxWireMillis =
    std::numeric_limits<std::int64_t>::max() / 1'000'000;

/// Decodes a millisecond NonNegativeInteger (InterestLifetime,
/// FreshnessPeriod), rejecting values a Duration cannot hold.
Result<sim::Duration> decodeMillis(std::uint64_t millis) {
  if (millis > kMaxWireMillis) {
    return Status::InvalidArgument("duration of " + std::to_string(millis) +
                                   " ms is out of range");
  }
  return sim::Duration::millis(static_cast<std::int64_t>(millis));
}

}  // namespace

tlv::Buffer Interest::wireEncode() const {
  tlv::Encoder inner;
  encodeName(inner, name_);
  if (can_be_prefix_) inner.writeFlag(tlv::kCanBePrefix);
  if (must_be_fresh_) inner.writeFlag(tlv::kMustBeFresh);
  inner.writeNonNegativeInteger(tlv::kNonce, nonce_);
  inner.writeNonNegativeInteger(tlv::kInterestLifetime, wireMillis(lifetime_));
  inner.writeNonNegativeInteger(tlv::kHopLimit, hop_limit_);
  if (exclude_digest_) {
    inner.writeNonNegativeInteger(tlv::kExcludeDigest, *exclude_digest_);
  }
  if (!app_parameters_.empty()) {
    inner.writeBlock(tlv::kApplicationParameters, app_parameters_.get());
  }
  tlv::Encoder outer;
  outer.writeNested(tlv::kInterest, inner);
  return outer.takeBuffer();
}

std::size_t Interest::computeWireSize() const {
  // Mirrors wireEncode() field by field.
  std::size_t inner = nameBlockSize(name_);
  if (can_be_prefix_) inner += tlv::blockSize(tlv::kCanBePrefix, 0);
  if (must_be_fresh_) inner += tlv::blockSize(tlv::kMustBeFresh, 0);
  inner += tlv::nonNegativeIntegerSize(tlv::kNonce, nonce_);
  inner += tlv::nonNegativeIntegerSize(tlv::kInterestLifetime, wireMillis(lifetime_));
  inner += tlv::nonNegativeIntegerSize(tlv::kHopLimit, hop_limit_);
  if (exclude_digest_) {
    inner += tlv::nonNegativeIntegerSize(tlv::kExcludeDigest, *exclude_digest_);
  }
  if (!app_parameters_.empty()) {
    inner += tlv::blockSize(tlv::kApplicationParameters, app_parameters_.size());
  }
  return tlv::blockSize(tlv::kInterest, inner);
}

Result<Interest> Interest::wireDecode(std::span<const std::uint8_t> wire) {
  tlv::Decoder outer(wire);
  auto top = outer.readElement(tlv::kInterest);
  if (!top) return top.status();

  Interest interest;
  tlv::Decoder decoder(top->value);
  bool saw_name = false;
  while (!decoder.atEnd()) {
    auto element = decoder.readElement();
    if (!element) return element.status();
    switch (element->type) {
      case tlv::kName: {
        auto name = Name::fromWire(element->value);
        if (!name) return name.status();
        interest.name_ = std::move(*name);
        saw_name = true;
        break;
      }
      case tlv::kCanBePrefix:
        interest.can_be_prefix_ = true;
        break;
      case tlv::kMustBeFresh:
        interest.must_be_fresh_ = true;
        break;
      case tlv::kNonce: {
        auto v = tlv::Decoder::readNonNegativeInteger(element->value);
        if (!v) return v.status();
        interest.nonce_ = static_cast<std::uint32_t>(*v);
        break;
      }
      case tlv::kInterestLifetime: {
        auto v = tlv::Decoder::readNonNegativeInteger(element->value);
        if (!v) return v.status();
        auto lifetime = decodeMillis(*v);
        if (!lifetime) return lifetime.status();
        interest.lifetime_ = *lifetime;
        break;
      }
      case tlv::kHopLimit: {
        auto v = tlv::Decoder::readNonNegativeInteger(element->value);
        if (!v) return v.status();
        interest.hop_limit_ = static_cast<std::uint8_t>(*v);
        break;
      }
      case tlv::kApplicationParameters:
        interest.app_parameters_ = SharedBytes(
            std::vector<std::uint8_t>(element->value.begin(), element->value.end()));
        break;
      case tlv::kExcludeDigest: {
        auto v = tlv::Decoder::readNonNegativeInteger(element->value);
        if (!v) return v.status();
        interest.exclude_digest_ = *v;
        break;
      }
      default:
        // Unknown non-critical elements are skipped (NDN evolvability rule).
        break;
    }
  }
  if (!saw_name) return Status::InvalidArgument("Interest missing Name");
  return interest;
}

std::uint64_t Interest::applicationParametersDigest() const {
  if (!app_parameters_digest_) app_parameters_digest_ = fnv1a(app_parameters_.get());
  return *app_parameters_digest_;
}

std::uint64_t Data::computeDigest() const {
  // XXH64 over the content, seeded with the name's memoized hash and the
  // metainfo; stands in for DigestSha256. Each fold (xor, then multiply
  // by an odd constant) is a bijection in the value it adds, so a new
  // name hash, content type or freshness period always moves the seed.
  constexpr std::uint64_t kFold = 0x9E3779B185EBCA87ULL;
  std::uint64_t seed = name_.hash();
  seed = (seed ^ static_cast<std::uint64_t>(content_type_)) * kFold;
  seed = (seed ^ static_cast<std::uint64_t>(freshness_.toNanos())) * kFold;
  return xxh64(content(), seed);
}

std::uint64_t Data::contentDigest() const {
  if (!digest_) digest_ = computeDigest();
  return *digest_;
}

Data& Data::sign() {
  signature_ = contentDigest();
  wire_size_cache_ = 0;  // the SignatureValue block changes the encoding
  return *this;
}

bool Data::verify() const { return signature_ && *signature_ == contentDigest(); }

tlv::Buffer Data::wireEncode() const {
  tlv::Encoder inner;
  encodeName(inner, name_);

  tlv::Encoder meta;
  meta.writeNonNegativeInteger(tlv::kContentType,
                               static_cast<std::uint64_t>(content_type_));
  meta.writeNonNegativeInteger(tlv::kFreshnessPeriod, wireMillis(freshness_));
  inner.writeNested(tlv::kMetaInfo, meta);

  inner.writeBlock(tlv::kContent, content());

  tlv::Encoder sigInfo;
  sigInfo.writeNonNegativeInteger(tlv::kSignatureType, 0);  // DigestSha256 stand-in
  inner.writeNested(tlv::kSignatureInfo, sigInfo);
  if (signature_) {
    tlv::Encoder sigValue;
    sigValue.writeNonNegativeInteger(tlv::kSignatureValue, *signature_);
    inner.writeNested(tlv::kSignatureValue, sigValue);
  }

  tlv::Encoder outer;
  outer.writeNested(tlv::kData, inner);
  return outer.takeBuffer();
}

std::size_t Data::computeWireSize() const {
  // Mirrors wireEncode() field by field.
  const std::size_t meta =
      tlv::nonNegativeIntegerSize(tlv::kContentType,
                                  static_cast<std::uint64_t>(content_type_)) +
      tlv::nonNegativeIntegerSize(tlv::kFreshnessPeriod, wireMillis(freshness_));
  std::size_t inner = nameBlockSize(name_) + tlv::blockSize(tlv::kMetaInfo, meta) +
                      tlv::blockSize(tlv::kContent, content_.size()) +
                      tlv::blockSize(tlv::kSignatureInfo,
                                     tlv::nonNegativeIntegerSize(tlv::kSignatureType, 0));
  if (signature_) {
    inner += tlv::blockSize(
        tlv::kSignatureValue,
        tlv::nonNegativeIntegerSize(tlv::kSignatureValue, *signature_));
  }
  return tlv::blockSize(tlv::kData, inner);
}

Result<Data> Data::wireDecode(std::span<const std::uint8_t> wire) {
  tlv::Decoder outer(wire);
  auto top = outer.readElement(tlv::kData);
  if (!top) return top.status();

  Data data;
  tlv::Decoder decoder(top->value);
  bool saw_name = false;
  while (!decoder.atEnd()) {
    auto element = decoder.readElement();
    if (!element) return element.status();
    switch (element->type) {
      case tlv::kName: {
        auto name = Name::fromWire(element->value);
        if (!name) return name.status();
        data.name_ = std::move(*name);
        saw_name = true;
        break;
      }
      case tlv::kMetaInfo: {
        tlv::Decoder meta(element->value);
        while (!meta.atEnd()) {
          auto field = meta.readElement();
          if (!field) return field.status();
          auto v = tlv::Decoder::readNonNegativeInteger(field->value);
          if (!v) return v.status();
          if (field->type == tlv::kContentType) {
            data.content_type_ = static_cast<ContentType>(*v);
          } else if (field->type == tlv::kFreshnessPeriod) {
            auto freshness = decodeMillis(*v);
            if (!freshness) return freshness.status();
            data.freshness_ = *freshness;
          }
        }
        break;
      }
      case tlv::kContent:
        data.content_ = SharedBytes(
            std::vector<std::uint8_t>(element->value.begin(), element->value.end()));
        break;
      case tlv::kSignatureInfo:
        break;  // only one signature type supported
      case tlv::kSignatureValue: {
        tlv::Decoder sig(element->value);
        auto field = sig.readElement(tlv::kSignatureValue);
        if (!field) return field.status();
        auto v = tlv::Decoder::readNonNegativeInteger(field->value);
        if (!v) return v.status();
        data.signature_ = *v;
        break;
      }
      default:
        break;
    }
  }
  if (!saw_name) return Status::InvalidArgument("Data missing Name");
  return data;
}

std::string_view nackReasonName(NackReason reason) noexcept {
  switch (reason) {
    case NackReason::kNone:
      return "None";
    case NackReason::kCongestion:
      return "Congestion";
    case NackReason::kDuplicate:
      return "Duplicate";
    case NackReason::kQuotaExceeded:
      return "QuotaExceeded";
    case NackReason::kNoRoute:
      return "NoRoute";
  }
  return "Unknown";
}

}  // namespace lidc::ndn
