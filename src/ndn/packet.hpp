// NDN Interest / Data / Nack packets with real TLV wire encoding.
// LIDC compute requests are Interests whose names carry semantic job
// descriptions; results and acknowledgements travel as Data.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "ndn/name.hpp"
#include "ndn/tlv.hpp"
#include "sim/time.hpp"
#include "telemetry/flow_label.hpp"
#include "telemetry/trace_context.hpp"

namespace lidc::ndn {

/// Immutable, reference-counted packet bytes: Data content and Interest
/// ApplicationParameters. Copies share one buffer, so a packet crossing
/// faces, links, the PIT and the CS is never re-copied. Changing a
/// packet's bytes always builds a new buffer; a shared one is never
/// edited, so other holders keep seeing exactly what they were given.
class SharedBytes {
 public:
  SharedBytes() = default;
  explicit SharedBytes(std::vector<std::uint8_t> bytes)
      : bytes_(bytes.empty() ? nullptr
                             : std::make_shared<const std::vector<std::uint8_t>>(
                                   std::move(bytes))) {}

  [[nodiscard]] const std::vector<std::uint8_t>& get() const noexcept {
    static const std::vector<std::uint8_t> kEmpty;
    return bytes_ ? *bytes_ : kEmpty;
  }
  [[nodiscard]] std::size_t size() const noexcept { return bytes_ ? bytes_->size() : 0; }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }

 private:
  std::shared_ptr<const std::vector<std::uint8_t>> bytes_;  // null = empty
};

/// An Interest requests the Data identified (or prefixed) by its Name.
class Interest {
 public:
  Interest() = default;
  explicit Interest(Name name) : name_(std::move(name)) {}

  [[nodiscard]] const Name& name() const noexcept { return name_; }
  void setName(Name name) {
    name_ = std::move(name);
    wire_size_cache_ = 0;
  }

  [[nodiscard]] bool canBePrefix() const noexcept { return can_be_prefix_; }
  Interest& setCanBePrefix(bool v) noexcept {
    can_be_prefix_ = v;
    wire_size_cache_ = 0;
    return *this;
  }

  [[nodiscard]] bool mustBeFresh() const noexcept { return must_be_fresh_; }
  Interest& setMustBeFresh(bool v) noexcept {
    must_be_fresh_ = v;
    wire_size_cache_ = 0;
    return *this;
  }

  [[nodiscard]] std::uint32_t nonce() const noexcept { return nonce_; }
  Interest& setNonce(std::uint32_t nonce) noexcept {
    nonce_ = nonce;
    wire_size_cache_ = 0;
    return *this;
  }

  [[nodiscard]] sim::Duration lifetime() const noexcept { return lifetime_; }
  Interest& setLifetime(sim::Duration lifetime) noexcept {
    lifetime_ = lifetime;
    wire_size_cache_ = 0;
    return *this;
  }

  [[nodiscard]] std::uint8_t hopLimit() const noexcept { return hop_limit_; }
  /// The hop limit is a 1-byte field whatever its value, so the per-hop
  /// decrement (in a link face's copy on the wire) keeps the cached
  /// wire size.
  Interest& setHopLimit(std::uint8_t limit) noexcept {
    hop_limit_ = limit;
    return *this;
  }

  /// Digest exclusion hint: a re-expressed Interest carrying the digest
  /// of a Data packet that failed verification asks content stores to
  /// skip that exact (poisoned) copy and go further upstream.
  [[nodiscard]] std::optional<std::uint64_t> excludeDigest() const noexcept {
    return exclude_digest_;
  }
  Interest& setExcludeDigest(std::uint64_t digest) noexcept {
    exclude_digest_ = digest;
    wire_size_cache_ = 0;
    return *this;
  }

  /// Shared with every copy of this Interest; do not hold the reference
  /// across a setter on the same packet.
  [[nodiscard]] const std::vector<std::uint8_t>& applicationParameters()
      const noexcept {
    return app_parameters_.get();
  }
  Interest& setApplicationParameters(std::vector<std::uint8_t> params) {
    app_parameters_ = SharedBytes(std::move(params));
    app_parameters_digest_.reset();
    wire_size_cache_ = 0;
    return *this;
  }
  Interest& setApplicationParameters(std::string_view text) {
    return setApplicationParameters(
        std::vector<std::uint8_t>(text.begin(), text.end()));
  }
  /// fnv1a() of the ApplicationParameters (common/hash.hpp), the value a
  /// publish name's `sha=` component carries. Memoized like Data's
  /// digest: computed once however many sites ask, carried by copies,
  /// reset by setApplicationParameters.
  [[nodiscard]] std::uint64_t applicationParametersDigest() const;

  /// Trace context carried alongside the packet (like an NDNLPv2
  /// hop-by-hop header): not part of the name, the wire encoding, or
  /// CS/PIT matching, so tracing never perturbs forwarding behaviour.
  [[nodiscard]] telemetry::TraceContext traceContext() const noexcept {
    return trace_;
  }
  Interest& setTraceContext(telemetry::TraceContext ctx) noexcept {
    trace_ = ctx;
    return *this;
  }

  /// Flow-attribution label, carried hop-by-hop exactly like the trace
  /// context: never part of the name/wire/CS/PIT matching, so flow
  /// accounting cannot perturb forwarding or result caching.
  [[nodiscard]] const telemetry::FlowLabel& flowLabel() const noexcept {
    return flow_label_;
  }
  Interest& setFlowLabel(telemetry::FlowLabel label) {
    flow_label_ = std::move(label);
    return *this;
  }

  /// Full TLV wire encoding.
  [[nodiscard]] tlv::Buffer wireEncode() const;
  static Result<Interest> wireDecode(std::span<const std::uint8_t> wire);

  /// Size of the wire encoding in bytes (used for link transmission
  /// delay and per-link byte accounting). It is summed from the TLV
  /// field lengths, never by encoding, and always equals
  /// wireEncode().size(). It is cached until a wire-visible setter
  /// dirties it; trace context and flow label ride outside the encoding
  /// and never invalidate.
  [[nodiscard]] std::size_t wireSize() const {
    if (wire_size_cache_ == 0) wire_size_cache_ = computeWireSize();
    return wire_size_cache_;
  }

 private:
  [[nodiscard]] std::size_t computeWireSize() const;

  Name name_;
  bool can_be_prefix_ = false;
  bool must_be_fresh_ = false;
  std::uint32_t nonce_ = 0;
  sim::Duration lifetime_ = sim::Duration::millis(4000);
  std::uint8_t hop_limit_ = 64;
  std::optional<std::uint64_t> exclude_digest_;
  SharedBytes app_parameters_;
  /// Memoized applicationParametersDigest(); kept here rather than in
  /// the shared buffer, which every Data content also uses.
  mutable std::optional<std::uint64_t> app_parameters_digest_;
  telemetry::TraceContext trace_;
  telemetry::FlowLabel flow_label_;
  /// 0 = unknown (a TLV encoding is never empty).
  mutable std::size_t wire_size_cache_ = 0;
};

/// Content type codes (subset of the NDN spec).
enum class ContentType : std::uint32_t {
  kBlob = 0,
  kLink = 1,
  kKey = 2,
  kNack = 3,  // application-level NACK content
};

/// A Data packet carries named, signed content.
class Data {
 public:
  Data() = default;
  explicit Data(Name name) : name_(std::move(name)) {}

  [[nodiscard]] const Name& name() const noexcept { return name_; }
  void setName(Name name) {
    name_ = std::move(name);
    fieldsChanged();
  }

  /// Shared with every copy of this Data; do not hold the reference
  /// across a setter on the same packet.
  [[nodiscard]] const std::vector<std::uint8_t>& content() const noexcept {
    return content_.get();
  }
  /// The content buffer itself, for holders that keep the bytes beyond
  /// this packet's lifetime without copying them.
  [[nodiscard]] const SharedBytes& sharedContent() const noexcept { return content_; }
  Data& setContent(std::vector<std::uint8_t> content) {
    content_ = SharedBytes(std::move(content));
    fieldsChanged();
    return *this;
  }
  Data& setContent(std::string_view text) {
    return setContent(std::vector<std::uint8_t>(text.begin(), text.end()));
  }
  [[nodiscard]] std::string contentAsString() const {
    return {content().begin(), content().end()};
  }
  /// The content as text, viewing this packet's bytes (same lifetime
  /// rule as content()).
  [[nodiscard]] std::string_view contentView() const noexcept {
    return {reinterpret_cast<const char*>(content().data()), content().size()};
  }

  Data& setContentType(ContentType type) noexcept {
    content_type_ = type;
    fieldsChanged();
    return *this;
  }

  /// How long a cached copy may satisfy MustBeFresh Interests.
  [[nodiscard]] sim::Duration freshnessPeriod() const noexcept { return freshness_; }
  Data& setFreshnessPeriod(sim::Duration period) noexcept {
    freshness_ = period;
    fieldsChanged();
    return *this;
  }

  /// Computes and attaches the (simulated DigestSha256-style) signature:
  /// XXH64 of the content, seeded from the name and the metainfo.
  Data& sign();
  /// True if a signature is present and matches the payload.
  [[nodiscard]] bool verify() const;
  /// True once sign() has run (or a signature arrived on the wire).
  [[nodiscard]] bool hasSignature() const noexcept { return signature_.has_value(); }
  /// Digest of the packet as it stands now — the value a matching
  /// excludeDigest hint would carry for this exact copy.
  [[nodiscard]] std::uint64_t contentDigest() const;

  [[nodiscard]] tlv::Buffer wireEncode() const;
  static Result<Data> wireDecode(std::span<const std::uint8_t> wire);

  /// Computed and cached like Interest::wireSize(): flow attribution and
  /// the face byte counters ask for the size of every Data crossing a
  /// link.
  [[nodiscard]] std::size_t wireSize() const {
    if (wire_size_cache_ == 0) wire_size_cache_ = computeWireSize();
    return wire_size_cache_;
  }

 private:
  [[nodiscard]] std::uint64_t computeDigest() const;
  [[nodiscard]] std::size_t computeWireSize() const;
  /// Every setter of a digested field calls this, so neither a stale
  /// digest nor a stale size can outlive the fields they describe.
  void fieldsChanged() noexcept {
    digest_.reset();
    wire_size_cache_ = 0;
  }

  Name name_;
  SharedBytes content_;
  ContentType content_type_ = ContentType::kBlob;
  sim::Duration freshness_ = sim::Duration::millis(0);
  std::optional<std::uint64_t> signature_;
  /// Memoized computeDigest(): each packet is hashed once however many
  /// sites verify it (forwarder ingress, CS insert and hit, AppFace,
  /// consumers), and copies carry the memo along. Same single-thread
  /// contract as the wire-size cache.
  mutable std::optional<std::uint64_t> digest_;
  /// 0 = unknown (a TLV encoding is never empty).
  mutable std::size_t wire_size_cache_ = 0;
};

/// Network NACK reasons (NDNLPv2 subset).
enum class NackReason : std::uint32_t {
  kNone = 0,
  kCongestion = 50,
  kDuplicate = 100,
  /// Producer-side quota/rate rejection. Less severe than kNoRoute (the
  /// consumer can retry after backoff) but unlike kCongestion it must
  /// not trigger an immediate failover storm: the consumer's quota is
  /// exhausted everywhere, not just on this path.
  kQuotaExceeded = 140,
  kNoRoute = 150,
};

std::string_view nackReasonName(NackReason reason) noexcept;

/// A Nack rejects a specific Interest (carried alongside it).
class Nack {
 public:
  Nack() = default;
  Nack(Interest interest, NackReason reason)
      : interest_(std::move(interest)), reason_(reason) {}

  [[nodiscard]] const Interest& interest() const noexcept { return interest_; }
  [[nodiscard]] NackReason reason() const noexcept { return reason_; }

 private:
  Interest interest_;
  NackReason reason_ = NackReason::kNone;
};

}  // namespace lidc::ndn
