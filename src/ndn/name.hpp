// NDN hierarchical names. A Name is an ordered list of components
// (arbitrary byte strings); the URI form is '/'-separated with
// percent-escaping of non-URI-safe bytes, per the NDN naming conventions.
// Names are the addressing primitive of all of LIDC: computations, data,
// status checks, and service endpoints are all Names.
//
// A Name stores the value of its Name TLV — canonical component TLVs
// back to back — in one buffer. Copying a name is one allocation,
// encoding it is one block copy, equality and ordering are memcmp, and
// table lookups probe with NamePrefix views into the buffer instead of
// copies of each prefix.
#pragma once

#include <compare>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ndn/tlv.hpp"

namespace lidc::ndn {

/// Non-owning view of one name component's bytes. It points into the
/// Name or Component it came from, so it must neither outlive that
/// owner nor be held across a mutation of it.
class ComponentView {
 public:
  constexpr ComponentView() noexcept = default;
  constexpr explicit ComponentView(std::span<const std::uint8_t> value) noexcept
      : value_(value) {}

  [[nodiscard]] std::span<const std::uint8_t> value() const noexcept { return value_; }
  [[nodiscard]] std::size_t size() const noexcept { return value_.size(); }

  /// Raw bytes as string (no escaping).
  [[nodiscard]] std::string toString() const { return {value_.begin(), value_.end()}; }
  /// Percent-escaped URI form.
  [[nodiscard]] std::string toEscapedString() const;

  /// Canonical NDN order: shorter first, then lexicographic.
  [[nodiscard]] std::strong_ordering compare(ComponentView other) const noexcept;

  friend bool operator==(ComponentView a, ComponentView b) noexcept {
    return a.compare(b) == std::strong_ordering::equal;
  }

 private:
  std::span<const std::uint8_t> value_;
};

/// One name component that owns its bytes: what names are built from.
class Component {
 public:
  Component() = default;
  explicit Component(std::vector<std::uint8_t> value) : value_(std::move(value)) {}
  /// Builds from raw text (no unescaping).
  explicit Component(std::string_view text)
      : value_(text.begin(), text.end()) {}

  /// Parses one percent-escaped URI component ("mem%3D4" -> "mem=4").
  static std::optional<Component> fromEscaped(std::string_view escaped);

  [[nodiscard]] const std::vector<std::uint8_t>& value() const noexcept { return value_; }
  [[nodiscard]] bool empty() const noexcept { return value_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return value_.size(); }
  [[nodiscard]] ComponentView view() const noexcept { return ComponentView(value_); }

  /// Raw bytes as string (no escaping).
  [[nodiscard]] std::string toString() const { return view().toString(); }
  /// Percent-escaped URI form.
  [[nodiscard]] std::string toEscapedString() const { return view().toEscapedString(); }

  /// Canonical NDN order: shorter first, then lexicographic.
  [[nodiscard]] std::strong_ordering compare(const Component& other) const noexcept {
    return view().compare(other.view());
  }

  friend bool operator==(const Component& a, const Component& b) noexcept {
    return a.value_ == b.value_;
  }
  friend std::strong_ordering operator<=>(const Component& a,
                                          const Component& b) noexcept {
    return a.compare(b);
  }

 private:
  std::vector<std::uint8_t> value_;
};

/// Hierarchical NDN name, e.g. /ndn/k8s/compute/mem=4&cpu=6&app=BLAST.
class Name {
 public:
  /// Forward iterator over the components, yielding ComponentViews.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = ComponentView;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = ComponentView;

    const_iterator() = default;
    explicit const_iterator(const std::uint8_t* at) noexcept : at_(at) {}

    ComponentView operator*() const noexcept {
      const Header header = readHeader(at_);
      return ComponentView({at_ + header.size, header.valueSize});
    }
    const_iterator& operator++() noexcept {
      const Header header = readHeader(at_);
      at_ += header.size + header.valueSize;
      return *this;
    }
    const_iterator operator++(int) noexcept {
      const_iterator before = *this;
      ++*this;
      return before;
    }
    friend bool operator==(const_iterator a, const_iterator b) noexcept {
      return a.at_ == b.at_;
    }

   private:
    const std::uint8_t* at_ = nullptr;
  };

  Name() = default;
  Name(const Name&) = default;
  Name& operator=(const Name&) = default;
  /// A moved-from name is empty, so its count never outlives its bytes.
  Name(Name&& other) noexcept
      : wire_(std::move(other.wire_)),
        size_(std::exchange(other.size_, 0)),
        hash_(std::exchange(other.hash_, 0)) {}
  Name& operator=(Name&& other) noexcept {
    if (this == &other) return *this;
    wire_ = std::move(other.wire_);
    other.wire_.clear();
    size_ = std::exchange(other.size_, 0);
    hash_ = std::exchange(other.hash_, 0);
    return *this;
  }
  /// Parses a URI like "/ndn/k8s/data/human-ref". Empty segments collapse.
  // NOLINTNEXTLINE(google-explicit-constructor): URI literals read naturally.
  Name(std::string_view uri);
  Name(const char* uri) : Name(std::string_view(uri)) {}

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// Component `i`; throws std::out_of_range past the end.
  [[nodiscard]] ComponentView at(std::size_t i) const;
  /// Component `i`, which must exist.
  [[nodiscard]] ComponentView operator[](std::size_t i) const noexcept;
  [[nodiscard]] const_iterator begin() const noexcept {
    return const_iterator(wire_.data());
  }
  [[nodiscard]] const_iterator end() const noexcept {
    return const_iterator(wire_.data() + wire_.size());
  }

  /// Appends one component (chainable); it may be one of this name's own.
  Name& append(ComponentView component);
  Name& append(const Component& component) { return append(component.view()); }
  Name& append(std::string_view text) {
    return append(ComponentView(
        {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()}));
  }
  Name& append(const char* text) { return append(std::string_view(text)); }
  /// Appends all components of another name, or of this one.
  Name& append(const Name& suffix);
  /// Appends a decimal number as a text component.
  Name& appendNumber(std::uint64_t number);

  /// Sub-name [start, start+count); count npos-like means "to the end".
  [[nodiscard]] Name subName(std::size_t start,
                             std::size_t count = static_cast<std::size_t>(-1)) const;
  /// First `count` components.
  [[nodiscard]] Name prefix(std::size_t count) const { return subName(0, count); }

  /// True if this name is a prefix of (or equal to) `other`. Component
  /// TLVs parse one way only, so a byte prefix is a component prefix.
  [[nodiscard]] bool isPrefixOf(const Name& other) const noexcept {
    return wire_.size() <= other.wire_.size() &&
           (wire_.empty() ||
            std::memcmp(wire_.data(), other.wire_.data(), wire_.size()) == 0);
  }

  /// Canonical NDN order: shorter-prefix first, then component order.
  [[nodiscard]] std::strong_ordering compare(const Name& other) const noexcept;

  [[nodiscard]] std::string toUri() const;

  friend bool operator==(const Name& a, const Name& b) noexcept {
    return a.wire_ == b.wire_;
  }
  friend std::strong_ordering operator<=>(const Name& a, const Name& b) noexcept {
    return a.compare(b);
  }

  /// FNV-1a over each component's (length low byte, length high byte,
  /// bytes), so component boundaries matter. Memoized; every mutator
  /// resets the memo.
  [[nodiscard]] std::size_t hash() const noexcept {
    if (hash_ == 0) hash_ = computeHash();
    return hash_;
  }

  /// The Name TLV's value: canonical component TLVs back to back.
  [[nodiscard]] std::span<const std::uint8_t> wire() const noexcept { return wire_; }

  /// Builds a name from the value of a Name TLV, validating each
  /// component as a GenericNameComponent and re-encoding it minimally,
  /// so a non-minimal var-number on the wire still yields the name
  /// append() builds.
  static Result<Name> fromWire(std::span<const std::uint8_t> value);

  /// Calls visit(NamePrefix) for prefix(0) .. prefix(size()), shortest
  /// first, in one pass over the buffer: each prefix's hash equals
  /// prefix(k).hash(), and nothing is copied.
  template <typename Visit>
  void forEachPrefix(Visit&& visit) const;

 private:
  /// Size of a component TLV's header (type + length) and of its value.
  struct Header {
    std::size_t size;
    std::size_t valueSize;
  };
  /// Parses the header of the component TLV at `at`. Only canonical
  /// encodings are ever stored: the type is one byte, the length minimal.
  static Header readHeader(const std::uint8_t* at) noexcept {
    const std::uint8_t first = at[1];
    if (first < 253) return {2, first};
    const std::size_t width = first == 253 ? 2 : first == 254 ? 4 : 8;
    std::uint64_t length = 0;
    for (std::size_t i = 0; i < width; ++i) length = (length << 8) | at[2 + i];
    return {2 + width, static_cast<std::size_t>(length)};
  }

  static constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
  /// Folds one component into a running FNV-1a state.
  static std::uint64_t mixComponent(std::uint64_t h, const std::uint8_t* value,
                                    std::size_t length) noexcept {
    auto mix = [&h](std::uint8_t byte) {
      h ^= byte;
      h *= 0x100000001b3ULL;
    };
    mix(static_cast<std::uint8_t>(length & 0xFF));
    mix(static_cast<std::uint8_t>((length >> 8) & 0xFF));
    for (std::size_t i = 0; i < length; ++i) mix(value[i]);
    return h;
  }
  [[nodiscard]] std::size_t computeHash() const noexcept;
  /// Byte offset where component `i` starts (wire_.size() for i == size()).
  [[nodiscard]] std::size_t offsetOf(std::size_t i) const noexcept;

  std::vector<std::uint8_t> wire_;
  std::size_t size_ = 0;
  /// 0 = not computed yet (a name that really hashes to 0 is just
  /// rehashed). Names are used from one thread, like Data's digest memo.
  mutable std::size_t hash_ = 0;
};

/// The first size() components of a Name together with their hash: the
/// key that table lookups probe with instead of a copy of the prefix.
/// It views the Name's buffer, so it must neither outlive the Name nor
/// be held across a mutation of it.
class NamePrefix {
 public:
  /// The whole name.
  explicit NamePrefix(const Name& name) noexcept
      : wire_(name.wire()), size_(name.size()), hash_(name.hash()) {}
  NamePrefix(std::span<const std::uint8_t> wire, std::size_t size,
             std::size_t hash) noexcept
      : wire_(wire), size_(size), hash_(hash) {}

  [[nodiscard]] std::span<const std::uint8_t> wire() const noexcept { return wire_; }
  /// Number of components.
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t hash() const noexcept { return hash_; }

  /// True when `other` holds exactly this prefix's component TLVs.
  [[nodiscard]] bool sameAs(std::span<const std::uint8_t> other) const noexcept {
    return wire_.size() == other.size() &&
           (wire_.empty() || std::memcmp(wire_.data(), other.data(), wire_.size()) == 0);
  }
  friend bool operator==(const NamePrefix& a, const NamePrefix& b) noexcept {
    return a.sameAs(b.wire_);
  }

 private:
  std::span<const std::uint8_t> wire_;
  std::size_t size_;
  std::size_t hash_;
};

template <typename Visit>
void Name::forEachPrefix(Visit&& visit) const {
  const std::uint8_t* const base = wire_.data();
  std::uint64_t h = kFnvOffset;
  std::size_t offset = 0;
  visit(NamePrefix({base, offset}, 0, static_cast<std::size_t>(h)));
  for (std::size_t k = 1; k <= size_; ++k) {
    const Header header = readHeader(base + offset);
    h = mixComponent(h, base + offset + header.size, header.valueSize);
    offset += header.size + header.valueSize;
    visit(NamePrefix({base, offset}, k, static_cast<std::size_t>(h)));
  }
}

std::ostream& operator<<(std::ostream& os, const Name& name);

/// Hash and equality over Name and NamePrefix alike, so a container
/// keyed by Name can be probed with a NamePrefix (heterogeneous lookup)
/// without copying the prefix.
struct NameHash {
  using is_transparent = void;
  std::size_t operator()(const Name& name) const noexcept { return name.hash(); }
  std::size_t operator()(const NamePrefix& prefix) const noexcept {
    return prefix.hash();
  }
};

struct NameEqual {
  using is_transparent = void;
  bool operator()(const Name& a, const Name& b) const noexcept { return a == b; }
  bool operator()(const Name& a, const NamePrefix& b) const noexcept {
    return b.sameAs(a.wire());
  }
  bool operator()(const NamePrefix& a, const Name& b) const noexcept {
    return a.sameAs(b.wire());
  }
};

}  // namespace lidc::ndn
