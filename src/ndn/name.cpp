#include "ndn/name.hpp"

#include <algorithm>
#include <functional>
#include <ostream>
#include <stdexcept>

#include "common/strings.hpp"

namespace lidc::ndn {

namespace {

constexpr bool isUriUnreserved(std::uint8_t c) noexcept {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
         c == '-' || c == '.' || c == '_' || c == '~' ||
         // Kept readable in LIDC semantic names:
         c == '=' || c == '&' || c == '+' || c == ':';
}

constexpr char kHexDigits[] = "0123456789ABCDEF";

int hexValue(char c) noexcept {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

/// Byte length of a percent-escaped component once unescaped, or
/// nullopt when an escape is malformed.
std::optional<std::size_t> unescapedSize(std::string_view escaped) noexcept {
  std::size_t size = escaped.size();
  for (std::size_t i = escaped.find('%'); i != std::string_view::npos;
       i = escaped.find('%', i + 3)) {
    if (i + 2 >= escaped.size()) return std::nullopt;
    if (hexValue(escaped[i + 1]) < 0 || hexValue(escaped[i + 2]) < 0) return std::nullopt;
    size -= 2;
  }
  return size;
}

/// Appends the unescaped bytes of a component unescapedSize() accepted,
/// copying each run between escapes in one piece.
void appendUnescaped(std::string_view escaped, std::vector<std::uint8_t>& out) {
  while (true) {
    const std::size_t percent = std::min(escaped.find('%'), escaped.size());
    out.insert(out.end(), escaped.begin(), escaped.begin() + static_cast<long>(percent));
    if (percent == escaped.size()) return;
    out.push_back(static_cast<std::uint8_t>(hexValue(escaped[percent + 1]) * 16 +
                                            hexValue(escaped[percent + 2])));
    escaped.remove_prefix(percent + 3);
  }
}

/// Calls f(segment) for every non-empty '/'-separated segment of `uri`.
template <typename F>
void forEachSegment(std::string_view uri, F&& f) {
  std::size_t start = 0;
  while (start < uri.size()) {
    std::size_t end = uri.find('/', start);
    if (end == std::string_view::npos) end = uri.size();
    if (end > start) f(uri.substr(start, end - start));
    start = end + 1;
  }
}

void appendHeader(std::vector<std::uint8_t>& wire, std::size_t valueSize) {
  wire.push_back(static_cast<std::uint8_t>(tlv::kGenericNameComponent));
  tlv::appendVarNumber(wire, valueSize);
}

}  // namespace

std::optional<Component> Component::fromEscaped(std::string_view escaped) {
  const auto size = unescapedSize(escaped);
  if (!size) return std::nullopt;
  std::vector<std::uint8_t> bytes;
  bytes.reserve(*size);
  appendUnescaped(escaped, bytes);
  return Component(std::move(bytes));
}

std::string ComponentView::toEscapedString() const {
  std::string out;
  out.reserve(value_.size());
  for (std::uint8_t byte : value_) {
    if (isUriUnreserved(byte)) {
      out.push_back(static_cast<char>(byte));
    } else {
      out.push_back('%');
      out.push_back(kHexDigits[byte >> 4]);
      out.push_back(kHexDigits[byte & 0x0F]);
    }
  }
  return out;
}

std::strong_ordering ComponentView::compare(ComponentView other) const noexcept {
  // NDN canonical order: shorter components sort first.
  if (value_.size() != other.value_.size()) {
    return value_.size() < other.value_.size() ? std::strong_ordering::less
                                               : std::strong_ordering::greater;
  }
  const int cmp = value_.empty()
                      ? 0
                      : std::memcmp(value_.data(), other.value_.data(), value_.size());
  if (cmp < 0) return std::strong_ordering::less;
  if (cmp > 0) return std::strong_ordering::greater;
  return std::strong_ordering::equal;
}

Name::Name(std::string_view uri) {
  // Accept both "/a/b" and "ndn:/a/b".
  if (strings::startsWith(uri, "ndn:")) uri.remove_prefix(4);
  // Size the buffer exactly, then unescape each segment straight into it.
  // A malformed escape keeps the raw text so the name is still usable.
  std::size_t total = 0;
  forEachSegment(uri, [&total](std::string_view segment) {
    total += tlv::blockSize(tlv::kGenericNameComponent,
                            unescapedSize(segment).value_or(segment.size()));
  });
  wire_.reserve(total);
  forEachSegment(uri, [this](std::string_view segment) {
    if (const auto size = unescapedSize(segment)) {
      appendHeader(wire_, *size);
      appendUnescaped(segment, wire_);
    } else {
      appendHeader(wire_, segment.size());
      wire_.insert(wire_.end(), segment.begin(), segment.end());
    }
    ++size_;
  });
}

Result<Name> Name::fromWire(std::span<const std::uint8_t> value) {
  // append() re-encodes each component minimally, which never makes it
  // longer than on the wire, so the reserve is the only allocation.
  Name name;
  name.wire_.reserve(value.size());
  for (tlv::Decoder decoder(value); !decoder.atEnd();) {
    auto element = decoder.readElement(tlv::kGenericNameComponent);
    if (!element) return element.status();
    name.append(ComponentView(element->value));
  }
  return name;
}

ComponentView Name::at(std::size_t i) const {
  if (i >= size_) throw std::out_of_range("Name::at: component index out of range");
  return (*this)[i];
}

ComponentView Name::operator[](std::size_t i) const noexcept {
  return *const_iterator(wire_.data() + offsetOf(i));
}

std::size_t Name::offsetOf(std::size_t i) const noexcept {
  std::size_t offset = 0;
  for (; i > 0; --i) {
    const Header header = readHeader(wire_.data() + offset);
    offset += header.size + header.valueSize;
  }
  return offset;
}

Name& Name::append(ComponentView component) {
  const std::span<const std::uint8_t> value = component.value();
  // A view of this very name (n.append(n[0])) dangles once the buffer
  // grows, so append a copy of it instead.
  if (!value.empty() && std::less_equal<>()(wire_.data(), value.data()) &&
      std::less<>()(value.data(), wire_.data() + wire_.size())) {
    return append(Component(std::vector<std::uint8_t>(value.begin(), value.end())));
  }
  appendHeader(wire_, value.size());
  wire_.insert(wire_.end(), value.begin(), value.end());
  ++size_;
  hash_ = 0;
  return *this;
}

Name& Name::append(const Name& suffix) {
  // vector::insert may not read from the vector it grows.
  if (&suffix == this) return append(Name(suffix));
  wire_.insert(wire_.end(), suffix.wire_.begin(), suffix.wire_.end());
  size_ += suffix.size_;
  hash_ = 0;
  return *this;
}

Name& Name::appendNumber(std::uint64_t number) {
  return append(std::string_view(std::to_string(number)));
}

Name Name::subName(std::size_t start, std::size_t count) const {
  Name out;
  if (start >= size_) return out;
  const std::size_t end = count == static_cast<std::size_t>(-1)
                              ? size_
                              : std::min(size_, start + count);
  const std::size_t from = offsetOf(start);
  std::size_t to = from;
  for (std::size_t i = start; i < end; ++i) {
    const Header header = readHeader(wire_.data() + to);
    to += header.size + header.valueSize;
  }
  out.wire_.assign(wire_.begin() + static_cast<long>(from),
                   wire_.begin() + static_cast<long>(to));
  out.size_ = end - start;
  return out;
}

std::strong_ordering Name::compare(const Name& other) const noexcept {
  // memcmp over the component TLVs is NDN canonical order. The names
  // agree up to the first differing component; there the type bytes are
  // equal, and minimal var-number lengths sort numerically (a 1-byte
  // length is below 253, and the 253/254/255 markers of the 3/5/9-byte
  // forms order by width, then big-endian by value), so a shorter
  // component sorts first and equal lengths fall through to the value
  // bytes. When one name is a prefix of the other, the shorter sorts
  // first: that is the length tie-break.
  const std::size_t common = std::min(wire_.size(), other.wire_.size());
  const int cmp = common == 0 ? 0 : std::memcmp(wire_.data(), other.wire_.data(), common);
  if (cmp != 0) return cmp < 0 ? std::strong_ordering::less : std::strong_ordering::greater;
  return wire_.size() <=> other.wire_.size();
}

std::string Name::toUri() const {
  if (empty()) return "/";
  std::string out;
  for (const ComponentView component : *this) {
    out += '/';
    out += component.toEscapedString();
  }
  return out;
}

std::size_t Name::computeHash() const noexcept {
  std::uint64_t h = kFnvOffset;
  for (const ComponentView component : *this) {
    h = mixComponent(h, component.value().data(), component.size());
  }
  return static_cast<std::size_t>(h);
}

std::ostream& operator<<(std::ostream& os, const Name& name) {
  return os << name.toUri();
}

}  // namespace lidc::ndn
