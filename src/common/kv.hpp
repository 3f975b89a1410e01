// One codec for the "key=value;key=value" records LIDC payloads carry
// (DESIGN.md §6, "One k=v codec"). Each payload has one typed
// encode/decode pair next to its struct, which parses its own numbers
// and enums.
#pragma once

#include <algorithm>
#include <array>
#include <charconv>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace lidc::kv {

/// Writes `key=value` fields, joined by ';', in call order, after
/// whatever `out` holds. Inside a value ';' is written as "%3B" and '\n'
/// as "%0A" (Name::toUri's escape), so no value can split a field or end
/// a record. `Out` is std::string, or a byte vector for a record that
/// becomes a Data packet's content as it stands.
template <typename Out>
class BasicWriter {
 public:
  explicit BasicWriter(Out out = {}) noexcept : out_(std::move(out)) {}

  BasicWriter& add(std::string_view key, std::string_view value) {
    if (!first_) out_.push_back(';');
    first_ = false;
    append(key);
    out_.push_back('=');
    for (;;) {
      const std::size_t special = value.find_first_of(";\n");
      append(value.substr(0, special));
      if (special == value.npos) return *this;
      append(value[special] == ';' ? "%3B" : "%0A");
      value.remove_prefix(special + 1);
    }
  }
  /// Decimal, the digits std::to_string writes.
  BasicWriter& add(std::string_view key, std::unsigned_integral auto value) {
    char digits[20];
    const char* end = std::to_chars(digits, digits + sizeof digits, value).ptr;
    return add(key, std::string_view(digits, static_cast<std::size_t>(end - digits)));
  }
  /// The record written, moved out: call it last.
  [[nodiscard]] Out take() noexcept { return std::move(out_); }

 private:
  void append(std::string_view text) {
    out_.insert(out_.end(), text.begin(), text.end());
  }

  Out out_;
  bool first_ = true;
};

using Writer = BasicWriter<std::string>;
using ByteWriter = BasicWriter<std::vector<std::uint8_t>>;

/// One record, read in one pass into (key, value) views of the caller's
/// bytes, which must outlive the reader. Empty fields are skipped and an
/// empty value is allowed. The record is malformed, and reads as empty,
/// when a field has no '=', a key is empty or repeated, there are more
/// than kMaxFields fields, or it holds a raw '\n' (no Writer writes one).
/// Values are not unescaped.
class Reader {
 public:
  static constexpr std::size_t kMaxFields = 16;
  using Field = std::pair<std::string_view, std::string_view>;

  explicit Reader(std::string_view record) noexcept
      : ok_(record.find('\n') == record.npos) {
    while (ok_ && !record.empty()) {
      const std::string_view field = record.substr(0, record.find(';'));
      record.remove_prefix(std::min(field.size() + 1, record.size()));
      if (field.empty()) continue;
      const std::size_t eq = field.find('=');
      ok_ = eq != 0 && eq != field.npos && size_ < kMaxFields &&
            !has(field.substr(0, eq));
      if (ok_) fields_[size_++] = {field.substr(0, eq), field.substr(eq + 1)};
    }
    if (!ok_) size_ = 0;
  }

  [[nodiscard]] bool ok() const noexcept { return ok_; }
  [[nodiscard]] bool has(std::string_view key) const noexcept {
    return find(key) != end();
  }
  /// The value of `key`; empty when the key is absent.
  [[nodiscard]] std::string_view get(std::string_view key) const noexcept {
    const Field* field = find(key);
    return field == end() ? std::string_view() : field->second;
  }
  [[nodiscard]] const Field* begin() const noexcept { return fields_.data(); }
  [[nodiscard]] const Field* end() const noexcept { return fields_.data() + size_; }

 private:
  [[nodiscard]] const Field* find(std::string_view key) const noexcept {
    return std::find_if(begin(), end(),
                        [key](const Field& f) { return f.first == key; });
  }

  std::array<Field, kMaxFields> fields_{};
  std::size_t size_ = 0;
  bool ok_;
};

}  // namespace lidc::kv
