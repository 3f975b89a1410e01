// 64-bit FNV-1a: the content digest bound into publish names (`sha=`) and
// checkpoint manifests, and the mixer that derives per-name seeds.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

namespace lidc {

/// FNV-1a-64 over `bytes`.
inline std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) noexcept {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const std::uint8_t byte : bytes) {
    hash ^= byte;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// FNV-1a-64 over the bytes of `text`.
inline std::uint64_t fnv1a(std::string_view text) noexcept {
  return fnv1a({reinterpret_cast<const std::uint8_t*>(text.data()), text.size()});
}

}  // namespace lidc
