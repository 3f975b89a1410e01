// 64-bit FNV-1a: the content digest bound into publish names (`sha=`) and
// checkpoint manifests, and the mixer that derives per-name seeds.
// XXH64: the Data signature digest, which reads whole words.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
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

namespace xxh64_detail {

inline constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
inline constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
inline constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ULL;
inline constexpr std::uint64_t kPrime4 = 0x85EBCA77C2B2AE63ULL;
inline constexpr std::uint64_t kPrime5 = 0x27D4EB2F165667C5ULL;

/// The little-endian word of sizeof(Word) bytes at `at`.
template <typename Word>
Word readLittle(const std::uint8_t* at) noexcept {
  Word word = 0;
  std::memcpy(&word, at, sizeof word);
  if constexpr (std::endian::native == std::endian::big) {
    word = sizeof word == 8 ? static_cast<Word>(__builtin_bswap64(word))
                            : static_cast<Word>(__builtin_bswap32(word));
  }
  return word;
}

inline std::uint64_t laneRound(std::uint64_t acc, std::uint64_t input) noexcept {
  return std::rotl(acc + input * kPrime2, 31) * kPrime1;
}

inline std::uint64_t mergeRound(std::uint64_t acc, std::uint64_t lane) noexcept {
  return (acc ^ laneRound(0, lane)) * kPrime1 + kPrime4;
}

}  // namespace xxh64_detail

/// XXH64 (the reference algorithm of xxHash) over `bytes`. The loops
/// count the bytes left rather than comparing pointers, so an empty span
/// with a null data() does no pointer arithmetic.
inline std::uint64_t xxh64(std::span<const std::uint8_t> bytes,
                           std::uint64_t seed) noexcept {
  using namespace xxh64_detail;
  const std::uint8_t* at = bytes.data();
  std::size_t left = bytes.size();
  std::uint64_t hash = seed + kPrime5;  // inputs under 32 bytes start here
  if (left >= 32) {
    std::uint64_t v1 = seed + kPrime1 + kPrime2;
    std::uint64_t v2 = seed + kPrime2;
    std::uint64_t v3 = seed;
    std::uint64_t v4 = seed - kPrime1;
    do {
      v1 = laneRound(v1, readLittle<std::uint64_t>(at));
      v2 = laneRound(v2, readLittle<std::uint64_t>(at + 8));
      v3 = laneRound(v3, readLittle<std::uint64_t>(at + 16));
      v4 = laneRound(v4, readLittle<std::uint64_t>(at + 24));
      at += 32;
      left -= 32;
    } while (left >= 32);
    hash = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) + std::rotl(v4, 18);
    hash = mergeRound(hash, v1);
    hash = mergeRound(hash, v2);
    hash = mergeRound(hash, v3);
    hash = mergeRound(hash, v4);
  }
  hash += bytes.size();
  for (; left >= 8; left -= 8, at += 8) {
    hash ^= laneRound(0, readLittle<std::uint64_t>(at));
    hash = std::rotl(hash, 27) * kPrime1 + kPrime4;
  }
  if (left >= 4) {
    hash ^= std::uint64_t{readLittle<std::uint32_t>(at)} * kPrime1;
    hash = std::rotl(hash, 23) * kPrime2 + kPrime3;
    at += 4;
    left -= 4;
  }
  for (; left > 0; --left, ++at) {
    hash ^= std::uint64_t{*at} * kPrime5;
    hash = std::rotl(hash, 11) * kPrime1;
  }
  hash ^= hash >> 33;
  hash *= kPrime2;
  hash ^= hash >> 29;
  hash *= kPrime3;
  hash ^= hash >> 32;
  return hash;
}

}  // namespace lidc
