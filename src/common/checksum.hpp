// Sample payload checksums.
//
// The Data Registry stores a 64-bit checksum per sample, computed once at
// preload time and verified on every fetch, so that a corrupted RMA
// transfer (or a bad chunk byte) is detected before the sample reaches the
// trainer.  Collision resistance against an adversary is not a goal: this
// guards against transport/memory corruption, not tampering.
//
// Algorithm (word-wide, four lanes):
//   * The payload is consumed in 32-byte stripes, one 64-bit word per lane.
//     Each lane round is `lane = rotl(lane + w * P2, 31) * P1`.  P1 and P2
//     are odd, so a round is a bijection of `lane` (for fixed `w`) and of
//     `w` (for fixed `lane`).  The four lanes have no data dependence on
//     each other, so their multiply chains overlap in the pipeline.
//   * One state is seeded from the length, then folds in sequence the four
//     lanes, every remaining whole 8-byte word and every remaining byte.
//     Each fold step is a bijection of the state and of its input.
//   * A xor-shift-multiply finaliser (itself a bijection) spreads the
//     state, then the never-0 remap below applies.
//
// Single-byte guarantee: changing one byte changes exactly one word (or
// one tail byte).  That word enters exactly one round or fold step, which
// is injective in it, so the value it produces differs; every later round
// and fold step is injective in the value carried forward, and the
// finaliser is a bijection, so the digest before the remap differs.  The
// remap can merge only the two digests 0 and kZeroDigest.
//
// Words are loaded with memcpy (no alignment requirement) and read as
// little-endian, byte-swapped on big-endian hosts, so a digest is the same
// on every platform.  A digest is never 0: the registry uses 0 to mean "no
// checksum recorded".
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "common/bytes.hpp"

namespace dds {

namespace detail {

inline constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ULL;
inline constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4FULL;
inline constexpr std::uint64_t kP3 = 0x165667B19E3779F9ULL;
inline constexpr std::uint64_t kP4 = 0x85EBCA77C2B2AE63ULL;
inline constexpr std::uint64_t kP5 = 0x27D4EB2F165667C5ULL;

/// What a digest of 0 is remapped to.
inline constexpr std::uint64_t kZeroDigest = kP1;

inline std::uint64_t load_le64(const std::byte* p) {
  std::uint64_t w;
  std::memcpy(&w, p, sizeof w);
  if constexpr (std::endian::native == std::endian::big) {
    std::uint64_t swapped = 0;
    for (int i = 0; i < 8; ++i) {
      swapped = (swapped << 8) | ((w >> (8 * i)) & 0xFF);
    }
    w = swapped;
  }
  return w;
}

inline std::uint64_t lane_round(std::uint64_t lane, std::uint64_t w) {
  return std::rotl(lane + w * kP2, 31) * kP1;
}

inline std::uint64_t fold_word(std::uint64_t h, std::uint64_t w) {
  return std::rotl(h ^ lane_round(0, w), 27) * kP1 + kP4;
}

inline std::uint64_t never_zero(std::uint64_t h) {
  return h == 0 ? kZeroDigest : h;
}

}  // namespace detail

/// Word-wide 64-bit digest of a byte range (see the header comment).
/// Never returns 0.
inline std::uint64_t checksum64(ByteSpan bytes) {
  using namespace detail;
  const std::byte* p = bytes.data();
  const std::size_t n = bytes.size();
  const std::byte* const end = p + n;

  std::uint64_t v1 = kP1 + kP2;
  std::uint64_t v2 = kP2;
  std::uint64_t v3 = 0;
  std::uint64_t v4 = 0 - kP1;
  for (; end - p >= 32; p += 32) {
    v1 = lane_round(v1, load_le64(p));
    v2 = lane_round(v2, load_le64(p + 8));
    v3 = lane_round(v3, load_le64(p + 16));
    v4 = lane_round(v4, load_le64(p + 24));
  }

  std::uint64_t h = kP5 + static_cast<std::uint64_t>(n) * kP3;
  h = fold_word(h, v1);
  h = fold_word(h, v2);
  h = fold_word(h, v3);
  h = fold_word(h, v4);
  for (; end - p >= 8; p += 8) h = fold_word(h, load_le64(p));
  for (; p < end; ++p) {
    h ^= static_cast<std::uint64_t>(*p) * kP5;
    h = std::rotl(h, 11) * kP1;
  }

  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  h ^= h >> 32;
  return never_zero(h);
}

}  // namespace dds
