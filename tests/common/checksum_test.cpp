// Tests for the sample payload checksum: pinned digests, single-byte
// sensitivity on every code path (stripes, tail words, tail bytes),
// length sensitivity, alignment independence and the never-0 contract.
#include "common/checksum.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <set>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "datagen/molecule.hpp"

namespace dds {
namespace {

ByteBuffer bytes_of(std::string_view s) {
  ByteBuffer out(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    out[i] = static_cast<std::byte>(s[i]);
  }
  return out;
}

/// A fixed non-constant byte pattern (neighbouring bytes always differ).
ByteBuffer counting(std::size_t n) {
  ByteBuffer out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::byte>(i * 37 + 11);
  }
  return out;
}

ByteBuffer molecule_bytes() {
  Rng rng(42);
  const datagen::Molecule mol = datagen::generate_molecule(rng);
  return datagen::molecule_to_sample(mol, 7).to_bytes();
}

/// Flips every byte of `buf` with each mask in turn; no flip may leave the
/// digest unchanged.
void expect_every_flip_detected(ByteBuffer buf) {
  const std::uint64_t clean = checksum64(ByteSpan(buf));
  for (std::size_t pos = 0; pos < buf.size(); ++pos) {
    for (const unsigned mask : {0x01u, 0x80u, 0xFFu}) {
      buf[pos] ^= static_cast<std::byte>(mask);
      EXPECT_NE(checksum64(ByteSpan(buf)), clean)
          << "length " << buf.size() << " position " << pos << " mask "
          << mask;
      buf[pos] ^= static_cast<std::byte>(mask);
    }
  }
}

TEST(Checksum, GoldenDigests) {
  // Pinned values: a change here changes every digest the registry
  // records, so it must be deliberate.  Little-endian loads make them the
  // same on every platform.
  EXPECT_EQ(checksum64(ByteSpan()), 0xF0CB58107A7055CAULL);
  EXPECT_EQ(checksum64(ByteSpan(bytes_of("a"))), 0x882858D62FEE1BD8ULL);
  EXPECT_EQ(checksum64(ByteSpan(bytes_of("ddstore"))), 0x130657E33AD677EDULL);
  EXPECT_EQ(checksum64(ByteSpan(bytes_of("0123456789abcdef"))),
            0x71E8E1A2ABD3769BULL);
  EXPECT_EQ(checksum64(ByteSpan(counting(100))), 0x2F97C3F006BEDF27ULL);
  EXPECT_EQ(checksum64(ByteSpan(counting(4096))), 0xE70FC840F9D31EFAULL);
}

TEST(Checksum, EverySingleByteFlipIsDetectedForLengthsUpTo100) {
  // Lengths 1..100 cover payloads with no stripe, one to three stripes,
  // 0..3 trailing words and 0..7 trailing bytes.
  for (std::size_t n = 1; n <= 100; ++n) {
    expect_every_flip_detected(counting(n));
  }
}

TEST(Checksum, EverySingleByteFlipIsDetectedInAMoleculeSample) {
  const ByteBuffer sample = molecule_bytes();
  ASSERT_GT(sample.size(), 100u);
  expect_every_flip_detected(sample);
}

TEST(Checksum, AllZeroPayloadsDifferByLength) {
  std::set<std::uint64_t> seen;
  for (std::size_t n = 0; n <= 64; ++n) {
    const ByteBuffer zeros(n, std::byte{0});
    EXPECT_TRUE(seen.insert(checksum64(ByteSpan(zeros))).second)
        << "length " << n;
  }
}

TEST(Checksum, DigestIgnoresBufferAlignment) {
  const ByteBuffer payload = molecule_bytes();
  const std::uint64_t expected = checksum64(ByteSpan(payload));
  ByteBuffer backing(payload.size() + 8);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    std::copy(payload.begin(), payload.end(),
              backing.begin() + static_cast<std::ptrdiff_t>(offset));
    EXPECT_EQ(checksum64(ByteSpan(backing).subspan(offset, payload.size())),
              expected)
        << "offset " << offset;
  }
}

TEST(Checksum, NeverZeroRemap) {
  EXPECT_EQ(detail::never_zero(0), detail::kZeroDigest);
  EXPECT_NE(detail::kZeroDigest, 0u);
  EXPECT_EQ(detail::never_zero(1), 1u);
  EXPECT_EQ(detail::never_zero(~0ULL), ~0ULL);
}

}  // namespace
}  // namespace dds
