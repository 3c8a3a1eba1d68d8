// CRC-32 (util/crc32.hpp): the slicing-by-8 loop against the standard
// check value and a bitwise reference, and the GF(2) shift operator behind
// Crc32Combine / Crc32Zeros against CRCs of real concatenations.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "util/crc32.hpp"
#include "util/rng.hpp"

namespace {

/// Bit-at-a-time reference: no tables, no slicing.
std::uint32_t BitwiseCrc32(pnc::ConstByteSpan data) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (const std::byte b : data) {
    c ^= std::to_integer<std::uint32_t>(b);
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return ~c;
}

std::vector<std::byte> RandomBytes(pnc::SplitMix64& rng, std::size_t n) {
  std::vector<std::byte> b(n);
  for (auto& x : b) x = static_cast<std::byte>(rng.Next() & 0xFFu);
  return b;
}

TEST(Crc32, IsoHdlcCheckValue) {
  const char* s = "123456789";
  const pnc::ConstByteSpan b(reinterpret_cast<const std::byte*>(s),
                             std::strlen(s));
  EXPECT_EQ(pnc::Crc32(b), 0xCBF43926u);
  EXPECT_EQ(pnc::Crc32({}), 0u);
}

TEST(Crc32, SlicingMatchesBitwiseAtEveryAlignmentAndLength) {
  pnc::SplitMix64 rng(7);
  const auto buf = RandomBytes(rng, 300);
  for (std::size_t start = 0; start < 9; ++start)
    for (std::size_t len = 0; start + len <= buf.size(); len += 13) {
      const pnc::ConstByteSpan s(buf.data() + start, len);
      ASSERT_EQ(pnc::Crc32(s), BitwiseCrc32(s)) << start << "+" << len;
    }
}

TEST(Crc32, IncrementalEqualsOneShot) {
  pnc::SplitMix64 rng(11);
  const auto buf = RandomBytes(rng, 1000);
  const pnc::ConstByteSpan all(buf);
  EXPECT_EQ(pnc::Crc32(all.subspan(333), pnc::Crc32(all.first(333))),
            pnc::Crc32(all));
}

// Combine(crc(a), crc(b), |b|) == crc(a||b) for random buffers split at
// random points, including empty halves and unaligned splits.
TEST(Crc32, CombineEqualsCrcOfConcatenation) {
  pnc::SplitMix64 rng(42);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = rng.Next() % 5000;
    const auto buf = RandomBytes(rng, n);
    const pnc::ConstByteSpan all(buf);
    std::size_t cut = n == 0 ? 0 : rng.Next() % (n + 1);
    if (trial % 10 == 0) cut = 0;
    if (trial % 10 == 1) cut = n;
    const std::uint32_t a = pnc::Crc32(all.first(cut));
    const std::uint32_t b = pnc::Crc32(all.subspan(cut));
    ASSERT_EQ(pnc::Crc32Combine(a, b, n - cut), pnc::Crc32(all))
        << "n=" << n << " cut=" << cut;
  }
}

TEST(Crc32, CombineFoldsManyPiecesInOrder) {
  pnc::SplitMix64 rng(5);
  const auto buf = RandomBytes(rng, 70000);
  std::uint32_t acc = 0;
  std::size_t pos = 0;
  while (pos < buf.size()) {
    const std::size_t n = std::min<std::size_t>(1 + rng.Next() % 9000,
                                                buf.size() - pos);
    acc = pnc::Crc32Combine(
        acc, pnc::Crc32(pnc::ConstByteSpan(buf.data() + pos, n)), n);
    pos += n;
  }
  EXPECT_EQ(acc, pnc::Crc32(buf));
}

TEST(Crc32, ZerosEqualsShiftOperatorValue) {
  for (const std::size_t n : {0u, 1u, 7u, 8u, 9u, 4096u, 65536u, 100003u}) {
    const std::vector<std::byte> z(n, std::byte{0});
    EXPECT_EQ(pnc::Crc32Zeros(n), pnc::Crc32(z)) << n;
  }
  static_assert(pnc::Crc32Zeros(0) == 0u);
}

}  // namespace
