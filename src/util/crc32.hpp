// CRC-32 (ISO-HDLC / zlib polynomial, reflected 0xEDB88320).
//
// Used by the crash-consistency commit protocol to checksum the shadow
// header and the commit record, and by the data-integrity layer to sum
// data chunks. Slicing-by-8 over eight compile-time tables; no
// dependencies.
//
// CRC-32 is linear over GF(2), so the CRC of a concatenation follows from
// the CRCs of its parts: Crc32Combine(crc(A), crc(B), |B|) == crc(A||B).
// The shift operator x^(8n) mod P that moves crc(A) past |B| bytes is
// built by square-and-multiply over x^(2^k) mod P (the zlib construction),
// so combining costs O(log n) 32-bit polynomial products, not O(n).
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>

#include "util/bytes.hpp"

namespace pnc {

namespace detail {

constexpr std::uint32_t kCrc32Poly = 0xEDB88320u;

using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/// t[0] is the classic byte table; t[k][i] advances t[k-1][i] by one more
/// zero byte, so eight lookups fold eight input bytes at once.
constexpr Crc32Tables MakeCrc32Tables() {
  Crc32Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? kCrc32Poly ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i)
    for (std::size_t k = 1; k < 8; ++k)
      t[k][i] = t[0][t[k - 1][i] & 0xFFu] ^ (t[k - 1][i] >> 8);
  return t;
}
inline constexpr Crc32Tables kCrc32Tables = MakeCrc32Tables();

/// a(x) * b(x) mod P, reflected bit order (bit 31 is x^0).
constexpr std::uint32_t MultModP(std::uint32_t a, std::uint32_t b) {
  std::uint32_t p = 0;
  for (std::uint32_t m = 1u << 31; m != 0; m >>= 1) {
    if (a & m) {
      p ^= b;
      if ((a & (m - 1)) == 0) break;
    }
    b = (b & 1u) ? (b >> 1) ^ kCrc32Poly : b >> 1;
  }
  return p;
}

/// kX2n[k] = x^(2^k) mod P; the sequence has period 32 after k = 2.
constexpr std::array<std::uint32_t, 32> MakeX2nTable() {
  std::array<std::uint32_t, 32> t{};
  std::uint32_t p = 1u << 30;  // x^1
  for (auto& v : t) {
    v = p;
    p = MultModP(p, p);
  }
  return t;
}
inline constexpr std::array<std::uint32_t, 32> kX2n = MakeX2nTable();

/// x^(8n) mod P: the operator that shifts a CRC register past n bytes.
constexpr std::uint32_t ShiftOperator(std::uint64_t n) {
  std::uint32_t p = 1u << 31;  // x^0
  for (unsigned k = 3; n != 0; n >>= 1, k = (k + 1) & 31u)
    if (n & 1u) p = MultModP(kX2n[k], p);
  return p;
}

}  // namespace detail

/// One-shot or incremental CRC-32. Start with crc = 0; feed chunks by
/// passing the previous return value back in.
inline std::uint32_t Crc32(ConstByteSpan data, std::uint32_t crc = 0) {
  const auto& t = detail::kCrc32Tables;
  const std::byte* p = data.data();
  std::size_t n = data.size();
  crc = ~crc;
  if constexpr (std::endian::native == std::endian::little) {
    for (; n >= 8; n -= 8, p += 8) {
      std::uint32_t lo = 0, hi = 0;
      std::memcpy(&lo, p, 4);
      std::memcpy(&hi, p + 4, 4);
      lo ^= crc;
      crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
            t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
            t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^
            t[0][hi >> 24];
    }
  }
  for (; n != 0; --n, ++p)
    crc = t[0][(crc ^ static_cast<std::uint32_t>(*p)) & 0xFFu] ^ (crc >> 8);
  return ~crc;
}

/// crc(A||B) from crc(A), crc(B) and |B|, without touching the bytes.
constexpr std::uint32_t Crc32Combine(std::uint32_t crc_a, std::uint32_t crc_b,
                                     std::uint64_t len_b) {
  return detail::MultModP(detail::ShiftOperator(len_b), crc_a) ^ crc_b;
}

/// crc of `n` zero bytes, from the shift operator alone.
constexpr std::uint32_t Crc32Zeros(std::uint64_t n) {
  return ~detail::MultModP(detail::ShiftOperator(n), 0xFFFFFFFFu);
}

}  // namespace pnc
