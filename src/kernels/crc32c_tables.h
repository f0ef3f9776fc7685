#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace sidq {
namespace kernels {
namespace crc32c {

// Compile-time tables of the dispatched `crc32c` primitive (see
// kernel_impl.inc). Registers are in the reflected representation the
// SSE4.2 crc32 instruction uses: bit 31 holds the coefficient of x^0,
// bit 0 that of x^31. Only table data is shared: the builders are
// consteval, so no translation unit emits code for them, and the lookup
// that applies a shift table lives in each tier's own namespace.

// Reflected Castagnoli polynomial (RFC 3720).
inline constexpr uint32_t kPoly = 0x82f63b78u;

// kByteTable[b]: register b advanced over 8 zero bits. The table loop on
// the scalar and sse2 tiers is the oracle every tier is held to.
consteval std::array<uint32_t, 256> MakeByteTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int j = 0; j < 8; ++j) {
      crc = (crc & 1u) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}
inline constexpr std::array<uint32_t, 256> kByteTable = MakeByteTable();

// a * b modulo the polynomial. Advancing a register over one zero bit
// multiplies it by x, so a register advanced over n zero bytes is the
// register times x^(8n).
consteval uint32_t MulModP(uint32_t a, uint32_t b) {
  uint32_t product = 0;
  for (uint32_t m = 1u << 31; m != 0; m >>= 1) {
    if ((a & m) != 0) product ^= b;
    b = (b & 1u) ? (b >> 1) ^ kPoly : b >> 1;
  }
  return product;
}

// x^(8n) modulo the polynomial, by square-and-multiply.
consteval uint32_t XPow8N(size_t n) {
  uint32_t result = 1u << 31;  // x^0
  uint32_t square = 1u << 23;  // x^8
  for (; n != 0; n >>= 1) {
    if ((n & 1) != 0) result = MulModP(square, result);
    square = MulModP(square, square);
  }
  return result;
}

// The linear map "advance over n zero bytes" split by input byte:
// table[k][b] is register (b << 8k) advanced over n zero bytes, so a
// register's shift is the XOR of four lookups, one per byte.
using ShiftTable = std::array<std::array<uint32_t, 256>, 4>;

consteval ShiftTable MakeShiftTable(size_t n) {
  const uint32_t xn = XPow8N(n);
  ShiftTable table{};
  for (int k = 0; k < 4; ++k) {
    for (uint32_t b = 0; b < 256; ++b) {
      table[k][b] = MulModP(xn, b << (8 * k));
    }
  }
  return table;
}

// The interleaved crc32 loop runs three streams over consecutive thirds
// of a 3 * kStride chunk and merges them by shifting over one stride
// (kShift). A default 256-row block's 12,292-byte payload is one chunk
// and a 4-byte tail; shorter inputs and what is left after the last
// whole chunk run one serial chain.
inline constexpr size_t kStride = 4096;
inline constexpr ShiftTable kShift = MakeShiftTable(kStride);

}  // namespace crc32c
}  // namespace kernels
}  // namespace sidq
