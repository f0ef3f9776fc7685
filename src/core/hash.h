#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace sidq {

// FNV-1a (64-bit): the one fingerprint hash behind every determinism
// checksum in the repo. FnvBytes is the textbook byte-at-a-time form;
// FnvMix folds a whole 64-bit word in one xor-multiply step, which is what
// the bit-pattern checksums over doubles and ids use.
inline constexpr uint64_t kFnvOffset = 14695981039346656037ull;
inline constexpr uint64_t kFnvPrime = 1099511628211ull;

// The standard offset basis with its last digit dropped. Failpoint site
// hashing and the bench_kernels checksums seed with it, and both outputs
// are pinned (ObsGoldenTest literals, BENCH_kernels.json), so those two
// sites keep this seed. Everything else uses kFnvOffset.
inline constexpr uint64_t kFnvShortOffset = 1469598103934665603ull;

[[nodiscard]] constexpr uint64_t FnvMix(uint64_t h, uint64_t word) {
  return (h ^ word) * kFnvPrime;
}

[[nodiscard]] inline uint64_t FnvBytes(uint64_t h, const void* data,
                                       size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) h = (h ^ p[i]) * kFnvPrime;
  return h;
}

// Raw IEEE-754 bit pattern, so a checksum sees every rounding difference.
[[nodiscard]] inline uint64_t DoubleBits(double d) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(d));
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

}  // namespace sidq
