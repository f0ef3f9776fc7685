#pragma once

#include <cstddef>
#include <cstdint>

namespace sidq {
namespace kernels {

// Runtime ISA dispatch for the kernel layer.
//
// Every distance/DP/leaf-scan/CRC primitive is compiled four times from one
// shared implementation (kernel_impl.inc), each translation unit targeting
// one ISA tier:
//
//   scalar   auto-vectorization disabled -- the bit-exactness oracle, the
//            same compilation mode as the AoS reference in scalar_ref.cc
//   sse2     the x86-64 baseline (plain build flags; on non-x86 this is
//            simply the portably auto-vectorized build)
//   avx2     compiled with -mavx2 -mfma when the compiler supports them
//   avx512   compiled with -mavx512f -mavx512dq when the compiler supports
//            them
//
// The registry probes the CPU once (GCC/Clang __builtin_cpu_supports) and
// selects the widest tier that is both compiled in and supported by the
// host. A tier counts as supported only when the CPU has every extension
// its compile flags enable (avx2 + fma; avx512f + avx512dq), since the
// compiler may emit any of them. Because every tier is built with FP contraction off and the
// primitives avoid reassociating reductions, all tiers produce
// BIT-IDENTICAL results -- the dispatch choice changes speed, never
// output. tests/kernels_dispatch_test.cc asserts this checksum equality
// for every compiled tier; bench_kernels exits 1 unless every primitive
// matches its tier-independent scalar reference, and CI also runs it
// under SIDQ_FORCE_ISA=scalar.
//
// Override: set SIDQ_FORCE_ISA=scalar|sse2|avx2|avx512 in the environment
// to pin the tier (CI keeps the oracle leg exercised this way). Forcing a
// tier the host cannot run falls back to the widest available tier at or
// below the request, with a warning.

enum class Isa : uint8_t {
  kScalar = 0,
  kSse2 = 1,
  kAvx2 = 2,
  kAvx512 = 3,
};

inline constexpr int kIsaCount = 4;

const char* IsaName(Isa isa);

// The per-primitive entry points one ISA tier provides; `ops.isa` records
// which tier the table belongs to. Callers hoist
//   const KernelOps& k = KernelDispatch::Get();
// once per function and call the fields directly. Every primitive is a
// flat-array loop over SoA columns (see soa.h) compiled per tier with FP
// contraction OFF, so each operation is a correctly-rounded IEEE op
// executed in the same order at every vector width: results are
// BIT-IDENTICAL to the scalar oracle, not merely close.
//
// Operand-order convention: a distance between a "query" sample q and a
// column sample j is computed as dq = q - column[j] (matching
// geometry::Distance(q, col) = (q - col).Norm()), except where noted.
struct KernelOps {
  // out[j] = distance from column sample j to (px, py), computed as
  // (sample - point): matches geometry::Distance(sample, point).
  void (*point_to_many_dist)(double px, double py, const double* xs,
                             const double* ys, size_t n, double* out);
  // out[i] = distance between consecutive samples i and i+1, for
  // i in [0, n-1). `out` must hold n-1 doubles; no-op when n < 2.
  void (*consecutive_dist)(const double* xs, const double* ys, size_t n,
                           double* out);
  // The n x m banded DTW DP (n, m >= 1; cells (i, j) 1-based),
  // anti-diagonals d = i + j - 2 in [d_begin, d_end) of it; the whole
  // table is [0, n + m - 1). band <= 0 admits every cell; otherwise row i
  // admits columns [lo_i, hi_i] with center = double(i) * m / n,
  // lo_i = size_t(max(1, center - band)), hi_i = size_t(min(m, center +
  // band)) -- the scaled Sakoe-Chiba band of kernels::scalar::DtwDistance.
  // Every in-band cell is
  //     best = min(D[i-1][j], D[i-1][j-1], D[i][j-1])
  //     D[i][j] = best != inf ? d(a_i, b_j) + best : inf
  // with D[0][0] = 0 and every other border or out-of-band cell +inf; min
  // keeps its first operand on NaN, exactly as the row-serial reference.
  // Cells of one anti-diagonal are independent, so each diagonal runs
  // without the row form's carried dependency. Diagonal d lives at
  // scratch + ((d + 2) % 3) * (m + 2) (indexed by j; `scratch` holds
  // 3 * (m + 2) doubles), so a call can resume where the previous one
  // stopped and the chunking never changes a bit. Returns D[n][m] when
  // d_end == n + m - 1, NaN otherwise.
  double (*dtw_full)(const double* ax, const double* ay, size_t n,
                     const double* bx, const double* by, size_t m, int band,
                     size_t d_begin, size_t d_end, double* scratch);
  // The n x m discrete-Frechet DP (n, m >= 1), anti-diagonals
  // d = i + j in [d_begin, d_end) of it; the whole table is
  // [0, n + m - 1). Cells of one anti-diagonal are independent, so each
  // diagonal vectorizes. Diagonal d lives at scratch + (d % 3) * m
  // (indexed by j; `scratch` holds 3*m doubles), so a call can resume
  // where the previous one stopped and the chunking never changes a bit.
  // Every cell is
  //     D[i][j] = max(min(D[i-1][j], D[i-1][j-1], D[i][j-1]), d(a_i, b_j))
  // with D[0][j] = max(D[0][j-1], dist) and D[i][0] = max(D[i-1][0], dist).
  // Returns D[n-1][m-1] when d_end == n + m - 1, NaN otherwise.
  double (*frechet_full)(const double* ax, const double* ay, size_t n,
                         const double* bx, const double* by, size_t m,
                         size_t d_begin, size_t d_end, double* scratch);
  // Branch-free box-intersection sweep over columnar leaf arrays; writes
  // the ids of hits to `out` (capacity >= count) and returns the hit
  // count. The emitted id sequence preserves leaf order for every tier.
  size_t (*leaf_scan)(const double* min_x, const double* min_y,
                      const double* max_x, const double* max_y,
                      const uint64_t* ids, size_t count, double qmin_x,
                      double qmin_y, double qmax_x, double qmax_y,
                      uint64_t* out);
  // CRC32C (Castagnoli, reflected, as in RFC 3720) of `data[0, n)`,
  // continuing a finished checksum `crc` (0 to start): chaining over a
  // split equals one call over the whole. Tiers compiled with SSE4.2
  // (avx2, avx512) use the crc32 instruction; the others a table loop.
  uint32_t (*crc32c)(uint32_t crc, const char* data, size_t n);
  Isa isa;
};

class KernelDispatch {
 public:
  // The active tier's table, resolved once per process from CPUID and
  // SIDQ_FORCE_ISA. Thread-safe.
  static const KernelOps& Get();

  // The tier Get() resolved to.
  static Isa Active();

  // The table for one specific tier, or nullptr when that tier is not
  // compiled in or the host CPU cannot run it. For tests: iterating every
  // non-null table and comparing checksums against Table(Isa::kScalar) is
  // the dispatch equivalence property.
  static const KernelOps* Table(Isa isa);

  // Widest tier that is compiled in and CPU-supported.
  static Isa Best();

  // True when `isa` is compiled in and the host CPU can execute it.
  static bool Available(Isa isa);

  // Re-reads SIDQ_FORCE_ISA and re-resolves the active tier. Test-only:
  // production code must treat the dispatch choice as fixed at startup.
  static void ReinitForTest();
};

}  // namespace kernels
}  // namespace sidq
