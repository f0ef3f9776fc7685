// Dispatch equivalence tests: every ISA tier that is compiled in and
// runnable on this host must produce BIT-IDENTICAL output to the scalar
// oracle tier for every dispatched primitive -- including NaN, +/-Inf,
// signed-zero, and empty inputs, and for the CRC32C every length, start
// alignment and chaining split -- and SIDQ_FORCE_ISA must pin (or clamp)
// the active tier. "Identical" here means memcmp over the raw double bits,
// not approximate equality: the dispatch choice may change speed, never a
// single bit of output.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/hash.h"
#include "core/random.h"
#include "force_isa_guard.h"
#include "kernels/crc32c_tables.h"
#include "kernels/dispatch.h"

namespace sidq {
namespace kernels {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

std::vector<Isa> CompiledTiers() {
  std::vector<Isa> out;
  for (int i = 0; i < kIsaCount; ++i) {
    const Isa isa = static_cast<Isa>(i);
    if (KernelDispatch::Table(isa) != nullptr) out.push_back(isa);
  }
  return out;
}

// Random column with IEEE special values sprinkled in: NaN, +/-Inf, and a
// negative zero. Specials exercise the ordered-compare and min/max paths
// where a vectorized tier could legally diverge if it used the wrong
// predicate.
std::vector<double> Column(Rng* rng, size_t n, bool specials) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = rng->Uniform(-1000.0, 1000.0);
  if (specials && n > 0) {
    const auto at = [&] {
      return static_cast<size_t>(
          rng->UniformInt(0, static_cast<int64_t>(n) - 1));
    };
    v[at()] = kNan;
    v[at()] = kInf;
    v[at()] = -kInf;
    v[at()] = -0.0;
  }
  return v;
}

void ExpectBytesEqual(const std::vector<double>& ref,
                      const std::vector<double>& got, Isa isa,
                      const char* what) {
  ASSERT_EQ(ref.size(), got.size());
  if (ref.empty()) return;  // empty vectors may hand memcmp a null pointer
  EXPECT_EQ(0, std::memcmp(ref.data(), got.data(),
                           ref.size() * sizeof(double)))
      << what << " diverges from scalar on tier " << IsaName(isa);
}

// ------------------------------------------------ per-primitive identity

TEST(KernelDispatchTest, ScalarTierAlwaysAvailable) {
  EXPECT_TRUE(KernelDispatch::Available(Isa::kScalar));
  ASSERT_NE(KernelDispatch::Table(Isa::kScalar), nullptr);
  EXPECT_EQ(KernelDispatch::Table(Isa::kScalar)->isa, Isa::kScalar);
  // SSE2 is the x86-64 baseline build; it is always compiled.
  EXPECT_TRUE(KernelDispatch::Available(Isa::kSse2));
  EXPECT_EQ(KernelDispatch::Get().isa, KernelDispatch::Active());
}

TEST(KernelDispatchTest, RowAndColumnPrimitivesMatchScalarOnEveryTier) {
  const KernelOps& ref = *KernelDispatch::Table(Isa::kScalar);
  Rng rng_store(12);
  Rng* rng = &rng_store;
  for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{9}, size_t{65}}) {
    const auto xs = Column(rng, n, true);
    const auto ys = Column(rng, n, true);
    const double px = rng->Uniform(-100.0, 100.0), py = -0.0;

    std::vector<double> want_many(n, -7.0);
    std::vector<double> want_consec(n > 1 ? n - 1 : 0, -7.0);
    ref.point_to_many_dist(px, py, xs.data(), ys.data(), n, want_many.data());
    ref.consecutive_dist(xs.data(), ys.data(), n, want_consec.data());

    for (Isa isa : CompiledTiers()) {
      const KernelOps& ops = *KernelDispatch::Table(isa);
      std::vector<double> many(n, -7.0);
      std::vector<double> consec(n > 1 ? n - 1 : 0, -7.0);
      ops.point_to_many_dist(px, py, xs.data(), ys.data(), n, many.data());
      ops.consecutive_dist(xs.data(), ys.data(), n, consec.data());
      ExpectBytesEqual(want_many, many, isa, "point_to_many_dist");
      ExpectBytesEqual(want_consec, consec, isa, "consecutive_dist");
    }
  }
}

// The row-serial banded DTW over columns, written out independently of
// the kernel: two DP rows, the scaled Sakoe-Chiba band, and the reference
// cell expression with its (up, diag, left) operand order.
double RowSerialDtw(const std::vector<double>& ax,
                    const std::vector<double>& ay,
                    const std::vector<double>& bx,
                    const std::vector<double>& by, int band) {
  const size_t n = ax.size();
  const size_t m = bx.size();
  std::vector<double> prev(m + 1, kInf), cur(m + 1, kInf);
  prev[0] = 0.0;
  for (size_t i = 1; i <= n; ++i) {
    std::fill(cur.begin(), cur.end(), kInf);
    size_t lo = 1, hi = m;
    if (band > 0) {
      const double center = static_cast<double>(i) * m / n;
      lo = static_cast<size_t>(std::max(1.0, center - band));
      hi = static_cast<size_t>(
          std::min(static_cast<double>(m), center + band));
    }
    for (size_t j = lo; j <= hi; ++j) {
      const double best = std::min({prev[j], prev[j - 1], cur[j - 1]});
      const double dx = ax[i - 1] - bx[j - 1];
      const double dy = ay[i - 1] - by[j - 1];
      if (best != kInf) cur[j] = std::sqrt(dx * dx + dy * dy) + best;
    }
    std::swap(prev, cur);
  }
  return prev[m];
}

// Runs dtw_full on every tier, both as one call over the whole table and
// as one anti-diagonal per call, and expects the bits of the row-serial
// DP from both. Scratch starts filled with a sentinel, so a read of a cell
// the wavefront never wrote shows up as a wrong result.
void ExpectDtwFullMatchesRowSerial(const std::vector<double>& ax,
                                   const std::vector<double>& ay,
                                   const std::vector<double>& bx,
                                   const std::vector<double>& by, int band) {
  const size_t n = ax.size();
  const size_t m = bx.size();
  const size_t diagonals = n + m - 1;
  const double want = RowSerialDtw(ax, ay, bx, by, band);
  for (Isa isa : CompiledTiers()) {
    const KernelOps& ops = *KernelDispatch::Table(isa);
    std::vector<double> whole_scratch(3 * (m + 2), -7.0);
    const double whole =
        ops.dtw_full(ax.data(), ay.data(), n, bx.data(), by.data(), m, band,
                     0, diagonals, whole_scratch.data());
    EXPECT_EQ(0, std::memcmp(&want, &whole, sizeof(double)))
        << "dtw_full (n=" << n << ", m=" << m << ", band=" << band
        << ") diverges from the row-serial DP on tier " << IsaName(isa);
    std::vector<double> scratch(3 * (m + 2), -7.0);
    double chunked = 0.0;
    for (size_t d = 0; d < diagonals; ++d) {
      chunked = ops.dtw_full(ax.data(), ay.data(), n, bx.data(), by.data(), m,
                             band, d, d + 1, scratch.data());
      if (d + 1 < diagonals) {
        EXPECT_TRUE(std::isnan(chunked))
            << "partial call returned a value on " << IsaName(isa);
      }
    }
    EXPECT_EQ(0, std::memcmp(&whole, &chunked, sizeof(double)))
        << "dtw_full one diagonal per call (n=" << n << ", m=" << m
        << ", band=" << band << ") diverges from one call on tier "
        << IsaName(isa);
  }
}

TEST(KernelDispatchTest, DtwFullResumesOneDiagonalPerCallOnEveryTier) {
  // Every tier's DTW wavefront equals the row-serial DP, and running it
  // one anti-diagonal per call -- as the deadline-bounded
  // DtwDistanceBounded does -- gives the same bits as one call. Bands cover
  // the unbanded table, rows narrower than the length ratio (no finite
  // path) and empty diagonals between disjoint row bands; the IEEE
  // specials turn most results into NaN or +inf, so every shape also runs
  // without them. 240 is the length kNN sees in the end-to-end benchmark:
  // its band-32 diagonals run the vector body many times over.
  Rng rng_store(13);
  Rng* rng = &rng_store;
  const size_t sizes[] = {1, 2, 3, 17, 48, 240};
  for (size_t n : sizes) {
    for (size_t m : sizes) {
      for (const bool specials : {false, true}) {
        const auto ax = Column(rng, n, specials);
        const auto ay = Column(rng, n, specials);
        const auto bx = Column(rng, m, specials);
        const auto by = Column(rng, m, specials);
        for (const int band : {-1, 1, 4, 32}) {
          ExpectDtwFullMatchesRowSerial(ax, ay, bx, by, band);
        }
      }
    }
  }
}

TEST(KernelDispatchTest, FrechetFullMatchesRowIterationOnEveryTier) {
  // Two properties at once: the wavefront form equals the row-serial DP
  // (row 0 = prefix max of the a_0 distance row, then one recurrence per
  // row with the reference operand order) on the scalar tier, and every
  // tier's wavefront equals the scalar wavefront -- so the anti-diagonal
  // schedule changes no bits anywhere.
  Rng rng_store(16);
  Rng* rng = &rng_store;
  for (size_t n : {size_t{1}, size_t{2}, size_t{7}, size_t{33}}) {
    for (size_t m : {size_t{1}, size_t{5}, size_t{31}, size_t{64}}) {
      const auto ax = Column(rng, n, true);
      const auto ay = Column(rng, n, true);
      const auto bx = Column(rng, m, true);
      const auto by = Column(rng, m, true);
      // d(a_i, b_j) in the wavefront's (a_i - b_j) operand order.
      std::vector<double> prev(m), cur(m), dist(m);
      const auto fill_dist = [&](size_t i) {
        for (size_t j = 0; j < m; ++j) {
          const double dx = ax[i] - bx[j];
          const double dy = ay[i] - by[j];
          dist[j] = std::sqrt(dx * dx + dy * dy);
        }
      };
      fill_dist(0);
      prev[0] = dist[0];
      for (size_t j = 1; j < m; ++j) {
        prev[j] = std::max(prev[j - 1], dist[j]);
      }
      for (size_t i = 1; i < n; ++i) {
        fill_dist(i);
        cur[0] = std::max(prev[0], dist[0]);
        for (size_t j = 1; j < m; ++j) {
          cur[j] = std::max(std::min({prev[j], prev[j - 1], cur[j - 1]}),
                            dist[j]);
        }
        std::swap(prev, cur);
      }
      const double want = prev[m - 1];
      for (Isa isa : CompiledTiers()) {
        std::vector<double> scratch(3 * m, -7.0);
        const double got = KernelDispatch::Table(isa)->frechet_full(
            ax.data(), ay.data(), n, bx.data(), by.data(), m, 0, n + m - 1,
            scratch.data());
        EXPECT_EQ(0, std::memcmp(&want, &got, sizeof(double)))
            << "frechet_full (n=" << n << ", m=" << m
            << ") diverges from the row iteration on tier " << IsaName(isa);
      }
    }
  }
}

TEST(KernelDispatchTest, FrechetFullResumesOneDiagonalPerCallOnEveryTier) {
  // A deadline-bounded caller runs the wavefront one anti-diagonal per
  // call, resuming from the scratch diagonals the last call left. That
  // chunking must give the same bits as a single call over the table, and
  // every call that stops short of the last diagonal reports NaN.
  Rng rng_store(17);
  Rng* rng = &rng_store;
  for (size_t n : {size_t{1}, size_t{2}, size_t{3}, size_t{17}, size_t{64}}) {
    for (size_t m : {size_t{1}, size_t{2}, size_t{3}, size_t{17}}) {
      const auto ax = Column(rng, n, true);
      const auto ay = Column(rng, n, true);
      const auto bx = Column(rng, m, true);
      const auto by = Column(rng, m, true);
      const size_t diagonals = n + m - 1;
      for (Isa isa : CompiledTiers()) {
        const KernelOps& ops = *KernelDispatch::Table(isa);
        std::vector<double> whole_scratch(3 * m, -7.0);
        const double whole =
            ops.frechet_full(ax.data(), ay.data(), n, bx.data(), by.data(), m,
                             0, diagonals, whole_scratch.data());
        std::vector<double> scratch(3 * m, -7.0);
        double chunked = 0.0;
        for (size_t d = 0; d < diagonals; ++d) {
          chunked = ops.frechet_full(ax.data(), ay.data(), n, bx.data(),
                                     by.data(), m, d, d + 1, scratch.data());
          if (d + 1 < diagonals) {
            EXPECT_TRUE(std::isnan(chunked))
                << "partial call returned a value on " << IsaName(isa);
          }
        }
        EXPECT_EQ(0, std::memcmp(&whole, &chunked, sizeof(double)))
            << "frechet_full one diagonal per call (n=" << n << ", m=" << m
            << ") diverges from one call on tier " << IsaName(isa);
      }
    }
  }
}

TEST(KernelDispatchTest, LeafScanMatchesScalarOnEveryTier) {
  const KernelOps& ref = *KernelDispatch::Table(Isa::kScalar);
  Rng rng_store(15);
  Rng* rng = &rng_store;
  // Counts cover the AVX-512 full-lane and masked-tail paths plus the
  // kMaxEntriesCap-sized worst case of the portable compaction buffer.
  for (size_t count : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{9},
                       size_t{63}, size_t{64}, size_t{256}}) {
    std::vector<double> min_x(count), min_y(count), max_x(count), max_y(count);
    std::vector<uint64_t> ids(count);
    for (size_t j = 0; j < count; ++j) {
      const double cx = rng->Uniform(-100.0, 100.0);
      const double cy = rng->Uniform(-100.0, 100.0);
      const double w = rng->Uniform(0.0, 20.0), h = rng->Uniform(0.0, 20.0);
      min_x[j] = cx - w;
      max_x[j] = cx + w;
      min_y[j] = cy - h;
      max_y[j] = cy + h;
      ids[j] = j * 3 + 1;
      if (rng->Bernoulli(0.05)) min_x[j] = kNan;  // never a hit, every tier
    }
    const double qx = rng->Uniform(-80.0, 80.0);
    const double qy = rng->Uniform(-80.0, 80.0);
    std::vector<uint64_t> want(count + 1, ~uint64_t{0});
    const size_t want_n =
        ref.leaf_scan(min_x.data(), min_y.data(), max_x.data(), max_y.data(),
                      ids.data(), count, qx - 30.0, qy - 30.0, qx + 30.0,
                      qy + 30.0, want.data());
    for (Isa isa : CompiledTiers()) {
      std::vector<uint64_t> got(count + 1, ~uint64_t{0});
      const size_t got_n = KernelDispatch::Table(isa)->leaf_scan(
          min_x.data(), min_y.data(), max_x.data(), max_y.data(), ids.data(),
          count, qx - 30.0, qy - 30.0, qx + 30.0, qy + 30.0, got.data());
      EXPECT_EQ(want_n, got_n) << "leaf_scan count on " << IsaName(isa);
      EXPECT_EQ(0, std::memcmp(want.data(), got.data(),
                               want_n * sizeof(uint64_t)))
          << "leaf_scan ids diverge on tier " << IsaName(isa);
    }
  }
}

// ------------------------------------------------------------- crc32c

// Seeded random bytes, with 8 bytes of slack past `n` so a run of up to
// `n` bytes can start at any offset 0..7.
std::vector<char> RandomBytes(Rng* rng, size_t n) {
  std::vector<char> bytes(n + 8);
  for (char& b : bytes) b = static_cast<char>(rng->UniformInt(0, 255));
  return bytes;
}

TEST(KernelDispatchTest, Crc32cScalarTierIsCastagnoli) {
  // RFC 3720 check value: the scalar table loop is the oracle the other
  // tiers are held to, so pin it to the standard first.
  const KernelOps& ref = *KernelDispatch::Table(Isa::kScalar);
  EXPECT_EQ(ref.crc32c(0, "123456789", 9), 0xe3069283u);
  EXPECT_EQ(ref.crc32c(0, "", 0), 0u);
}

TEST(KernelDispatchTest, Crc32cMatchesScalarOnEveryTier) {
  constexpr size_t kMaxLen = 70 * 1024;
  const KernelOps& ref = *KernelDispatch::Table(Isa::kScalar);
  Rng rng(31);
  const std::vector<char> bytes = RandomBytes(&rng, kMaxLen);
  // Every length through 64 covers each tail size around the 8-byte
  // steps; random lengths up to 70 KB cover whole-block sizes.
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 64; ++n) lengths.push_back(n);
  for (int i = 0; i < 24; ++i) {
    lengths.push_back(static_cast<size_t>(
        rng.UniformInt(65, static_cast<int64_t>(kMaxLen))));
  }
  for (const size_t n : lengths) {
    for (size_t offset = 0; offset < 8; ++offset) {
      const char* data = bytes.data() + offset;
      const uint32_t want = ref.crc32c(0, data, n);
      for (Isa isa : CompiledTiers()) {
        EXPECT_EQ(want, KernelDispatch::Table(isa)->crc32c(0, data, n))
            << "crc32c diverges on tier " << IsaName(isa) << " at length "
            << n << ", offset " << offset;
      }
    }
  }
}

TEST(KernelDispatchTest, Crc32cChainsAcrossSplitsOnEveryTier) {
  // The store checksums a block as header fields, then payload: chaining
  // a finished CRC through the next call must equal one pass over the
  // concatenation, on every tier and at any split points.
  constexpr size_t kMaxLen = 70 * 1024;
  const KernelOps& ref = *KernelDispatch::Table(Isa::kScalar);
  Rng rng(37);
  const std::vector<char> bytes = RandomBytes(&rng, kMaxLen);
  for (int trial = 0; trial < 40; ++trial) {
    const size_t n = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(kMaxLen)));
    const char* data =
        bytes.data() + static_cast<size_t>(rng.UniformInt(0, 7));
    std::vector<size_t> cuts = {0, n};
    const int pieces = static_cast<int>(rng.UniformInt(1, 6));
    for (int k = 1; k < pieces; ++k) {
      cuts.push_back(static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(n))));
    }
    std::sort(cuts.begin(), cuts.end());
    const uint32_t want = ref.crc32c(0, data, n);
    for (Isa isa : CompiledTiers()) {
      const KernelOps& ops = *KernelDispatch::Table(isa);
      uint32_t crc = 0;
      for (size_t k = 0; k + 1 < cuts.size(); ++k) {
        crc = ops.crc32c(crc, data + cuts[k], cuts[k + 1] - cuts[k]);
      }
      EXPECT_EQ(want, crc) << "chained crc32c diverges on tier "
                           << IsaName(isa) << " (trial " << trial << ")";
    }
  }
}

// The interleaved tiers run three streams over each 3 * S-byte chunk and
// merge them through a zero-shift table: every length around a chunk
// edge, a store block's payload and an input past 64 KiB must still
// equal the oracle's CRC from every start offset 0..7.
TEST(KernelDispatchTest, Crc32cStrideEdgesMatchScalarOnEveryTier) {
  constexpr size_t kS = crc32c::kStride;
  const KernelOps& ref = *KernelDispatch::Table(Isa::kScalar);
  const std::vector<size_t> lengths = {
      3 * kS - 1, 3 * kS, 3 * kS + 1, 3 * kS + 7, 6 * kS,
      12'292,                 // one 256-row block's payload
      6 * 3 * kS + 768 + 13,  // past 64 KiB, with a long serial rest
  };
  ASSERT_GT(lengths.back(), 64u * 1024);
  Rng rng(41);
  const std::vector<char> bytes =
      RandomBytes(&rng, *std::max_element(lengths.begin(), lengths.end()));
  for (const size_t n : lengths) {
    for (size_t offset = 0; offset < 8; ++offset) {
      const char* data = bytes.data() + offset;
      const uint32_t want = ref.crc32c(0, data, n);
      for (Isa isa : CompiledTiers()) {
        EXPECT_EQ(want, KernelDispatch::Table(isa)->crc32c(0, data, n))
            << "crc32c diverges on tier " << IsaName(isa) << " at length "
            << n << ", offset " << offset;
      }
    }
  }
}

TEST(KernelDispatchTest, Crc32cChainsCutInsideStridesOnEveryTier) {
  // Splits that fall inside a stride, inside a chunk's second and third
  // thirds, and one byte either side of a chunk edge: each piece runs its
  // own chunk/serial split and the chain must not notice.
  constexpr size_t kS = crc32c::kStride;
  const size_t n = 6 * kS + 777;
  const std::vector<std::vector<size_t>> cut_sets = {
      {kS / 2},
      {kS + 5, 2 * kS + kS / 3},
      {3 * kS - 1, 3 * kS + 1},
      {kS - 3, 3 * kS + 2 * 256 + 7, 6 * kS + 256},
      {7, 3 * kS + 3 * 256 - 1, n - 1},
  };
  const KernelOps& ref = *KernelDispatch::Table(Isa::kScalar);
  Rng rng(43);
  const std::vector<char> bytes = RandomBytes(&rng, n);
  for (size_t offset = 0; offset < 8; ++offset) {
    const char* data = bytes.data() + offset;
    const uint32_t want = ref.crc32c(0, data, n);
    for (const std::vector<size_t>& inner : cut_sets) {
      std::vector<size_t> cuts = {0};
      cuts.insert(cuts.end(), inner.begin(), inner.end());
      cuts.push_back(n);
      for (Isa isa : CompiledTiers()) {
        const KernelOps& ops = *KernelDispatch::Table(isa);
        uint32_t crc = 0;
        for (size_t k = 0; k + 1 < cuts.size(); ++k) {
          crc = ops.crc32c(crc, data + cuts[k], cuts[k + 1] - cuts[k]);
        }
        EXPECT_EQ(want, crc)
            << "chained crc32c diverges on tier " << IsaName(isa)
            << " at offset " << offset << " with " << inner.size()
            << " inner cuts from " << inner.front();
      }
    }
  }
}

// Register `crc` advanced over `bytes` zero bytes one bit at a time: the
// GF(2) definition the constexpr shift table is built to shortcut.
uint32_t BitwiseZeroShift(uint32_t crc, size_t bytes) {
  for (size_t bit = 0; bit < 8 * bytes; ++bit) {
    crc = (crc & 1u) ? (crc >> 1) ^ crc32c::kPoly : crc >> 1;
  }
  return crc;
}

TEST(KernelDispatchTest, Crc32cShiftTableMatchesBitwiseReference) {
  constexpr size_t kS = crc32c::kStride;
  const crc32c::ShiftTable& table = crc32c::kShift;
  // The shift is linear over GF(2): shift every basis register bitwise,
  // then each table entry is the XOR of its set bits' images.
  uint32_t basis[32];
  for (int i = 0; i < 32; ++i) basis[i] = BitwiseZeroShift(1u << i, kS);
  for (int k = 0; k < 4; ++k) {
    for (uint32_t b = 0; b < 256; ++b) {
      const uint32_t in = b << (8 * k);
      uint32_t want = 0;
      for (int i = 0; i < 32; ++i) {
        if ((in >> i) & 1u) want ^= basis[i];
      }
      ASSERT_EQ(table[k][b], want) << "table " << k << ", byte " << b;
    }
  }
  // A whole register shifts as the XOR of its four bytes' entries, the
  // lookup the interleaved tiers apply.
  Rng rng(47);
  for (int trial = 0; trial < 8; ++trial) {
    const uint32_t crc = static_cast<uint32_t>(
        rng.UniformInt(0, std::numeric_limits<uint32_t>::max()));
    const uint32_t shifted = table[0][crc & 0xffu] ^
                             table[1][(crc >> 8) & 0xffu] ^
                             table[2][(crc >> 16) & 0xffu] ^
                             table[3][crc >> 24];
    EXPECT_EQ(shifted, BitwiseZeroShift(crc, kS)) << "register " << crc;
  }
}

// One checksum over a long randomized mixed workload per tier: the
// compressed form of the property above. At the bench level the same
// guarantee is bench_kernels' exit status, on the dispatched tier and under
// SIDQ_FORCE_ISA=scalar alike.
TEST(KernelDispatchTest, WorkloadChecksumIdenticalAcrossTiers) {
  const auto run = [](const KernelOps& ops) {
    Rng rng_store(99);
    Rng* rng = &rng_store;
    uint64_t h = kFnvOffset;
    for (int trial = 0; trial < 20; ++trial) {
      const size_t n = static_cast<size_t>(rng->UniformInt(1, 96));
      const auto xs = Column(rng, n, trial % 2 == 0);
      const auto ys = Column(rng, n, trial % 3 == 0);
      std::vector<double> scratch(3 * (n + 2));
      const double dtw =
          ops.dtw_full(xs.data(), ys.data(), n, ys.data(), xs.data(), n,
                       (trial % 4) * 8, 0, 2 * n - 1, scratch.data());
      h = FnvBytes(h, &dtw, sizeof(double));
      std::vector<double> out(n);
      ops.point_to_many_dist(xs[0], ys[0], xs.data(), ys.data(), n,
                             out.data());
      h = FnvBytes(h, out.data(), n * sizeof(double));
      ops.consecutive_dist(xs.data(), ys.data(), n, out.data());
      h = FnvBytes(h, out.data(), (n - 1) * sizeof(double));
      const double frechet = ops.frechet_full(
          xs.data(), ys.data(), n, ys.data(), xs.data(), n, 0, 2 * n - 1,
          scratch.data());
      h = FnvBytes(h, &frechet, sizeof(double));
    }
    return h;
  };
  const uint64_t want = run(*KernelDispatch::Table(Isa::kScalar));
  for (Isa isa : CompiledTiers()) {
    EXPECT_EQ(want, run(*KernelDispatch::Table(isa)))
        << "workload checksum diverges on tier " << IsaName(isa);
  }
}

// -------------------------------------------------- SIDQ_FORCE_ISA knob

TEST(KernelDispatchTest, ForceIsaPinsEveryAvailableTier) {
  ForceIsaGuard guard;
  for (Isa isa : CompiledTiers()) {
    setenv("SIDQ_FORCE_ISA", IsaName(isa), 1);
    KernelDispatch::ReinitForTest();
    EXPECT_EQ(KernelDispatch::Active(), isa) << "forcing " << IsaName(isa);
    EXPECT_EQ(KernelDispatch::Get().isa, isa);
  }
  unsetenv("SIDQ_FORCE_ISA");
  KernelDispatch::ReinitForTest();
  EXPECT_EQ(KernelDispatch::Active(), KernelDispatch::Best());
}

TEST(KernelDispatchTest, UnknownForceValueFallsBackToBest) {
  ForceIsaGuard guard;
  setenv("SIDQ_FORCE_ISA", "pentium-pro", 1);
  KernelDispatch::ReinitForTest();
  EXPECT_EQ(KernelDispatch::Active(), KernelDispatch::Best());
}

TEST(KernelDispatchTest, UnavailableForceClampsDownNotUp) {
  ForceIsaGuard guard;
  // Forcing the widest tier must never resolve to something wider than the
  // host supports: exactly avx512 when available, else the best tier at or
  // below it (which is Best(), since avx512 is the widest).
  setenv("SIDQ_FORCE_ISA", "avx512", 1);
  KernelDispatch::ReinitForTest();
  if (KernelDispatch::Available(Isa::kAvx512)) {
    EXPECT_EQ(KernelDispatch::Active(), Isa::kAvx512);
  } else {
    EXPECT_EQ(KernelDispatch::Active(), KernelDispatch::Best());
  }
  // Forcing scalar always lands exactly on scalar.
  setenv("SIDQ_FORCE_ISA", "scalar", 1);
  KernelDispatch::ReinitForTest();
  EXPECT_EQ(KernelDispatch::Active(), Isa::kScalar);
}

TEST(KernelDispatchTest, IsaNamesRoundTrip) {
  EXPECT_STREQ(IsaName(Isa::kScalar), "scalar");
  EXPECT_STREQ(IsaName(Isa::kSse2), "sse2");
  EXPECT_STREQ(IsaName(Isa::kAvx2), "avx2");
  EXPECT_STREQ(IsaName(Isa::kAvx512), "avx512");
}

}  // namespace
}  // namespace kernels
}  // namespace sidq
