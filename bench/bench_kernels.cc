// BENCH kernels: columnar kernel layer vs. scalar AoS reference.
//
// Times each kernel primitive against the scalar reference implementation
// it replaced (kernels/scalar_ref.cc, compiled with auto-vectorization
// disabled) on a fleet-scale workload, and checks BIT-IDENTITY of every
// output via FNV-1a checksums over the raw double bit patterns: the kernel
// layer is only allowed to be faster, never different. A checksum mismatch
// is a hard failure (exit 1), so this bench doubles as the cross-layer
// equivalence gate. scripts/bench_json.py records the BENCH_JSON line as
// BENCH_kernels.json.
//
// Primitives:
//   pairwise     all-pairs squared distances (the EDR/LCSS/Frechet inner
//                pattern) -- embarrassingly vectorizable, the headline win
//   dtw_full     full banded DTW: one anti-diagonal dtw_full call over the
//                whole table, as query::DtwDistance makes it
//   frechet_full full discrete Frechet: one anti-diagonal frechet_full call,
//                as query::DiscreteFrechetDistance makes it
//   packed_range batched range queries over per-segment boxes on
//                kernels::PackedRTree vs. per-query
//                RangeQuery on the pointer R-tree in bench/rtree.h
//
// The kernel side of the first three reads x/y columns built before the
// timed loops and calls the KernelOps fields on them, so it times the
// kernels and not the per-call column copy.
//
// Pass --quick to cut repetitions (CI smoke). The reference side of every
// gate (kernels/scalar_ref.cc, bench/rtree.h) does not go through the ISA
// dispatcher, so a dispatched run and a SIDQ_FORCE_ISA=scalar run that both
// exit 0 carry equal per-primitive checksums; CI runs the forced-scalar
// one. The BENCH_JSON line records which ISA tier the dispatcher resolved
// ("isa").

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_util.h"
#include "bench/rtree.h"
#include "core/hash.h"
#include "core/random.h"
#include "core/trajectory.h"
#include "kernels/dispatch.h"
#include "kernels/packed_rtree.h"
#include "kernels/scalar_ref.h"

namespace sidq {
namespace {

constexpr size_t kFleetSize = 1000;
constexpr size_t kPointsEach = 64;
// Anti-diagonals of a kPointsEach x kPointsEach DP table.
constexpr size_t kDiagonals = 2 * kPointsEach - 1;
constexpr uint64_t kSeed = 20220611;

std::vector<Trajectory> MakeFleet() {
  Rng rng(kSeed);
  std::vector<Trajectory> fleet;
  fleet.reserve(kFleetSize);
  for (size_t i = 0; i < kFleetSize; ++i) {
    Trajectory t(static_cast<ObjectId>(i));
    t.Reserve(kPointsEach);
    double x = rng.Uniform(0.0, 5000.0);
    double y = rng.Uniform(0.0, 5000.0);
    double vx = rng.Gaussian(0.0, 8.0);
    double vy = rng.Gaussian(0.0, 8.0);
    for (size_t k = 0; k < kPointsEach; ++k) {
      t.AppendUnordered(TrajectoryPoint(static_cast<Timestamp>(k) * 1000,
                                        geometry::Point(x, y), 8.0));
      vx += rng.Gaussian(0.0, 1.0);
      vy += rng.Gaussian(0.0, 1.0);
      x += vx;
      y += vy;
    }
    fleet.push_back(std::move(t));
  }
  return fleet;
}

// The x/y columns of every fleet trajectory, flat: trajectory i owns
// entries [i * kPointsEach, (i + 1) * kPointsEach).
struct FleetColumns {
  std::vector<double> xs;
  std::vector<double> ys;

  explicit FleetColumns(const std::vector<Trajectory>& fleet) {
    xs.reserve(fleet.size() * kPointsEach);
    ys.reserve(fleet.size() * kPointsEach);
    for (const Trajectory& t : fleet) {
      for (const TrajectoryPoint& pt : t.points()) {
        xs.push_back(pt.p.x);
        ys.push_back(pt.p.y);
      }
    }
  }
  [[nodiscard]] const double* x(size_t i) const {
    return xs.data() + i * kPointsEach;
  }
  [[nodiscard]] const double* y(size_t i) const {
    return ys.data() + i * kPointsEach;
  }
};

// FNV-1a over raw bit patterns: any rounding difference flips the hash.
struct Checksum {
  uint64_t h = kFnvShortOffset;
  void Mix(uint64_t v) { h = FnvMix(h, v); }
  void MixDouble(double d) { Mix(DoubleBits(d)); }
};

struct PrimitiveResult {
  const char* name;
  double scalar_s = 0.0;
  double kernel_s = 0.0;
  double speedup = 0.0;
  uint64_t checksum = 0;
};

// The equivalence gate: exits 1 unless the kernel path folded to the same
// checksum as the scalar reference.
PrimitiveResult Finish(PrimitiveResult r, const Checksum& scalar_sum,
                       const Checksum& kernel_sum) {
  bench::RequireEqual(std::string(r.name) + " kernel vs scalar checksum",
                      scalar_sum.h, kernel_sum.h);
  r.speedup = r.scalar_s / r.kernel_s;
  r.checksum = kernel_sum.h;
  return r;
}

// ------------------------------------------------------------- primitives

PrimitiveResult BenchPairwise(const std::vector<Trajectory>& fleet,
                              const FleetColumns& cols, size_t pairs) {
  PrimitiveResult r{"pairwise"};
  std::vector<double> out(kPointsEach * kPointsEach);
  Checksum scalar_sum, kernel_sum;

  auto t0 = std::chrono::steady_clock::now();
  for (size_t p = 0; p < pairs; ++p) {
    const Trajectory& a = fleet[p % fleet.size()];
    const Trajectory& b = fleet[(p * 7 + 1) % fleet.size()];
    kernels::scalar::PairwiseSqDist(a, b, out.data());
    scalar_sum.MixDouble(out[p % out.size()]);
  }
  r.scalar_s = bench::SecondsSince(t0);

  const kernels::KernelOps& k = kernels::KernelDispatch::Get();
  t0 = std::chrono::steady_clock::now();
  for (size_t p = 0; p < pairs; ++p) {
    const size_t a = p % fleet.size();
    const size_t b = (p * 7 + 1) % fleet.size();
    k.pairwise_sq_dist(cols.x(a), cols.y(a), kPointsEach, cols.x(b),
                       cols.y(b), kPointsEach, out.data());
    kernel_sum.MixDouble(out[p % out.size()]);
  }
  r.kernel_s = bench::SecondsSince(t0);

  return Finish(r, scalar_sum, kernel_sum);
}

PrimitiveResult BenchDtw(const std::vector<Trajectory>& fleet,
                         const FleetColumns& cols, size_t pairs, int band) {
  PrimitiveResult r{"dtw_full"};
  Checksum scalar_sum, kernel_sum;

  auto t0 = std::chrono::steady_clock::now();
  for (size_t p = 0; p < pairs; ++p) {
    const Trajectory& a = fleet[p % fleet.size()];
    const Trajectory& b = fleet[(p * 13 + 3) % fleet.size()];
    scalar_sum.MixDouble(kernels::scalar::DtwDistance(a, b, band));
  }
  r.scalar_s = bench::SecondsSince(t0);

  const kernels::KernelOps& k = kernels::KernelDispatch::Get();
  std::vector<double> scratch(3 * (kPointsEach + 2));
  t0 = std::chrono::steady_clock::now();
  for (size_t p = 0; p < pairs; ++p) {
    const size_t a = p % fleet.size();
    const size_t b = (p * 13 + 3) % fleet.size();
    kernel_sum.MixDouble(k.dtw_full(cols.x(a), cols.y(a), kPointsEach,
                                    cols.x(b), cols.y(b), kPointsEach, band,
                                    0, kDiagonals, scratch.data()));
  }
  r.kernel_s = bench::SecondsSince(t0);

  return Finish(r, scalar_sum, kernel_sum);
}

PrimitiveResult BenchFrechet(const std::vector<Trajectory>& fleet,
                             const FleetColumns& cols, size_t pairs) {
  PrimitiveResult r{"frechet_full"};
  Checksum scalar_sum, kernel_sum;

  auto t0 = std::chrono::steady_clock::now();
  for (size_t p = 0; p < pairs; ++p) {
    const Trajectory& a = fleet[p % fleet.size()];
    const Trajectory& b = fleet[(p * 11 + 5) % fleet.size()];
    scalar_sum.MixDouble(kernels::scalar::FrechetDistance(a, b));
  }
  r.scalar_s = bench::SecondsSince(t0);

  const kernels::KernelOps& k = kernels::KernelDispatch::Get();
  std::vector<double> scratch(3 * kPointsEach);
  t0 = std::chrono::steady_clock::now();
  for (size_t p = 0; p < pairs; ++p) {
    const size_t a = p % fleet.size();
    const size_t b = (p * 11 + 5) % fleet.size();
    kernel_sum.MixDouble(k.frechet_full(cols.x(a), cols.y(a), kPointsEach,
                                        cols.x(b), cols.y(b), kPointsEach, 0,
                                        kDiagonals, scratch.data()));
  }
  r.kernel_s = bench::SecondsSince(t0);

  return Finish(r, scalar_sum, kernel_sum);
}

PrimitiveResult BenchPackedRange(const std::vector<Trajectory>& fleet,
                                 size_t rounds) {
  PrimitiveResult r{"packed_range"};
  // Index every trajectory SEGMENT box (fleet_size * (points - 1) items)
  // and run the map-matching candidate-fetch pattern: one small box
  // (+-75 m) around every 4th sample point. Many small queries over an
  // out-of-cache tree is where layout and batching matter -- contiguous
  // level-order node arrays, one amortized result buffer instead of a
  // per-query allocation, and the contains-whole-subtree linear emit.
  std::vector<bench::RTree::Item> base_items;
  std::vector<kernels::PackedRTree::Item> packed_items;
  std::vector<geometry::BBox> queries;
  for (size_t i = 0; i < fleet.size(); ++i) {
    const auto& pts = fleet[i].points();
    for (size_t k = 0; k + 1 < pts.size(); ++k) {
      const geometry::BBox box(pts[k].p, pts[k + 1].p);
      const uint64_t id = i * kPointsEach + k;
      base_items.push_back({id, box});
      packed_items.push_back({id, box});
    }
    for (size_t k = 0; k < pts.size(); k += 4) {
      queries.push_back(geometry::BBox(pts[k].p, pts[k].p).Expanded(75.0));
    }
  }
  bench::RTree baseline;
  baseline.BulkLoad(base_items);
  // Wide leaves: the SIMD leaf sweep makes 64-entry leaves cheaper than
  // deeper traversal, which a branchy AoS scan cannot afford.
  kernels::PackedRTree packed(64);
  packed.BulkLoad(packed_items);

  // Time pure query work; checksum afterwards. Result sets are
  // order-insensitive between the two trees, so checksum sorted ids.
  std::vector<std::vector<uint64_t>> base_results(queries.size());
  kernels::PackedRTree::BatchResults batch;

  auto t0 = std::chrono::steady_clock::now();
  for (size_t round = 0; round < rounds; ++round) {
    for (size_t q = 0; q < queries.size(); ++q) {
      base_results[q] = baseline.RangeQuery(queries[q]);
    }
  }
  r.scalar_s = bench::SecondsSince(t0);

  t0 = std::chrono::steady_clock::now();
  for (size_t round = 0; round < rounds; ++round) {
    packed.RangeQueryMany(queries, &batch);
  }
  r.kernel_s = bench::SecondsSince(t0);

  Checksum scalar_sum, kernel_sum;
  std::vector<uint64_t> ids;
  for (size_t q = 0; q < queries.size(); ++q) {
    ids = base_results[q];
    std::sort(ids.begin(), ids.end());
    for (uint64_t id : ids) scalar_sum.Mix(id);
    ids.assign(batch.begin_of(q), batch.end_of(q));
    std::sort(ids.begin(), ids.end());
    for (uint64_t id : ids) kernel_sum.Mix(id);
  }

  return Finish(r, scalar_sum, kernel_sum);
}

}  // namespace
}  // namespace sidq

int main(int argc, char** argv) {
  using namespace sidq;

  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--quick") quick = true;
  }

  bench::Banner("BENCH kernels", "columnar kernels vs scalar reference",
                "querying massive low-quality SID collections needs "
                "hardware-friendly similarity/index primitives; the "
                "columnar fast lane must change performance, not results");

  const char* isa = kernels::IsaName(kernels::KernelDispatch::Active());
  const auto fleet = MakeFleet();
  std::printf("fleet: %zu trajectories x %zu points, isa: %s%s\n\n",
              fleet.size(), static_cast<size_t>(kPointsEach), isa,
              quick ? " (--quick)" : "");

  const FleetColumns cols(fleet);
  const size_t mul = quick ? 1 : 10;
  std::vector<PrimitiveResult> results;
  results.push_back(BenchPairwise(fleet, cols, 400 * mul));
  results.push_back(BenchDtw(fleet, cols, 200 * mul, /*band=*/32));
  results.push_back(BenchFrechet(fleet, cols, 100 * mul));
  results.push_back(BenchPackedRange(fleet, 2 * mul));

  bench::Table table({"primitive", "scalar_s", "kernel_s", "speedup"});
  for (const PrimitiveResult& r : results) {
    table.AddRow({r.name, bench::F3(r.scalar_s), bench::F3(r.kernel_s),
                  bench::F2(r.speedup)});
  }
  table.Print();
  std::printf("equivalence: all kernel outputs bit-identical to scalar\n\n");

  bench::JsonWriter json;
  json.Str("bench", "kernels")
      .Int("fleet_size", fleet.size())
      .Int("points_per_trajectory", kPointsEach)
      .Str("isa", isa)
      .Str("equivalence", "bit-identical")
      .Array("primitives");
  for (const PrimitiveResult& r : results) {
    char checksum[17];
    std::snprintf(checksum, sizeof(checksum), "%016llx",
                  static_cast<unsigned long long>(r.checksum));
    json.Object()
        .Str("primitive", r.name)
        .Num("scalar_s", r.scalar_s, 4)
        .Num("kernel_s", r.kernel_s, 4)
        .Num("speedup", r.speedup, 2)
        .Str("checksum", checksum)
        .Bool("identical", true)
        .End();
  }
  bench::EmitJson(json);
  return 0;
}
