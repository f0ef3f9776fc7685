// M1 -- substrate micro-benchmarks (google-benchmark): index queries,
// coder throughput, and filter throughput. These quantify the building
// blocks the experiment harness stands on.

#include <utility>

#include <benchmark/benchmark.h>

#include "bench/rtree.h"
#include "core/random.h"
#include "kernels/packed_rtree.h"
#include "reduce/coding.h"
#include "reduce/simplify.h"
#include "refine/kalman.h"
#include "sim/noise.h"

namespace sidq {
namespace {

std::vector<geometry::Point> MakePoints(size_t n) {
  Rng rng(1);
  std::vector<geometry::Point> pts;
  pts.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    pts.emplace_back(rng.Uniform(0, 10000), rng.Uniform(0, 10000));
  }
  return pts;
}

// Best-first 10-NN over point boxes in a PackedRTree: the BoxGapScan walk
// trajectory calibration snaps through (it takes the first item).
void BM_PackedRTreeKnn(benchmark::State& state) {
  const auto pts = MakePoints(state.range(0));
  std::vector<kernels::PackedRTree::Item> items;
  for (size_t i = 0; i < pts.size(); ++i) {
    items.push_back({i, geometry::BBox(pts[i], pts[i])});
  }
  kernels::PackedRTree tree;
  tree.BulkLoad(std::move(items));
  Rng rng(3);
  for (auto _ : state) {
    const geometry::Point q(rng.Uniform(0, 10000), rng.Uniform(0, 10000));
    kernels::BoxGapScan scan(tree, geometry::BBox(q, q));
    uint64_t id = 0;
    double gap = 0.0;
    for (int k = 0; k < 10 && scan.Next(&id, &gap); ++k) {
      benchmark::DoNotOptimize(id);
    }
  }
}
BENCHMARK(BM_PackedRTreeKnn)->Arg(10'000)->Arg(100'000);

void BM_RTreeRange(benchmark::State& state) {
  const auto pts = MakePoints(state.range(0));
  std::vector<bench::RTree::Item> items;
  for (size_t i = 0; i < pts.size(); ++i) {
    items.push_back({i, geometry::BBox(pts[i], pts[i])});
  }
  bench::RTree tree;
  tree.BulkLoad(items);
  Rng rng(4);
  for (auto _ : state) {
    const double x = rng.Uniform(0, 9000);
    const double y = rng.Uniform(0, 9000);
    benchmark::DoNotOptimize(
        tree.RangeQuery(geometry::BBox(x, y, x + 500, y + 500)));
  }
}
BENCHMARK(BM_RTreeRange)->Arg(10'000)->Arg(100'000);

void BM_GolombRiceEncode(benchmark::State& state) {
  Rng rng(5);
  std::vector<int64_t> values;
  int64_t v = 0;
  for (int i = 0; i < 10'000; ++i) {
    v += rng.UniformInt(-100, 120);
    values.push_back(v);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(reduce::EncodeIntegerSeries(values));
  }
  state.SetItemsProcessed(state.iterations() * values.size());
}
BENCHMARK(BM_GolombRiceEncode);

void BM_GolombRiceDecode(benchmark::State& state) {
  Rng rng(6);
  std::vector<int64_t> values;
  int64_t v = 0;
  for (int i = 0; i < 10'000; ++i) {
    v += rng.UniformInt(-100, 120);
    values.push_back(v);
  }
  const auto bytes = reduce::EncodeIntegerSeries(values);
  for (auto _ : state) {
    benchmark::DoNotOptimize(reduce::DecodeIntegerSeries(bytes));
  }
  state.SetItemsProcessed(state.iterations() * values.size());
}
BENCHMARK(BM_GolombRiceDecode);

Trajectory MakeNoisyTrajectory(size_t n) {
  Rng rng(7);
  Trajectory tr(1);
  for (size_t i = 0; i < n; ++i) {
    tr.AppendUnordered(TrajectoryPoint(
        static_cast<Timestamp>(i) * 1000,
        geometry::Point(i * 10.0 + rng.Gaussian(0, 10),
                        rng.Gaussian(0, 10))));
  }
  return tr;
}

void BM_KalmanSmooth(benchmark::State& state) {
  const Trajectory tr = MakeNoisyTrajectory(state.range(0));
  const refine::KalmanFilter2D kf;
  for (auto _ : state) {
    benchmark::DoNotOptimize(kf.Smooth(tr));
  }
  state.SetItemsProcessed(state.iterations() * tr.size());
}
BENCHMARK(BM_KalmanSmooth)->Arg(1'000)->Arg(10'000);

void BM_DouglasPeuckerSed(benchmark::State& state) {
  const Trajectory tr = MakeNoisyTrajectory(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(reduce::DouglasPeuckerSed(tr, 15.0));
  }
  state.SetItemsProcessed(state.iterations() * tr.size());
}
BENCHMARK(BM_DouglasPeuckerSed)->Arg(1'000)->Arg(10'000);

void BM_SquishE(benchmark::State& state) {
  const Trajectory tr = MakeNoisyTrajectory(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(reduce::SquishE(tr, 15.0));
  }
  state.SetItemsProcessed(state.iterations() * tr.size());
}
BENCHMARK(BM_SquishE)->Arg(1'000)->Arg(10'000);

}  // namespace
}  // namespace sidq

BENCHMARK_MAIN();
