// M1 -- substrate micro-benchmarks (google-benchmark): index queries, the
// batched probabilistic range query, coder throughput, filter throughput,
// Rng draws, the block CRC32C and the stream engine's cost per event.
// These quantify the building blocks the experiment harness stands on.

#include <cstdint>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/rtree.h"
#include "core/random.h"
#include "geometry/bbox.h"
#include "kernels/dispatch.h"
#include "kernels/packed_rtree.h"
#include "query/uncertain_point.h"
#include "reduce/coding.h"
#include "reduce/simplify.h"
#include "refine/kalman.h"
#include "sim/noise.h"
#include "sim/sensor_field.h"
#include "stream/engine.h"
#include "stream/event_log.h"

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

// The batched probabilistic range query at the shape of the end-to-end
// request (bench/e2e query_hot): 256 Gaussian points (sigma 3-20 m) and
// 256 boxes of half-width 100-400 m over an 8 km square, tau 0.5, answered
// through ProbabilisticRangeQueryMany's fan-out-16 PackedRTree.
void BM_ProbRangeMany(benchmark::State& state) {
  constexpr double kSide = 8000.0;
  Rng rng(9);
  std::vector<query::UncertainPoint> points;
  for (ObjectId id = 0; id < 256; ++id) {
    const geometry::Point mean(rng.Uniform(0, kSide), rng.Uniform(0, kSide));
    points.push_back(query::UncertainPoint::MakeGaussian(
        id, mean, rng.Uniform(3.0, 20.0)));
  }
  std::vector<geometry::BBox> boxes;
  for (int b = 0; b < 256; ++b) {
    const double cx = rng.Uniform(0, kSide);
    const double cy = rng.Uniform(0, kSide);
    const double half = rng.Uniform(100.0, 400.0);
    boxes.emplace_back(cx - half, cy - half, cx + half, cy + half);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        query::ProbabilisticRangeQueryMany(points, boxes, 0.5));
  }
}
BENCHMARK(BM_ProbRangeMany);

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

// One Rng draw. Gaussian pays two or more canonical draws and a log per
// call; ForKey pays the 312-word seeding of a fresh engine plus its first
// twist, as FleetRunner does once per object.
void BM_RngGaussian(benchmark::State& state) {
  Rng rng(8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.Gaussian(0.0, 1.0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngGaussian);

void BM_RngUniform(benchmark::State& state) {
  Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.Uniform(-1.0, 1.0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngUniform);

void BM_RngForKey(benchmark::State& state) {
  uint64_t key = 0;
  for (auto _ : state) {
    Rng rng = Rng::ForKey(10, ++key);
    benchmark::DoNotOptimize(rng.Uniform(0.0, 1.0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngForKey);

// The CRC32C a block read verifies: a 12,308-byte block of 256 rows,
// checksummed as ParseBlockAt does (8 header-field bytes, then the
// 12,292-byte payload). Arg 0 runs the dispatched tier, arg 1 the scalar
// table loop every tier must match.
void BM_Crc32cBlock(benchmark::State& state) {
  constexpr size_t kBlockBytes = 12'308;
  const kernels::KernelOps& ops =
      state.range(0) == 0 ? kernels::KernelDispatch::Get()
                          : *kernels::KernelDispatch::Table(
                                kernels::Isa::kScalar);
  Rng rng(11);
  std::vector<char> block(kBlockBytes);
  for (char& c : block) c = static_cast<char>(rng.UniformInt(0, 255));
  for (auto _ : state) {
    uint32_t crc = ops.crc32c(0, block.data() + 4, 8);
    crc = ops.crc32c(crc, block.data() + 16, kBlockBytes - 16);
    benchmark::DoNotOptimize(crc);
  }
  state.SetLabel(kernels::IsaName(ops.isa));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kBlockBytes - 8));
}
BENCHMARK(BM_Crc32cBlock)->Arg(0)->Arg(1);

// One StreamEngine pass, every Push then Flush, over a log shaped like
// bench_stream's: 64 sensors x 400 one-minute samples of a smooth field
// with noise, spikes, duplicate deliveries and stragglers, window_capacity
// 32. Items are events, so the per-item time is the engine's cost per
// event with admission and window closes included.
void BM_StreamEngineLog(benchmark::State& state) {
  Rng rng(777);
  const geometry::BBox bounds(geometry::Point(0, 0),
                              geometry::Point(8000, 8000));
  const sim::ScalarField field = sim::ScalarField::MakeRandom(
      bounds, 3, 20.0, 30.0, 300.0, 900.0, 3600.0, &rng);
  const std::vector<geometry::Point> sensors =
      sim::DeploySensors(bounds, 64, &rng);
  StDataset dirty = sim::AddValueNoise(
      sim::SampleField(field, sensors, 0, 60'000, 400, "pm25"), 0.8, &rng);
  dirty = sim::AddValueSpikes(dirty, 0.02, 400.0, &rng);
  stream::ArrivalOptions arrivals;
  arrivals.mean_delay_ms = 20'000;
  arrivals.straggler_probability = 0.05;
  arrivals.straggler_delay_ms = 400'000;
  arrivals.duplicate_probability = 0.05;
  const stream::EventLog log = stream::RecordArrivals(dirty, arrivals, &rng);

  stream::StreamConfig config;
  stream::SensorRule rule;
  rule.min_value = -50.0;
  rule.max_value = 500.0;
  rule.expected_interval_ms = 60'000;
  rule.max_lateness_ms = 120'000;
  rule.max_rate_per_s = 1.0;
  config.rules.set_default_rule(rule);
  config.window_ms = 300'000;
  config.window_capacity = 32;
  config.robust_z.z_threshold = 4.0;
  config.robust_z.min_samples = 6;

  for (auto _ : state) {
    stream::StreamEngine engine(config);
    Status st = Status::OK();
    for (const stream::StreamEvent& ev : log.events) {
      st = engine.Push(ev);
      if (!st.ok()) break;
    }
    if (st.ok()) st = engine.Flush();
    if (!st.ok()) {
      state.SkipWithError("stream engine pass failed");
      break;
    }
    benchmark::DoNotOptimize(engine);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(log.events.size()));
}
BENCHMARK(BM_StreamEngineLog)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace sidq

BENCHMARK_MAIN();
