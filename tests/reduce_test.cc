#include <cmath>
#include <ostream>

#include <gtest/gtest.h>

#include "reduce/coding.h"
#include "reduce/network_compression.h"
#include "reduce/simplify.h"
#include "reduce/stid_compression.h"
#include "refine/hmm_map_matcher.h"
#include "sim/noise.h"
#include "sim/sensor_field.h"
#include "sim/trajectory_sim.h"

namespace sidq {
namespace reduce {
namespace {

using geometry::Point;

Trajectory Zigzag(int n) {
  // A wiggly trajectory: simplification has real work to do.
  Trajectory tr(1);
  for (int i = 0; i < n; ++i) {
    const double y = 20.0 * std::sin(i * 0.3) + 5.0 * std::sin(i * 1.1);
    tr.AppendUnordered(TrajectoryPoint(i * 1000, Point(i * 10.0, y)));
  }
  return tr;
}

// --------------------------------------------------------- Simplification

TEST(SimplifyTest, DpSedRespectsBound) {
  const Trajectory tr = Zigzag(500);
  for (double eps : {2.0, 5.0, 15.0}) {
    const auto simp = DouglasPeuckerSed(tr, eps);
    ASSERT_TRUE(simp.ok());
    EXPECT_LE(MaxSedError(tr, simp.value()), eps + 1e-9) << "eps=" << eps;
    EXPECT_LT(simp->size(), tr.size());
  }
}

TEST(SimplifyTest, DpPerpRespectsBound) {
  const Trajectory tr = Zigzag(400);
  const auto simp = DouglasPeuckerPerp(tr, 5.0);
  ASSERT_TRUE(simp.ok());
  // Perpendicular DP bounds perpendicular distance, not SED, but the
  // endpoints must be preserved.
  EXPECT_EQ(simp->front().t, tr.front().t);
  EXPECT_EQ(simp->back().t, tr.back().t);
  EXPECT_LT(simp->size(), tr.size() / 2);
}

TEST(SimplifyTest, RatioGrowsWithEpsilon) {
  const Trajectory tr = Zigzag(600);
  double prev_ratio = 0.0;
  for (double eps : {1.0, 3.0, 9.0, 27.0}) {
    const auto simp = DouglasPeuckerSed(tr, eps);
    ASSERT_TRUE(simp.ok());
    const double ratio = CompressionRatio(tr, simp.value());
    EXPECT_GE(ratio, prev_ratio);
    prev_ratio = ratio;
  }
  EXPECT_GT(prev_ratio, 5.0);
}

TEST(SimplifyTest, OnlineAlgorithmsRespectBoundLoosely) {
  const Trajectory tr = Zigzag(500);
  const double eps = 10.0;
  for (auto* fn : {&DeadReckoning, &OpeningWindow, &SquishE}) {
    const auto simp = (*fn)(tr, eps);
    ASSERT_TRUE(simp.ok());
    EXPECT_LT(simp->size(), tr.size());
    // Online algorithms are heuristic; allow modest overshoot.
    EXPECT_LE(MaxSedError(tr, simp.value()), 3.0 * eps);
  }
}

TEST(SimplifyTest, OfflineDpDominatesOnlineAtEqualBound) {
  // Tutorial claim: offline algorithms see the whole trajectory and
  // compress at least as well as online ones for the same error budget.
  const Trajectory tr = Zigzag(800);
  const double eps = 8.0;
  const double dp = CompressionRatio(tr, DouglasPeuckerSed(tr, eps).value());
  const double dr = CompressionRatio(tr, DeadReckoning(tr, eps).value());
  const double ow = CompressionRatio(tr, OpeningWindow(tr, eps).value());
  EXPECT_GE(dp, dr * 0.9);
  EXPECT_GE(dp, ow * 0.9);
}

TEST(SimplifyTest, SquishEKeepsEndpoints) {
  const Trajectory tr = Zigzag(200);
  const auto simp = SquishE(tr, 50.0);
  ASSERT_TRUE(simp.ok());
  EXPECT_EQ(simp->front().t, tr.front().t);
  EXPECT_EQ(simp->back().t, tr.back().t);
}

TEST(SimplifyTest, UniformSample) {
  const Trajectory tr = Zigzag(100);
  const auto simp = UniformSample(tr, 10);
  ASSERT_TRUE(simp.ok());
  EXPECT_EQ(simp->size(), 11u);  // 10 sampled + preserved last point
  EXPECT_FALSE(UniformSample(tr, 0).ok());
}

TEST(SimplifyTest, TinyInputsPassThrough) {
  Trajectory tiny(1);
  tiny.AppendUnordered(TrajectoryPoint(0, Point(0, 0)));
  tiny.AppendUnordered(TrajectoryPoint(1000, Point(1, 0)));
  for (auto* fn : {&DouglasPeuckerSed, &DeadReckoning, &OpeningWindow,
                   &SquishE}) {
    const auto simp = (*fn)(tiny, 1.0);
    ASSERT_TRUE(simp.ok());
    EXPECT_EQ(simp->size(), 2u);
  }
  EXPECT_FALSE(DouglasPeuckerSed(tiny, -1.0).ok());
}

// ------------------------------------------------------------------ Coding

TEST(CodingTest, BitWriterReaderRoundTrip) {
  BitWriter w;
  w.WriteBit(true);
  w.WriteBits(0b1011, 4);
  w.WriteUnary(5);
  w.WriteBits(0xDEADBEEF, 32);
  const auto bytes = w.Finish();
  BitReader r(bytes);
  EXPECT_TRUE(r.ReadBit().value());
  EXPECT_EQ(r.ReadBits(4).value(), 0b1011u);
  EXPECT_EQ(r.ReadUnary().value(), 5u);
  EXPECT_EQ(r.ReadBits(32).value(), 0xDEADBEEFu);
}

TEST(CodingTest, ReaderExhaustionIsError) {
  BitWriter w;
  w.WriteBits(3, 2);
  const auto bytes = w.Finish();
  BitReader r(bytes);
  EXPECT_TRUE(r.ReadBits(8).ok());  // padding bits are readable
  EXPECT_FALSE(r.ReadBits(8).ok());
}

TEST(CodingTest, ZigZag) {
  for (int64_t v : std::vector<int64_t>{0, -1, 1, -1000, 1000, INT64_MIN / 2}) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(v)), v);
  }
  EXPECT_EQ(ZigZagEncode(0), 0u);
  EXPECT_EQ(ZigZagEncode(-1), 1u);
  EXPECT_EQ(ZigZagEncode(1), 2u);
}

TEST(CodingTest, GolombRiceRoundTrip) {
  for (int k : {0, 3, 7}) {
    BitWriter w;
    const std::vector<uint64_t> values{0, 1, 5, 100, 12345};
    for (uint64_t v : values) GolombRiceEncode(v, k, &w);
    const auto bytes = w.Finish();
    BitReader r(bytes);
    for (uint64_t v : values) {
      EXPECT_EQ(GolombRiceDecode(k, &r).value(), v) << "k=" << k;
    }
  }
}

TEST(CodingTest, IntegerSeriesRoundTrip) {
  Rng rng(1);
  std::vector<int64_t> values;
  int64_t cur = 1'000'000;
  for (int i = 0; i < 2000; ++i) {
    cur += rng.UniformInt(-50, 80);
    values.push_back(cur);
  }
  const auto bytes = EncodeIntegerSeries(values);
  const auto decoded = DecodeIntegerSeries(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), values);
  // Smooth series must compress well below 8 bytes/value.
  EXPECT_LT(bytes.size(), values.size() * 3);
}

TEST(CodingTest, IntegerSeriesEmptyAndSingle) {
  EXPECT_TRUE(DecodeIntegerSeries(EncodeIntegerSeries({})).value().empty());
  const auto one = DecodeIntegerSeries(EncodeIntegerSeries({-42}));
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one.value(), (std::vector<int64_t>{-42}));
}

TEST(CodingTest, VarintRoundTrip) {
  std::vector<uint8_t> buf;
  const std::vector<uint64_t> values{0, 1, 127, 128, 300, 1ull << 40};
  for (uint64_t v : values) PutVarint(v, &buf);
  size_t pos = 0;
  for (uint64_t v : values) {
    EXPECT_EQ(GetVarint(buf, &pos).value(), v);
  }
  EXPECT_EQ(pos, buf.size());
  EXPECT_FALSE(GetVarint(buf, &pos).ok());  // exhausted
}

// -------------------------------------------------------- STID compression

StSeries MakeSeries(int n, uint64_t seed) {
  Rng rng(seed);
  StSeries s(1, Point(0, 0));
  double v = 50.0;
  for (int i = 0; i < n; ++i) {
    v += rng.Gaussian(0.0, 0.4);
    EXPECT_TRUE(s.Append(i * 60'000, v).ok());
  }
  return s;
}

TEST(LosslessTest, ExactAtQuantum) {
  const StSeries s = MakeSeries(500, 2);
  const double quantum = 0.01;
  const auto encoded = LosslessCompress(s, quantum);
  const auto decoded = LosslessDecompress(encoded, 1, Point(0, 0));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    EXPECT_EQ((*decoded)[i].t, s[i].t);
    EXPECT_NEAR((*decoded)[i].value, s[i].value, quantum / 2 + 1e-12);
  }
  // Regular timestamps + smooth values: strong compression.
  EXPECT_LT(encoded.TotalBytes(), 500 * 16 / 4);
}

TEST(LtcTest, ErrorBounded) {
  const StSeries s = MakeSeries(400, 3);
  for (double eps : {0.2, 1.0, 4.0}) {
    const auto encoded = LtcCompress(s, eps);
    ASSERT_TRUE(encoded.ok());
    std::vector<Timestamp> ts;
    for (const auto& r : s.records()) ts.push_back(r.t);
    const auto decoded = LtcDecompress(encoded.value(), ts, 1, Point(0, 0));
    ASSERT_TRUE(decoded.ok());
    for (size_t i = 0; i < s.size(); ++i) {
      EXPECT_LE(std::abs((*decoded)[i].value - s[i].value), eps + 1e-9)
          << "eps=" << eps;
    }
  }
}

TEST(LtcTest, RatioGrowsWithEpsilon) {
  const StSeries s = MakeSeries(600, 4);
  size_t prev_knots = s.size() + 1;
  for (double eps : {0.1, 0.5, 2.0, 8.0}) {
    const auto encoded = LtcCompress(s, eps);
    ASSERT_TRUE(encoded.ok());
    EXPECT_LE(encoded->knot_times.size(), prev_knots);
    prev_knots = encoded->knot_times.size();
  }
  EXPECT_LT(prev_knots, s.size() / 10);
}

TEST(LtcTest, RejectsNegativeEpsilon) {
  EXPECT_FALSE(LtcCompress(MakeSeries(10, 5), -1.0).ok());
}

TEST(DualPredictionTest, ErrorBoundHolds) {
  const StSeries s = MakeSeries(500, 6);
  const std::vector<double> values = s.Values();
  for (double eps : {0.5, 2.0}) {
    const auto result = DualPredictionReduce(values, eps);
    ASSERT_EQ(result.reconstructed.size(), values.size());
    for (size_t i = 0; i < values.size(); ++i) {
      EXPECT_LE(std::abs(result.reconstructed[i] - values[i]), eps + 1e-12);
    }
    EXPECT_GT(result.SuppressionRate(), 0.3) << "eps=" << eps;
  }
}

TEST(DualPredictionTest, SuppressionGrowsWithEpsilon) {
  const std::vector<double> values = MakeSeries(800, 7).Values();
  double prev = -1.0;
  for (double eps : {0.1, 0.5, 2.0, 8.0}) {
    const double rate = DualPredictionReduce(values, eps).SuppressionRate();
    EXPECT_GE(rate, prev);
    prev = rate;
  }
  EXPECT_GT(prev, 0.9);
}

// ---------------------------------------------------- Network compression

TEST(NetworkCompressionTest, RoundTrip) {
  std::vector<EdgeId> edges;
  std::vector<Timestamp> times;
  Rng rng(8);
  EdgeId cur_edge = 100;
  Timestamp t = 5000;
  for (int i = 0; i < 300; ++i) {
    if (i % 7 == 0) cur_edge += static_cast<EdgeId>(rng.UniformInt(1, 3));
    edges.push_back(cur_edge);
    times.push_back(t);
    t += 1000 + rng.UniformInt(-20, 20);
  }
  const auto compressed = CompressMatched(edges, times);
  ASSERT_TRUE(compressed.ok());
  const auto decompressed = DecompressMatched(compressed.value());
  ASSERT_TRUE(decompressed.ok());
  EXPECT_EQ(decompressed->edges, edges);
  EXPECT_EQ(decompressed->times, times);
  // Should beat the raw (x, y, t) representation by a wide margin.
  EXPECT_LT(compressed->TotalBytes(), RawPointBytes(edges.size()) / 5);
}

TEST(NetworkCompressionTest, RejectsMismatchedLengths) {
  EXPECT_FALSE(CompressMatched({1, 2}, {0}).ok());
}

TEST(NetworkCompressionTest, EmptyRoundTrip) {
  const auto compressed = CompressMatched({}, {});
  ASSERT_TRUE(compressed.ok());
  const auto decompressed = DecompressMatched(compressed.value());
  ASSERT_TRUE(decompressed.ok());
  EXPECT_TRUE(decompressed->edges.empty());
}

TEST(NetworkCompressionTest, EndToEndWithMapMatcher) {
  Rng rng(9);
  sim::RoadNetwork net =
      sim::MakeGridRoadNetwork(8, 8, 150.0, 5.0, 0.0, &rng);
  sim::TrajectorySimulator simulator({}, &rng);
  const auto truth = simulator.RandomOnNetwork(net, 14, 1);
  ASSERT_TRUE(truth.ok());
  const Trajectory noisy = sim::AddGpsNoise(truth.value(), 10.0, &rng);
  refine::HmmMapMatcher matcher(&net);
  const auto matched = matcher.Match(noisy);
  ASSERT_TRUE(matched.ok());
  std::vector<Timestamp> times;
  for (const auto& pt : matched->matched.points()) times.push_back(pt.t);
  const auto compressed = CompressMatched(matched->edges, times);
  ASSERT_TRUE(compressed.ok());
  const auto decompressed = DecompressMatched(compressed.value());
  ASSERT_TRUE(decompressed.ok());
  EXPECT_EQ(decompressed->edges, matched->edges);
  EXPECT_EQ(decompressed->times, times);
}

// Parameterised: every simplifier's output is monotone in time and retains
// the endpoints -- invariants any downstream consumer relies on.
using SimplifierFn = StatusOr<Trajectory> (*)(const Trajectory&, double);

// Carries a printable name so the test's reported name is the simplifier's,
// not the function's (load-address dependent) pointer value.
struct NamedSimplifier {
  const char* name;
  SimplifierFn fn;
};

void PrintTo(const NamedSimplifier& s, std::ostream* os) { *os << s.name; }

class SimplifierInvariantTest
    : public ::testing::TestWithParam<NamedSimplifier> {};

TEST_P(SimplifierInvariantTest, TimeOrderedAndEndpointPreserving) {
  const Trajectory tr = Zigzag(300);
  const auto simp = GetParam().fn(tr, 6.0);
  ASSERT_TRUE(simp.ok());
  EXPECT_TRUE(simp->IsTimeOrdered());
  EXPECT_EQ(simp->front().t, tr.front().t);
  EXPECT_EQ(simp->back().t, tr.back().t);
  EXPECT_GE(simp->size(), 2u);
}

INSTANTIATE_TEST_SUITE_P(
    AllSimplifiers, SimplifierInvariantTest,
    ::testing::Values(NamedSimplifier{"DouglasPeuckerSed", &DouglasPeuckerSed},
                      NamedSimplifier{"DouglasPeuckerPerp",
                                      &DouglasPeuckerPerp},
                      NamedSimplifier{"DeadReckoning", &DeadReckoning},
                      NamedSimplifier{"OpeningWindow", &OpeningWindow},
                      NamedSimplifier{"SquishE", &SquishE}));

}  // namespace
}  // namespace reduce
}  // namespace sidq
