#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <random>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "core/quality.h"
#include "core/random.h"
#include "core/status.h"
#include "core/statusor.h"
#include "core/stid.h"
#include "core/symbolic.h"
#include "core/trajectory.h"
#include "sim/noise.h"
#include "sim/sensor_field.h"
#include "sim/trajectory_sim.h"

namespace sidq {
namespace {

// ------------------------------------------------------------------ Status

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kDataLoss), "DataLoss");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kUnimplemented),
               "Unimplemented");
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 42);
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::NotFound("missing");
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(v.value_or(-1), -1);
}

StatusOr<int> Doubler(StatusOr<int> in) {
  SIDQ_ASSIGN_OR_RETURN(int v, in);
  return v * 2;
}

TEST(StatusOrTest, AssignOrReturnMacro) {
  EXPECT_EQ(Doubler(21).value(), 42);
  EXPECT_FALSE(Doubler(Status::Internal("boom")).ok());
}

// -------------------------------------------------------------------- Rng

TEST(RngTest, Deterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(0, 1), b.Uniform(0, 1));
  }
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(2);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Gaussian(5.0, 2.0);
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.2);
}

TEST(RngTest, BernoulliRate) {
  Rng rng(3);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(RngTest, CategoricalWeights) {
  Rng rng(4);
  std::vector<double> w{0.0, 1.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 8000; ++i) ++counts[rng.Categorical(w)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[1], 3.0, 0.4);
}

TEST(RngTest, EngineMatchesStdMt19937_64) {
  // The standard's check value ([rand.predef]): the 10000th output of a
  // default-constructed mt19937_64.
  Mt19937_64 standard;
  for (int i = 0; i < 9999; ++i) standard();
  EXPECT_EQ(standard(), 9981545732273789042ull);

  // Four twists' worth of outputs, so at least 1,000 come after the third.
  const int n = 4 * 312 + 1000;
  for (uint64_t seed : {uint64_t{0}, uint64_t{1}, uint64_t{42}, uint64_t{5489},
                        std::numeric_limits<uint64_t>::max()}) {
    Mt19937_64 ours(seed);
    std::mt19937_64 ref(seed);
    for (int i = 0; i < n; ++i) {
      const uint64_t a = ours();
      const uint64_t b = ref();
      ASSERT_EQ(a, b) << "seed " << seed << " output " << i;
    }
  }
}

TEST(RngTest, CanonicalIsExact) {
  // 2^64 - x, computed modulo 2^64.
  auto two64_minus = [](uint64_t x) { return uint64_t{0} - x; };
  const std::vector<uint64_t> cases = {
      0,
      1,
      (uint64_t{1} << 32) - 1,
      uint64_t{1} << 32,
      (uint64_t{1} << 53) - 1,
      uint64_t{1} << 53,
      (uint64_t{1} << 53) + 1,
      uint64_t{1} << 63,
      // Doubles in [2^63, 2^64) are 2^11 apart: ties at odd multiples of
      // 2^10 round to even, and the top tie rounds up to 2^64.
      (uint64_t{1} << 63) + 1024,
      (uint64_t{1} << 63) + 3 * 1024,
      two64_minus(3 * 1024) - 1,
      two64_minus(3 * 1024),
      two64_minus(3 * 1024) + 1,
      two64_minus(2048),
      two64_minus(1024) - 1,
      two64_minus(1024),
      two64_minus(1024) + 1,
      std::numeric_limits<uint64_t>::max(),
  };
  auto reference = [](uint64_t u) {
    const double c = static_cast<double>(u) / 0x1p64;
    return c >= 1.0 ? std::nextafter(1.0, 0.0) : c;
  };
  for (uint64_t u : cases) {
    EXPECT_EQ(ToCanonical(u), reference(u)) << std::hex << u;
  }
  EXPECT_EQ(ToCanonical(two64_minus(1024)), 0x1.fffffffffffffp-1);
  EXPECT_EQ(ToCanonical(std::numeric_limits<uint64_t>::max()),
            0x1.fffffffffffffp-1);
  EXPECT_EQ(ToCanonical(1), 0x1p-64);

  Mt19937_64 bits(7);
  for (int i = 0; i < 1'000'000; ++i) {
    // Masking the low bits exercises the ties and the carries between the
    // two 32-bit halves more often than raw outputs do.
    const uint64_t u = bits() | (i % 2 == 0 ? 0 : 0x3FF);
    ASSERT_EQ(ToCanonical(u), reference(u)) << std::hex << u;
  }
}

#if defined(__GLIBCXX__)
// Draws n values from Rng(seed) with `ours` and from std::mt19937_64(seed)
// with `theirs`, and fails at the first pair whose bytes differ.
template <typename Ours, typename Theirs>
void ExpectSameBits(const char* what, uint64_t seed, int n, Ours ours,
                    Theirs theirs) {
  Rng rng(seed);
  std::mt19937_64 ref(seed);
  for (int i = 0; i < n; ++i) {
    const auto a = ours(rng);
    const auto b = theirs(ref);
    static_assert(std::is_same_v<decltype(a), decltype(b)>);
    if (std::memcmp(&a, &b, sizeof(a)) != 0) {
      ADD_FAILURE() << what << ": draw " << i << " differs: " << a << " vs "
                    << b;
      return;
    }
  }
}

TEST(RngTest, DistributionsMatchLibstdcxxBitForBit) {
  constexpr int kDraws = 1'000'000;
  ExpectSameBits(
      "Canonical", 1, kDraws, [](Rng& r) { return r.Canonical(); },
      [](std::mt19937_64& e) {
        return std::generate_canonical<double, 53>(e);
      });
  const std::pair<double, double> uniform_sets[] = {
      {0.0, 1.0}, {2.0, 2.0}, {-5.0, -1.0}, {-1e3, 1e6}};
  for (const auto& [lo, hi] : uniform_sets) {
    ExpectSameBits(
        "Uniform", 2, kDraws, [&](Rng& r) { return r.Uniform(lo, hi); },
        [&](std::mt19937_64& e) {
          return std::uniform_real_distribution<double>(lo, hi)(e);
        });
  }
  std::vector<std::pair<double, double>> gaussian_sets = {
      {0.0, 1.0}, {5.0, 2.0}, {-3.0, 1e-6}};
#if !defined(_GLIBCXX_ASSERTIONS)
  // std::normal_distribution requires stddev > 0 only as an assertion.
  gaussian_sets.push_back({3.0, 0.0});
#endif
  for (const auto& [mean, stddev] : gaussian_sets) {
    ExpectSameBits(
        "Gaussian", 3, kDraws,
        [&](Rng& r) { return r.Gaussian(mean, stddev); },
        [&](std::mt19937_64& e) {
          return std::normal_distribution<double>(mean, stddev)(e);
        });
  }
  for (double rate : {1.0, 1e-3, 250.0}) {
    ExpectSameBits(
        "Exponential", 4, kDraws, [&](Rng& r) { return r.Exponential(rate); },
        [&](std::mt19937_64& e) {
          return std::exponential_distribution<double>(rate)(e);
        });
  }
  for (double p : {0.0, 1.0, 0.3}) {
    ExpectSameBits(
        "Bernoulli", 5, kDraws, [&](Rng& r) { return r.Bernoulli(p); },
        [&](std::mt19937_64& e) { return std::bernoulli_distribution(p)(e); });
  }
  const std::pair<int64_t, int64_t> int_sets[] = {
      {-3, 3},
      {0, 1000},
      {std::numeric_limits<int64_t>::min(),
       std::numeric_limits<int64_t>::max()}};
  for (const auto& [lo, hi] : int_sets) {
    ExpectSameBits(
        "UniformInt", 6, kDraws, [&](Rng& r) { return r.UniformInt(lo, hi); },
        [&](std::mt19937_64& e) {
          return std::uniform_int_distribution<int64_t>(lo, hi)(e);
        });
  }
  for (double mean : {0.5, 40.0}) {
    ExpectSameBits(
        "Poisson", 7, kDraws, [&](Rng& r) { return r.Poisson(mean); },
        [&](std::mt19937_64& e) {
          return std::poisson_distribution<int>(mean)(e);
        });
  }
  const std::vector<double> weights = {0.0, 1.0, 3.0, 0.5};
  ExpectSameBits(
      "Categorical", 8, kDraws, [&](Rng& r) { return r.Categorical(weights); },
      [&](std::mt19937_64& e) {
        std::discrete_distribution<size_t> d(weights.begin(), weights.end());
        return d(e);
      });

  // 1,000 shuffles of 1,000 items: 999,000 bounded draws.
  Rng rng(9);
  std::mt19937_64 ref(9);
  std::vector<int> ours(1000), theirs(1000);
  std::iota(ours.begin(), ours.end(), 0);
  std::iota(theirs.begin(), theirs.end(), 0);
  for (int round = 0; round < 1000; ++round) {
    rng.Shuffle(ours);
    for (size_t i = theirs.size(); i > 1; --i) {
      const auto j = static_cast<size_t>(
          std::uniform_int_distribution<int64_t>(
              0, static_cast<int64_t>(i) - 1)(ref));
      std::swap(theirs[i - 1], theirs[j]);
    }
    ASSERT_EQ(ours, theirs) << "shuffle " << round;
  }
}
#endif  // __GLIBCXX__

// The first draws of every method at seed 42. The literals were computed by
// the std:: distributions over std::mt19937_64 that Rng wrapped before it
// owned its engine, so they hold on any standard library.
TEST(RngTest, GoldenSequencesArePinned) {
  auto draws = [](auto draw, int n) {
    Rng rng(42);
    std::vector<decltype(draw(rng))> out;
    for (int i = 0; i < n; ++i) out.push_back(draw(rng));
    return out;
  };
  Mt19937_64 engine(42);
  EXPECT_EQ(engine(), 13930160852258120406ull);
  EXPECT_EQ(engine(), 11788048577503494824ull);
  EXPECT_EQ(engine(), 13874630024467741450ull);
  EXPECT_EQ(draws([](Rng& r) { return r.Uniform(0, 1); }, 4),
            (std::vector<double>{0x1.82a3befaddcbcp-1, 0x1.472f1f73724ap-1,
                                 0x1.81192cfe1cbcfp-1, 0x1.171621fc50d6ap-3}));
  EXPECT_EQ(draws([](Rng& r) { return r.Uniform(-5, -1); }, 4),
            (std::vector<double>{-0x1.fab8820a44688p+0, -0x1.38d0e08c8db6p+1,
                                 -0x1.fdcda603c6862p+0,
                                 -0x1.1d1d3bc075e53p+2}));
  EXPECT_EQ(draws([](Rng& r) { return r.Gaussian(0, 1); }, 4),
            (std::vector<double>{0x1.68f438d8aec29p-1, -0x1.25efc127557c7p-1,
                                 -0x1.e81c87dfcf302p+0,
                                 -0x1.72c03dadaa429p-1}));
  EXPECT_EQ(draws([](Rng& r) { return r.Gaussian(5, 2); }, 4),
            (std::vector<double>{0x1.9a3d0e362bb0ap+2, 0x1.ed081f6c5541cp+1,
                                 0x1.2fc6f040619fcp+0, 0x1.c69fe1292adecp+1}));
  EXPECT_EQ(draws([](Rng& r) { return r.Exponential(2); }, 4),
            (std::vector<double>{0x1.6839cf27d4febp-1, 0x1.04dad7f4d36f5p-1,
                                 0x1.6518f721dc864p-1, 0x1.2c073b00cefa3p-4}));
  EXPECT_EQ(draws([](Rng& r) { return r.Bernoulli(0.5); }, 16),
            (std::vector<bool>{false, false, false, true, false, true, false,
                               true, true, true, true, false, false, false,
                               false, false}));
  EXPECT_EQ(draws([](Rng& r) { return r.UniformInt(-100, 100); }, 8),
            (std::vector<int64_t>{51, 28, 51, -73, 81, -82, 15, -26}));
  EXPECT_EQ(draws([](Rng& r) { return r.Poisson(3.5); }, 8),
            (std::vector<int>{5, 3, 0, 7, 2, 2, 2, 3}));
  EXPECT_EQ(draws([](Rng& r) { return r.Poisson(40); }, 8),
            (std::vector<int>{46, 40, 47, 32, 44, 47, 35, 43}));
  const std::vector<double> weights = {1, 2, 3, 4};
  EXPECT_EQ(draws([&](Rng& r) { return r.Categorical(weights); }, 8),
            (std::vector<size_t>{3, 3, 3, 1, 3, 0, 2, 2}));
  Rng rng(42);
  std::vector<int> items = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  rng.Shuffle(items);
  EXPECT_EQ(items, (std::vector<int>{3, 4, 1, 2, 9, 8, 0, 6, 5, 7}));
  Rng keyed = Rng::ForKey(42, 7);
  EXPECT_EQ(keyed.Uniform(0, 1), 0x1.5f28c768e15f4p-3);
  EXPECT_EQ(keyed.Uniform(0, 1), 0x1.a4fed64933b2bp-1);
}

// -------------------------------------------------------------- Trajectory

Trajectory MakeLine(ObjectId id, int n, Timestamp dt_ms, double speed_mps) {
  Trajectory tr(id);
  for (int i = 0; i < n; ++i) {
    const double t_s = TimestampToSeconds(i * dt_ms);
    EXPECT_TRUE(
        tr.Append(TrajectoryPoint(i * dt_ms,
                                  geometry::Point(speed_mps * t_s, 0.0)))
            .ok());
  }
  return tr;
}

TEST(TrajectoryTest, AppendEnforcesOrder) {
  Trajectory tr(1);
  EXPECT_TRUE(tr.Append(TrajectoryPoint(10, {0, 0})).ok());
  EXPECT_TRUE(tr.Append(TrajectoryPoint(10, {1, 0})).ok());  // equal ok
  EXPECT_FALSE(tr.Append(TrajectoryPoint(5, {2, 0})).ok());
}

TEST(TrajectoryTest, SortByTimeStable) {
  Trajectory tr(1);
  tr.AppendUnordered(TrajectoryPoint(30, {3, 0}));
  tr.AppendUnordered(TrajectoryPoint(10, {1, 0}));
  tr.AppendUnordered(TrajectoryPoint(20, {2, 0}));
  EXPECT_FALSE(tr.IsTimeOrdered());
  tr.SortByTime();
  EXPECT_TRUE(tr.IsTimeOrdered());
  EXPECT_EQ(tr[0].p.x, 1.0);
  EXPECT_EQ(tr[2].p.x, 3.0);
}

TEST(TrajectoryTest, DurationLengthSpeed) {
  const Trajectory tr = MakeLine(1, 11, 1000, 10.0);
  EXPECT_EQ(tr.Duration(), 10000);
  EXPECT_NEAR(tr.Length(), 100.0, 1e-9);
  EXPECT_NEAR(tr.SpeedAt(5), 10.0, 1e-9);
  EXPECT_DOUBLE_EQ(tr.SpeedAt(0), 0.0);
  EXPECT_DOUBLE_EQ(tr.MeanSamplingIntervalSeconds(), 1.0);
}

TEST(TrajectoryTest, InterpolateAt) {
  const Trajectory tr = MakeLine(1, 11, 1000, 10.0);
  auto p = tr.InterpolateAt(5500);
  ASSERT_TRUE(p.ok());
  EXPECT_NEAR(p->x, 55.0, 1e-9);
  EXPECT_FALSE(tr.InterpolateAt(-1).ok());
  EXPECT_FALSE(tr.InterpolateAt(10001).ok());
  EXPECT_FALSE(Trajectory(2).InterpolateAt(0).ok());
}

TEST(TrajectoryTest, NearestIndexByTime) {
  const Trajectory tr = MakeLine(1, 11, 1000, 10.0);
  EXPECT_EQ(tr.NearestIndexByTime(5400).value(), 5u);
  EXPECT_EQ(tr.NearestIndexByTime(5600).value(), 6u);
  EXPECT_EQ(tr.NearestIndexByTime(-100).value(), 0u);
  EXPECT_EQ(tr.NearestIndexByTime(999999).value(), 10u);
}

TEST(TrajectoryTest, Slice) {
  const Trajectory tr = MakeLine(1, 11, 1000, 10.0);
  const Trajectory mid = tr.Slice(3000, 7000);
  EXPECT_EQ(mid.size(), 5u);
  EXPECT_EQ(mid.front().t, 3000);
  EXPECT_EQ(mid.back().t, 7000);
}

TEST(TrajectoryTest, RmseAndMeanError) {
  const Trajectory a = MakeLine(1, 5, 1000, 10.0);
  Trajectory b(1);
  for (const auto& pt : a.points()) {
    b.AppendUnordered(TrajectoryPoint(pt.t, {pt.p.x, pt.p.y + 3.0}));
  }
  EXPECT_NEAR(RmseBetween(a, b).value(), 3.0, 1e-9);
  EXPECT_NEAR(MeanErrorBetween(a, b).value(), 3.0, 1e-9);
  EXPECT_FALSE(RmseBetween(a, MakeLine(1, 3, 1000, 10.0)).ok());
}

// -------------------------------------------------------------------- STID

TEST(StSeriesTest, AppendInterpolate) {
  StSeries s(7, geometry::Point(1, 2));
  ASSERT_TRUE(s.Append(0, 10.0).ok());
  ASSERT_TRUE(s.Append(1000, 20.0).ok());
  EXPECT_FALSE(s.Append(500, 15.0).ok());
  EXPECT_NEAR(s.InterpolateAt(500).value(), 15.0, 1e-9);
  EXPECT_FALSE(s.InterpolateAt(2000).ok());
  EXPECT_EQ(s.Values(), (std::vector<double>{10.0, 20.0}));
}

TEST(StDatasetTest, FindAndAggregate) {
  StDataset ds("pm25");
  StSeries a(1, geometry::Point(0, 0));
  ASSERT_TRUE(a.Append(0, 1.0).ok());
  StSeries b(2, geometry::Point(100, 100));
  ASSERT_TRUE(b.Append(0, 2.0).ok());
  ASSERT_TRUE(b.Append(60, 3.0).ok());
  ds.AddSeries(a);
  ds.AddSeries(b);
  EXPECT_EQ(ds.TotalRecords(), 3u);
  EXPECT_TRUE(ds.FindSeries(2).ok());
  EXPECT_FALSE(ds.FindSeries(99).ok());
  EXPECT_EQ(ds.AllRecords().size(), 3u);
  EXPECT_DOUBLE_EQ(ds.SpatialBounds().Width(), 100.0);
}

// ---------------------------------------------------------------- Symbolic

TEST(SymbolicTest, DedupAndSequence) {
  SymbolicTrajectory tr(1);
  tr.Append(3, 0);
  tr.Append(3, 1000);
  tr.Append(5, 2000);
  tr.Append(5, 3000);
  tr.Append(3, 4000);
  const SymbolicTrajectory dedup = tr.Deduplicated();
  EXPECT_EQ(dedup.size(), 3u);
  EXPECT_EQ(tr.RegionSequence(), (std::vector<RegionId>{3, 5, 3}));
}

TEST(SymbolicTest, SortByTime) {
  SymbolicTrajectory tr(1);
  tr.Append(2, 5000);
  tr.Append(1, 1000);
  tr.SortByTime();
  EXPECT_EQ(tr[0].region, 1u);
}

// ------------------------------------------------------------- DQ quality

TEST(QualityTest, DimensionNamesAndPolarity) {
  EXPECT_STREQ(DqDimensionName(DqDimension::kAccuracy), "accuracy");
  EXPECT_TRUE(MetricLargerIsWorse(DqDimension::kAccuracy));
  EXPECT_FALSE(MetricLargerIsWorse(DqDimension::kCompleteness));
}

TEST(QualityTest, ReportSetGet) {
  DqReport r;
  EXPECT_FALSE(r.Has(DqDimension::kLatency));
  r.Set(DqDimension::kLatency, 1.5);
  EXPECT_TRUE(r.Has(DqDimension::kLatency));
  EXPECT_DOUBLE_EQ(r.Get(DqDimension::kLatency), 1.5);
  EXPECT_NE(r.ToString().find("latency"), std::string::npos);
}

TEST(QualityTest, DiagnoseChangesDirection) {
  DqReport clean, dirty;
  clean.Set(DqDimension::kAccuracy, 1.0);
  dirty.Set(DqDimension::kAccuracy, 10.0);  // error up = degraded
  clean.Set(DqDimension::kCompleteness, 1.0);
  dirty.Set(DqDimension::kCompleteness, 0.5);  // completeness down = degraded
  clean.Set(DqDimension::kRedundancy, 0.01);
  dirty.Set(DqDimension::kRedundancy, 0.011);  // within threshold: no issue
  const auto issues = DiagnoseChanges(clean, dirty, 0.10);
  ASSERT_EQ(issues.size(), 2u);
  for (const DqIssue& issue : issues) {
    EXPECT_TRUE(issue.degraded);
  }
}

TEST(QualityTest, ProfilerOnNoisyTrajectory) {
  Rng rng(11);
  sim::TrajectorySimulator::Options opts;
  sim::TrajectorySimulator simulator(opts, &rng);
  const Trajectory truth =
      simulator.RandomWaypoint(geometry::BBox(0, 0, 2000, 2000), 300, 1);
  const Trajectory noisy = sim::AddGpsNoise(truth, 20.0, &rng);
  TrajectoryProfiler profiler;
  std::vector<Trajectory> obs_clean{truth}, obs_noisy{noisy}, tru{truth};
  const DqReport clean = profiler.Profile(obs_clean, &tru);
  const DqReport dirty = profiler.Profile(obs_noisy, &tru);
  // Noise should visibly degrade precision and accuracy.
  EXPECT_GT(dirty.Get(DqDimension::kPrecision),
            clean.Get(DqDimension::kPrecision) * 2.0);
  EXPECT_GT(dirty.Get(DqDimension::kAccuracy), 10.0);
  EXPECT_LT(clean.Get(DqDimension::kAccuracy), 1e-6);
}

TEST(QualityTest, ProfilerDetectsSparsityAndIncompleteness) {
  Rng rng(12);
  sim::TrajectorySimulator simulator({}, &rng);
  const Trajectory truth =
      simulator.RandomWaypoint(geometry::BBox(0, 0, 2000, 2000), 300, 1);
  const Trajectory sparse = sim::DropSamples(truth, 0.6, &rng);
  TrajectoryProfiler profiler;
  std::vector<Trajectory> obs{sparse}, tru{truth};
  const DqReport report = profiler.Profile(obs, &tru);
  EXPECT_GT(report.Get(DqDimension::kTimeSparsity), 1.5);
  EXPECT_LT(report.Get(DqDimension::kCompleteness), 0.6);
}

TEST(QualityTest, ProfilerLatency) {
  Rng rng(13);
  sim::TrajectorySimulator simulator({}, &rng);
  const Trajectory truth =
      simulator.RandomWaypoint(geometry::BBox(0, 0, 500, 500), 50, 1);
  std::vector<Timestamp> arrival;
  const Trajectory delayed =
      sim::AddDeliveryDelay(truth, 4.0, &rng, &arrival);
  TrajectoryProfiler profiler;
  std::vector<Trajectory> obs{delayed};
  std::vector<std::vector<Timestamp>> arrivals{arrival};
  const DqReport report = profiler.Profile(obs, nullptr, &arrivals);
  EXPECT_NEAR(report.Get(DqDimension::kLatency), 4.0, 1.5);
}

TEST(QualityTest, StidProfilerBasics) {
  Rng rng(14);
  const geometry::BBox bounds(0, 0, 2000, 2000);
  const auto field =
      sim::ScalarField::MakeRandom(bounds, 3, 10.0, 30.0, 300, 600, 3600, &rng);
  const auto sensors = sim::DeploySensors(bounds, 30, &rng);
  const StDataset truth =
      sim::SampleField(field, sensors, 0, 60'000, 40, "pm25");
  const StDataset noisy = sim::AddValueNoise(truth, 3.0, &rng);
  StidProfiler profiler;
  const DqReport clean = profiler.Profile(truth, &truth);
  const DqReport dirty = profiler.Profile(noisy, &truth);
  EXPECT_LT(clean.Get(DqDimension::kAccuracy), 1e-9);
  EXPECT_NEAR(dirty.Get(DqDimension::kAccuracy), 3.0, 1.0);
  EXPECT_GT(dirty.Get(DqDimension::kPrecision),
            clean.Get(DqDimension::kPrecision));
}

// ---------------------------------------------------------------- Pipeline

TEST(PipelineTest, RunsStagesInOrder) {
  TrajectoryPipeline pipeline;
  pipeline.Add("shift_x", [](const Trajectory& in) -> StatusOr<Trajectory> {
    Trajectory out(in.object_id());
    for (const auto& pt : in.points()) {
      out.AppendUnordered(
          TrajectoryPoint(pt.t, {pt.p.x + 1.0, pt.p.y}, pt.accuracy));
    }
    return out;
  });
  pipeline.Add("double_x", [](const Trajectory& in) -> StatusOr<Trajectory> {
    Trajectory out(in.object_id());
    for (const auto& pt : in.points()) {
      out.AppendUnordered(
          TrajectoryPoint(pt.t, {pt.p.x * 2.0, pt.p.y}, pt.accuracy));
    }
    return out;
  });
  Trajectory in(1);
  in.AppendUnordered(TrajectoryPoint(0, {1.0, 0.0}));
  const auto out = pipeline.Run(in);
  ASSERT_TRUE(out.ok());
  EXPECT_DOUBLE_EQ(out.value()[0].p.x, 4.0);  // (1+1)*2
}

TEST(PipelineTest, FailurePropagatesWithStageName) {
  TrajectoryPipeline pipeline;
  pipeline.Add("boom", [](const Trajectory&) -> StatusOr<Trajectory> {
    return Status::Internal("kaput");
  });
  const auto out = pipeline.Run(Trajectory(1));
  ASSERT_FALSE(out.ok());
  EXPECT_NE(out.status().message().find("boom"), std::string::npos);
}

TEST(PipelineTest, RunProfiledEmitsReports) {
  TrajectoryPipeline pipeline;
  pipeline.Add("identity", [](const Trajectory& in) -> StatusOr<Trajectory> {
    return in;
  });
  Trajectory in(1);
  for (int i = 0; i < 10; ++i) {
    in.AppendUnordered(TrajectoryPoint(i * 1000, {i * 10.0, 0.0}));
  }
  std::vector<StageReport> reports;
  TrajectoryProfiler profiler;
  const auto out = pipeline.RunProfiled(in, &in, profiler, &reports);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].stage_name, "input");
  EXPECT_EQ(reports[1].stage_name, "identity");
}

TEST(PipelineTest, SeededStageWithoutRngDrawsFromFixedFallbackStream) {
  const SeededStageFn jitter =
      [](const Trajectory& in, Rng& rng) -> StatusOr<Trajectory> {
    Trajectory out(in.object_id());
    for (const auto& pt : in.points()) {
      out.AppendUnordered(TrajectoryPoint(
          pt.t, {pt.p.x + rng.Gaussian(0.0, 1.0), pt.p.y + rng.Uniform(0.0, 1.0)},
          pt.accuracy));
    }
    return out;
  };
  TrajectoryPipeline pipeline;
  pipeline.AddSeeded("jitter", jitter);
  Trajectory in(7);
  for (int i = 0; i < 16; ++i) {
    in.AppendUnordered(TrajectoryPoint(i * 1000, {i * 3.0, -i * 1.5}));
  }

  // No ctx.rng: two runs give the same bits, drawn from the stream the
  // adapter pins (0x51D95EED), not from some per-run or per-object state.
  const auto first = pipeline.Run(in);
  const auto second = pipeline.Run(in);
  Rng fallback(0x51D95EED);
  const auto direct = jitter(in, fallback);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(direct.ok());
  ASSERT_EQ(first->size(), in.size());
  ASSERT_EQ(second->size(), in.size());
  ASSERT_EQ(direct->size(), in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ((*first)[i].p.x, (*second)[i].p.x) << "point " << i;
    EXPECT_EQ((*first)[i].p.y, (*second)[i].p.y) << "point " << i;
    EXPECT_EQ((*first)[i].p.x, (*direct)[i].p.x) << "point " << i;
    EXPECT_EQ((*first)[i].p.y, (*direct)[i].p.y) << "point " << i;
  }
}

}  // namespace
}  // namespace sidq
