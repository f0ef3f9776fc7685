#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/clock.h"
#include "core/random.h"
#include "exec/parallel_for.h"
#include "kernels/scalar_ref.h"
#include "outlier/trajectory_outliers.h"
#include "query/private.h"
#include "query/similarity.h"
#include "query/uncertain_trajectory.h"
#include "sim/noise.h"
#include "sim/trajectory_sim.h"

namespace sidq {
namespace query {
namespace {

using geometry::BBox;
using geometry::Point;

Trajectory Line(double y, int n = 50, double dx = 10.0) {
  Trajectory tr(1);
  for (int i = 0; i < n; ++i) {
    tr.AppendUnordered(TrajectoryPoint(i * 1000, Point(i * dx, y)));
  }
  return tr;
}

// ------------------------------------------------------------ similarity

TEST(DtwTest, IdenticalIsZero) {
  const Trajectory a = Line(0.0);
  EXPECT_DOUBLE_EQ(DtwDistance(a, a), 0.0);
  EXPECT_DOUBLE_EQ(DtwDistance(a, a, 8), 0.0);
}

TEST(DtwTest, ParallelLinesScaleWithOffset) {
  const Trajectory a = Line(0.0);
  const double d10 = DtwDistance(a, Line(10.0));
  const double d20 = DtwDistance(a, Line(20.0));
  EXPECT_NEAR(d10, 50 * 10.0, 1e-6);
  EXPECT_NEAR(d20 / d10, 2.0, 1e-9);
}

TEST(DtwTest, ToleratesResampling) {
  // The same path sampled at half the rate should stay close under DTW.
  Rng rng(1);
  sim::TrajectorySimulator simulator({}, &rng);
  const Trajectory full =
      simulator.RandomWaypoint(BBox(0, 0, 1000, 1000), 200, 1);
  const Trajectory half = sim::Resample(full, 2000);
  const double self_like = DtwDistance(full, half);
  const Trajectory other =
      simulator.RandomWaypoint(BBox(0, 0, 1000, 1000), 200, 2);
  EXPECT_LT(self_like, DtwDistance(full, other));
}

TEST(DtwTest, EmptyTrajectories) {
  const Trajectory empty(1);
  EXPECT_DOUBLE_EQ(DtwDistance(empty, empty), 0.0);
  EXPECT_TRUE(std::isinf(DtwDistance(empty, Line(0.0))));
}

TEST(FrechetTest, KnownValue) {
  const Trajectory a = Line(0.0);
  const Trajectory b = Line(7.0);
  EXPECT_NEAR(DiscreteFrechetDistance(a, b), 7.0, 1e-9);
  EXPECT_DOUBLE_EQ(DiscreteFrechetDistance(a, a), 0.0);
}

TEST(FrechetTest, DominatedByWorstExcursion) {
  Trajectory a = Line(0.0);
  Trajectory b = Line(0.0);
  b.mutable_points()[25].p.y = 100.0;  // single spike
  EXPECT_NEAR(DiscreteFrechetDistance(a, b), 100.0, 1e-9);
  // DTW, in contrast, pays the spike only once among many cheap steps.
  EXPECT_LT(DtwDistance(a, b), 100.0 * 2.5);
}

Trajectory RandomWalk(Rng* rng, size_t n, ObjectId id) {
  Trajectory tr(id);
  Point p(rng->Uniform(-100.0, 100.0), rng->Uniform(-100.0, 100.0));
  for (size_t i = 0; i < n; ++i) {
    tr.AppendUnordered(TrajectoryPoint(static_cast<Timestamp>(i) * 1000, p));
    p += Point(rng->Uniform(-15.0, 15.0), rng->Uniform(-15.0, 15.0));
  }
  return tr;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// The bounded Frechet runs one wavefront call without a context and one
// call per anti-diagonal with one; both must reproduce the row-serial
// scalar reference to the bit, for every shape (including single-row and
// single-column tables) and with NaN coordinates in either input.
TEST(FrechetTest, BoundedMatchesScalarReferenceBitForBit) {
  const size_t sizes[] = {1, 2, 3, 17, 64};
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  Rng rng(23);
  VirtualClock clock;
  const ExecContext live = ExecContext::After(&clock, 1000);
  for (size_t n : sizes) {
    for (size_t m : sizes) {
      for (int nan_case = 0; nan_case < 3; ++nan_case) {
        Trajectory a = RandomWalk(&rng, n, 1);
        Trajectory b = RandomWalk(&rng, m, 2);
        if (nan_case == 1) a.mutable_points()[n / 2].p.x = kNan;
        if (nan_case == 2) b.mutable_points()[m - 1].p.y = kNan;
        const double want = kernels::scalar::FrechetDistance(a, b);
        const auto plain = DiscreteFrechetDistanceBounded(a, b, nullptr);
        const auto bounded = DiscreteFrechetDistanceBounded(a, b, &live);
        ASSERT_TRUE(plain.ok());
        ASSERT_TRUE(bounded.ok());
        EXPECT_TRUE(SameBits(*plain, want))
            << "n=" << n << " m=" << m << " nan_case=" << nan_case;
        EXPECT_TRUE(SameBits(*bounded, want))
            << "n=" << n << " m=" << m << " nan_case=" << nan_case;
      }
    }
  }
}

// A clock that advances 1 ms on every reading, so a budget of B ms admits
// exactly B deadline checks after the context is created.
class TickingClock : public Clock {
 public:
  int64_t NowMs() const override {
    return now_ms_.fetch_add(1, std::memory_order_acq_rel);
  }
  void SleepMs(int64_t ms) const override {
    now_ms_.fetch_add(ms, std::memory_order_acq_rel);
  }
  // Readings taken so far (the clock started at 0).
  int64_t reads() const { return now_ms_.load(std::memory_order_acquire); }

 private:
  mutable std::atomic<int64_t> now_ms_{0};
};

TEST(FrechetTest, DeadlineInterruptsBetweenAntiDiagonals) {
  Rng rng(29);
  const Trajectory a = RandomWalk(&rng, 17, 1);
  const Trajectory b = RandomWalk(&rng, 5, 2);
  const int64_t diagonals = 17 + 5 - 1;
  {
    // One check per anti-diagonal: a budget of exactly n+m-1 checks runs
    // the whole table.
    TickingClock clock;
    const ExecContext ctx = ExecContext::After(&clock, diagonals);
    const auto got = DiscreteFrechetDistanceBounded(a, b, &ctx);
    ASSERT_TRUE(got.ok());
    EXPECT_TRUE(SameBits(*got, DiscreteFrechetDistance(a, b)));
    EXPECT_EQ(clock.reads(), 1 + diagonals);
  }
  for (const int64_t budget : {int64_t{1}, int64_t{7}, diagonals - 1}) {
    // Fewer checks than diagonals: the call stops at check budget+1, with
    // diagonals left unvisited.
    TickingClock clock;
    const ExecContext ctx = ExecContext::After(&clock, budget);
    const auto got = DiscreteFrechetDistanceBounded(a, b, &ctx);
    EXPECT_EQ(got.status().code(), StatusCode::kDeadlineExceeded)
        << "budget=" << budget;
    EXPECT_EQ(clock.reads(), 1 + budget + 1) << "budget=" << budget;
  }
}

TEST(DtwTest, DeadlineInterruptsBetweenAntiDiagonals) {
  Rng rng(31);
  const Trajectory a = RandomWalk(&rng, 17, 1);
  const Trajectory b = RandomWalk(&rng, 40, 2);
  const int64_t diagonals = 17 + 40 - 1;
  for (const int band : {-1, 4}) {
    {
      // One check per anti-diagonal: a budget of exactly n+m-1 checks runs
      // the whole table.
      TickingClock clock;
      const ExecContext ctx = ExecContext::After(&clock, diagonals);
      const auto got = DtwDistanceBounded(a, b, band, &ctx);
      ASSERT_TRUE(got.ok());
      EXPECT_TRUE(SameBits(*got, DtwDistance(a, b, band)));
      EXPECT_EQ(clock.reads(), 1 + diagonals);
    }
    for (const int64_t budget : {int64_t{1}, int64_t{9}, diagonals - 1}) {
      // Fewer checks than diagonals: the call stops at check budget+1,
      // before the DP reaches its last diagonal.
      TickingClock clock;
      const ExecContext ctx = ExecContext::After(&clock, budget);
      const auto got = DtwDistanceBounded(a, b, band, &ctx);
      EXPECT_EQ(got.status().code(), StatusCode::kDeadlineExceeded)
          << "band=" << band << " budget=" << budget;
      EXPECT_EQ(clock.reads(), 1 + budget + 1)
          << "band=" << band << " budget=" << budget;
    }
  }
}

TEST(EdrTest, ToleranceControlsMatching) {
  const Trajectory a = Line(0.0);
  const Trajectory b = Line(5.0);
  EXPECT_DOUBLE_EQ(EdrDistance(a, b, 10.0), 0.0);  // all within tolerance
  EXPECT_DOUBLE_EQ(EdrDistance(a, b, 1.0), 1.0);   // nothing matches
  EXPECT_DOUBLE_EQ(EdrDistance(Trajectory(1), Trajectory(2), 1.0), 0.0);
  EXPECT_DOUBLE_EQ(EdrDistance(a, Trajectory(2), 1.0), 1.0);
}

TEST(LcssTest, FractionOfMatchedPrefix) {
  const Trajectory a = Line(0.0, 40);
  Trajectory b = Line(0.0, 40);
  // Corrupt the second half badly.
  for (size_t i = 20; i < b.size(); ++i) {
    b.mutable_points()[i].p.y = 1000.0;
  }
  const double s = LcssSimilarity(a, b, 5.0, 1000);
  EXPECT_NEAR(s, 0.5, 0.05);
  EXPECT_DOUBLE_EQ(LcssSimilarity(a, a, 5.0, 1000), 1.0);
}

TEST(SimilaritySearchTest, FindsNoisyCopiesWithPruning) {
  Rng rng(2);
  // A large city with short rides: most candidate MBRs are far from the
  // query's MBR, so the lower bound can prune them.
  const sim::Fleet fleet = sim::MakeFleet(20, 20, 300.0, 30, 8, &rng);
  std::vector<Trajectory> collection;
  for (const auto& tr : fleet.trajectories) {
    collection.push_back(sim::AddGpsNoise(tr, 8.0, &rng));
  }
  TrajectorySimilaritySearch search;
  search.Build(&collection);
  // Query with a differently-noised copy of trajectory 5.
  const Trajectory queried =
      sim::AddGpsNoise(fleet.trajectories[5], 8.0, &rng);
  TrajectorySimilaritySearch::SearchStats stats;
  const auto result = search.Knn(queried, 3, &stats);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 3u);
  EXPECT_EQ(result->front(), 5u);
  EXPECT_GT(stats.pruned, 0u);
  EXPECT_EQ(stats.pruned + stats.dtw_computed, stats.candidates);
}

TEST(SimilaritySearchTest, ErrorsWithoutBuild) {
  TrajectorySimilaritySearch search;
  EXPECT_FALSE(search.Knn(Line(0.0), 1).ok());
  std::vector<Trajectory> collection{Line(0.0)};
  search.Build(&collection);
  EXPECT_FALSE(search.Knn(Trajectory(1), 1).ok());
}

// ------------------------------------------------------ per-call columns

// Every measure that reads x/y/t columns, of `a` against `b`, and both
// trajectory detectors' flags on `a`.
struct ColumnResults {
  double dtw = 0.0;
  double frechet = 0.0;
  double edr = 0.0;
  double lcss = 0.0;
  std::vector<bool> speed_flags;
  std::vector<bool> stat_flags;
};

ColumnResults RunColumnMeasures(const Trajectory& a, const Trajectory& b) {
  ColumnResults r;
  r.dtw = DtwDistance(a, b, 8);
  r.frechet = DiscreteFrechetDistance(a, b);
  r.edr = EdrDistance(a, b, 10.0);
  r.lcss = LcssSimilarity(a, b, 10.0, 1000);
  r.speed_flags = *outlier::SpeedConstraintDetector().Detect(a);
  r.stat_flags = *outlier::StatisticalDetector().Detect(a);
  return r;
}

uint64_t Bits(double v) {
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

void ExpectSameBits(const ColumnResults& got, const ColumnResults& want,
                    const std::string& where) {
  EXPECT_EQ(Bits(got.dtw), Bits(want.dtw)) << where;
  EXPECT_EQ(Bits(got.frechet), Bits(want.frechet)) << where;
  EXPECT_EQ(Bits(got.edr), Bits(want.edr)) << where;
  EXPECT_EQ(Bits(got.lcss), Bits(want.lcss)) << where;
  EXPECT_EQ(got.speed_flags, want.speed_flags) << where;
  EXPECT_EQ(got.stat_flags, want.stat_flags) << where;
}

TEST(ColumnCopyTest, WriteThroughHeldMutablePointsIsSeen) {
  // A write through a reference taken before a measure ran must reach the
  // next call: nothing derived from the points may outlive the call that
  // derived it.
  Trajectory a = Line(0.0);
  const Trajectory b = Line(3.0);
  std::vector<TrajectoryPoint>& points = a.mutable_points();
  const ColumnResults before = RunColumnMeasures(a, b);
  points[25].p.y = 500.0;  // a 500 m spike in a 10 m/s walk
  const ColumnResults after = RunColumnMeasures(a, b);
  const Trajectory fresh(a.object_id(), a.points());
  ExpectSameBits(after, RunColumnMeasures(fresh, b), "after the write");
  // The write changes every result, so a stale answer cannot pass.
  EXPECT_NE(after.dtw, before.dtw);
  EXPECT_NE(after.frechet, before.frechet);
  EXPECT_NE(after.edr, before.edr);
  EXPECT_NE(after.lcss, before.lcss);
  EXPECT_TRUE(after.speed_flags[25]);
  EXPECT_FALSE(before.speed_flags[25]);
  EXPECT_TRUE(after.stat_flags[25]);
}

TEST(ColumnCopyTest, ParallelCallsOnSharedTrajectoriesMatchSerial) {
  // Four workers evaluate every measure over shared const trajectories,
  // each trajectory read by several workers at once; the results must be
  // bit-equal to a serial loop.
  Rng rng(5);
  sim::TrajectorySimulator simulator({}, &rng);
  std::vector<Trajectory> shared;
  for (ObjectId id = 0; id < 12; ++id) {
    Trajectory tr = simulator.RandomWaypoint(BBox(0, 0, 2000, 2000), 120, id);
    for (size_t i = 7; i < tr.size(); i += 31) {
      tr.mutable_points()[i].p.x += 400.0;
    }
    shared.push_back(std::move(tr));
  }
  const std::vector<Trajectory>& trs = shared;
  constexpr size_t kCalls = 48;
  const auto run = [&](size_t i) {
    return RunColumnMeasures(trs[i % trs.size()],
                             trs[(i * 5 + 1) % trs.size()]);
  };
  std::vector<ColumnResults> serial(kCalls);
  for (size_t i = 0; i < kCalls; ++i) serial[i] = run(i);
  std::vector<ColumnResults> parallel(kCalls);
  exec::ParallelFor(kCalls, 4, [&](size_t i) { parallel[i] = run(i); });
  for (size_t i = 0; i < kCalls; ++i) {
    ExpectSameBits(parallel[i], serial[i], "call " + std::to_string(i));
  }
}

// ----------------------------------------------------------------- privacy

TEST(PlanarLaplaceTest, MeanDisplacementMatchesTheory) {
  Rng rng(3);
  const PlanarLaplaceObfuscator mech(0.01);  // eps = 0.01/m -> E[r] = 200 m
  double mean_r = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    mean_r += geometry::Distance(
        mech.Obfuscate(Point(0, 0), &rng), Point(0, 0));
  }
  mean_r /= n;
  EXPECT_NEAR(mean_r, mech.MeanDisplacement(), 5.0);
}

TEST(PlanarLaplaceTest, UncertainModelCoversTruth) {
  Rng rng(4);
  const PlanarLaplaceObfuscator mech(0.02);
  const Point truth(100, 100);
  // The Gaussian surrogate should assign decent probability to a box
  // centred on the truth, on average over the mechanism's randomness.
  double prob = 0.0;
  const int n = 200;
  for (int i = 0; i < n; ++i) {
    const Point reported = mech.Obfuscate(truth, &rng);
    const auto up = mech.ToUncertainPoint(1, reported);
    prob += up.ProbInBox(BBox(truth.x - 200, truth.y - 200, truth.x + 200,
                              truth.y + 200));
  }
  EXPECT_GT(prob / n, 0.5);
}

TEST(PrivateRangeQueryTest, AwareBeatsNaiveRecall) {
  Rng rng(5);
  const PlanarLaplaceObfuscator mech(0.02);  // E[r] = 100 m
  const BBox range(400, 400, 900, 900);
  std::vector<std::pair<ObjectId, Point>> reports;
  std::vector<bool> truly_inside;
  for (int i = 0; i < 400; ++i) {
    const Point truth(rng.Uniform(0, 1300), rng.Uniform(0, 1300));
    truly_inside.push_back(range.Contains(truth));
    reports.emplace_back(i, mech.Obfuscate(truth, &rng));
  }
  const auto result = PrivateRangeQuery(reports, mech, range, 0.25);
  auto recall = [&](const std::vector<ObjectId>& found) {
    size_t tp = 0, total = 0;
    std::vector<bool> in_found(400, false);
    for (ObjectId id : found) in_found[id] = true;
    for (size_t i = 0; i < truly_inside.size(); ++i) {
      if (truly_inside[i]) {
        ++total;
        tp += in_found[i] ? 1 : 0;
      }
    }
    return total > 0 ? static_cast<double>(tp) / total : 0.0;
  };
  // With tau below 0.5, the aware query keeps borderline objects that the
  // naive query loses when the noise pushed them outside.
  EXPECT_GT(recall(result.aware), recall(result.naive));
}

// ------------------------------------------------------------------ alibi

TEST(AlibiTest, ConfirmsAlibiForDistantObjects) {
  // Objects 10 km apart with low vmax cannot have met.
  Trajectory a(1), b(2);
  a.AppendUnordered(TrajectoryPoint(0, Point(0, 0)));
  a.AppendUnordered(TrajectoryPoint(600'000, Point(600, 0)));
  b.AppendUnordered(TrajectoryPoint(0, Point(10'000, 0)));
  b.AppendUnordered(TrajectoryPoint(600'000, Point(10'600, 0)));
  EXPECT_FALSE(AlibiPossiblyMet(a, b, 5.0, 0, 600'000, 50.0));
}

TEST(AlibiTest, DetectsPossibleMeeting) {
  // Objects whose samples are 400 m apart at matching times, with enough
  // slack speed to have met in between.
  Trajectory a(1), b(2);
  a.AppendUnordered(TrajectoryPoint(0, Point(0, 0)));
  a.AppendUnordered(TrajectoryPoint(100'000, Point(0, 0)));
  b.AppendUnordered(TrajectoryPoint(0, Point(400, 0)));
  b.AppendUnordered(TrajectoryPoint(100'000, Point(400, 0)));
  // vmax 10 m/s over 100 s: each lens reaches up to 500 m at mid time.
  EXPECT_TRUE(AlibiPossiblyMet(a, b, 10.0, 0, 100'000, 10.0));
  // vmax 1 m/s: lenses reach only 50 m; a 400 m gap cannot close.
  EXPECT_FALSE(AlibiPossiblyMet(a, b, 1.0, 0, 100'000, 10.0));
}

TEST(AlibiTest, SameTrajectoryAlwaysMeets) {
  const Trajectory a = Line(0.0, 20);
  EXPECT_TRUE(AlibiPossiblyMet(a, a, 5.0, 0, 19'000, 1.0));
}

}  // namespace
}  // namespace query
}  // namespace sidq
