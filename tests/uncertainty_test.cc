#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "sim/noise.h"
#include "sim/sensor_field.h"
#include "sim/trajectory_sim.h"
#include "uncertainty/calibration.h"
#include "uncertainty/completion.h"
#include "uncertainty/fusion.h"
#include "uncertainty/interpolation.h"
#include "uncertainty/smoothing.h"

namespace sidq {
namespace uncertainty {
namespace {

using geometry::BBox;
using geometry::Point;

Trajectory StraightLine(int n, Timestamp dt = 1000, double speed = 10.0) {
  Trajectory tr(1);
  for (int i = 0; i < n; ++i) {
    tr.AppendUnordered(TrajectoryPoint(
        i * dt, Point(speed * TimestampToSeconds(i * dt), 0.0)));
  }
  return tr;
}

// --------------------------------------------------------------- Smoothing

TEST(SmoothingTest, MovingAverageReducesNoise) {
  Rng rng(1);
  const Trajectory truth = StraightLine(300);
  const Trajectory noisy = sim::AddGpsNoise(truth, 10.0, &rng);
  const auto smooth = MovingAverageSmooth(noisy, 3);
  ASSERT_TRUE(smooth.ok());
  EXPECT_LT(RmseBetween(truth, smooth.value()).value(),
            RmseBetween(truth, noisy).value() * 0.6);
}

TEST(SmoothingTest, MovingAveragePreservesTimestamps) {
  const Trajectory truth = StraightLine(20);
  const auto smooth = MovingAverageSmooth(truth, 2);
  ASSERT_TRUE(smooth.ok());
  ASSERT_EQ(smooth->size(), truth.size());
  for (size_t i = 0; i < truth.size(); ++i) {
    EXPECT_EQ((*smooth)[i].t, truth[i].t);
  }
}

TEST(SmoothingTest, ExponentialAlphaOneIsIdentity) {
  const Trajectory truth = StraightLine(10);
  const auto out = ExponentialSmooth(truth, 1.0);
  ASSERT_TRUE(out.ok());
  EXPECT_NEAR(MeanErrorBetween(truth, out.value()).value(), 0.0, 1e-12);
}

TEST(SmoothingTest, ExponentialRejectsBadAlpha) {
  const Trajectory truth = StraightLine(10);
  EXPECT_FALSE(ExponentialSmooth(truth, 0.0).ok());
  EXPECT_FALSE(ExponentialSmooth(truth, 1.5).ok());
}

TEST(SmoothingTest, StagesWork) {
  Rng rng(2);
  const Trajectory truth = StraightLine(100);
  const Trajectory noisy = sim::AddGpsNoise(truth, 8.0, &rng);
  MovingAverageStage ma(2);
  ExponentialSmoothStage ex(0.4);
  EXPECT_EQ(ma.name(), "moving_average_smooth");
  EXPECT_EQ(ex.name(), "exponential_smooth");
  EXPECT_TRUE(ma.Apply(noisy, StageContext{}).ok());
  EXPECT_TRUE(ex.Apply(noisy, StageContext{}).ok());
}

// ------------------------------------------------------------- Calibration

TEST(CalibrationTest, SnapsToCorpusAnchors) {
  Rng rng(3);
  // Corpus: many clean trajectories on the same straight road.
  std::vector<Trajectory> corpus;
  for (int k = 0; k < 10; ++k) {
    corpus.push_back(StraightLine(100));
  }
  TrajectoryCalibrator::Options opts;
  opts.anchor_cell_m = 20.0;
  opts.min_points_per_anchor = 5;
  opts.snap_radius_m = 30.0;
  TrajectoryCalibrator calibrator(opts);
  calibrator.BuildAnchors(corpus);
  EXPECT_GT(calibrator.num_anchors(), 10u);

  const Trajectory truth = StraightLine(100);
  const Trajectory noisy = sim::AddGpsNoise(truth, 8.0, &rng);
  const auto calibrated = calibrator.Calibrate(noisy);
  ASSERT_TRUE(calibrated.ok());
  EXPECT_LT(RmseBetween(truth, calibrated.value()).value(),
            RmseBetween(truth, noisy).value());
}

TEST(CalibrationTest, FarPointsUntouched) {
  TrajectoryCalibrator calibrator;
  calibrator.SetAnchors({Point(0, 0)});
  Trajectory tr(1);
  tr.AppendUnordered(TrajectoryPoint(0, Point(1000, 1000)));
  const auto out = calibrator.Calibrate(tr);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value()[0].p, Point(1000, 1000));
}

// Duplicate anchors and queries equidistant from two anchors: either tied
// anchor is a correct snap, but the result must be an anchor at the
// minimum distance.
TEST(CalibrationTest, TiedAnchorsSnapToANearestOne) {
  const std::vector<Point> anchors = {Point(0, 0), Point(0, 0), Point(10, 0),
                                      Point(-10, 0), Point(10, 0),
                                      Point(0, 25)};
  TrajectoryCalibrator calibrator;
  calibrator.SetAnchors(anchors);
  Trajectory tr(1);
  const std::vector<Point> queries = {Point(5, 0), Point(-5, 0), Point(0, 0),
                                      Point(5, 5), Point(0, 12.5)};
  for (size_t i = 0; i < queries.size(); ++i) {
    tr.AppendUnordered(
        TrajectoryPoint(static_cast<Timestamp>(i), queries[i]));
  }
  const auto out = calibrator.Calibrate(tr);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    double nearest = std::numeric_limits<double>::infinity();
    for (const Point& a : anchors) {
      nearest = std::min(nearest, geometry::Distance(a, queries[i]));
    }
    const Point snapped = (*out)[i].p;
    EXPECT_NE(std::find(anchors.begin(), anchors.end(), snapped),
              anchors.end())
        << "query " << i << " did not snap to an anchor";
    EXPECT_EQ(geometry::Distance(snapped, queries[i]), nearest)
        << "query " << i;
  }
}

TEST(CalibrationTest, NeedsAnchors) {
  TrajectoryCalibrator calibrator;
  EXPECT_FALSE(calibrator.Calibrate(StraightLine(5)).ok());
}

// -------------------------------------------------------------- Completion

TEST(CompletionTest, LinearCompleteFillsGaps) {
  Trajectory sparse(1);
  sparse.AppendUnordered(TrajectoryPoint(0, Point(0, 0)));
  sparse.AppendUnordered(TrajectoryPoint(10'000, Point(100, 0)));
  const auto full = LinearComplete(sparse, 1000);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->size(), 11u);
  EXPECT_NEAR((*full)[5].p.x, 50.0, 1e-9);
  EXPECT_TRUE(full->IsTimeOrdered());
}

TEST(CompletionTest, LinearCompleteRejectsBadInterval) {
  EXPECT_FALSE(LinearComplete(StraightLine(3), 0).ok());
}

TEST(CompletionTest, RoadCompleteFollowsNetwork) {
  Rng rng(4);
  sim::RoadNetwork net =
      sim::MakeGridRoadNetwork(8, 8, 150.0, 0.0, 0.0, &rng);
  sim::TrajectorySimulator::Options sopts;
  sopts.mean_speed_mps = 12.0;
  sopts.speed_jitter = 0.5;
  sim::TrajectorySimulator simulator(sopts, &rng);
  const auto truth = simulator.RandomOnNetwork(net, 16, 1);
  ASSERT_TRUE(truth.ok());
  // Keep one point in 15 (sparse sampling).
  const Trajectory sparse = sim::Resample(truth.value(), 15'000);
  ASSERT_LT(sparse.size(), truth->size() / 5);

  RoadCompleter::Options opts;
  opts.target_interval_ms = 1000;
  RoadCompleter completer(&net, opts);
  const auto road = completer.Complete(sparse);
  const auto linear = LinearComplete(sparse, 1000);
  ASSERT_TRUE(road.ok());
  ASSERT_TRUE(linear.ok());
  EXPECT_GT(road->size(), sparse.size() * 5);

  // Error vs ground truth at reconstructed times: the road-aware completion
  // should beat straight-line interpolation on a grid network.
  auto mean_err = [&](const Trajectory& reconstructed) {
    double err = 0.0;
    size_t n = 0;
    for (const auto& pt : reconstructed.points()) {
      auto p = truth->InterpolateAt(pt.t);
      if (p.ok()) {
        err += geometry::Distance(pt.p, p.value());
        ++n;
      }
    }
    return err / std::max<size_t>(1, n);
  };
  EXPECT_LT(mean_err(road.value()), mean_err(linear.value()));
}

// ----------------------------------------------------------- Interpolation

class InterpolationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    bounds_ = BBox(0, 0, 3000, 3000);
    field_ = std::make_unique<sim::ScalarField>(sim::ScalarField::MakeRandom(
        bounds_, 4, 10.0, 30.0, 400, 900, 3600, &rng_));
    sensors_ = sim::DeploySensors(bounds_, 60, &rng_);
    data_ = sim::SampleField(*field_, sensors_, 0, 60'000, 30, "pm25");
  }

  double EvalError(const StInterpolator& interp, int trials) {
    double err = 0.0;
    int n = 0;
    Rng rng(99);
    for (int i = 0; i < trials; ++i) {
      const Point p(rng.Uniform(200, 2800), rng.Uniform(200, 2800));
      const Timestamp t = 60'000 * rng.UniformInt(1, 28);
      auto est = interp.Estimate(p, t);
      if (est.ok()) {
        err += std::abs(est.value() - field_->Value(p, t));
        ++n;
      }
    }
    return n > 0 ? err / n : 1e9;
  }

  Rng rng_{5};
  BBox bounds_;
  std::unique_ptr<sim::ScalarField> field_;
  std::vector<Point> sensors_;
  StDataset data_;
};

TEST_F(InterpolationTest, IdwBeatsGlobalMeanBaseline) {
  IdwInterpolator idw(&data_);
  // Baseline: predict the global mean everywhere.
  double mean = 0.0;
  size_t n = 0;
  for (const auto& r : data_.AllRecords()) {
    mean += r.value;
    ++n;
  }
  mean /= n;
  Rng rng(98);
  double idw_err = 0.0, base_err = 0.0;
  for (int i = 0; i < 100; ++i) {
    const Point p(rng.Uniform(200, 2800), rng.Uniform(200, 2800));
    const Timestamp t = 60'000 * rng.UniformInt(1, 28);
    idw_err += std::abs(idw.Estimate(p, t).value() - field_->Value(p, t));
    base_err += std::abs(mean - field_->Value(p, t));
  }
  EXPECT_LT(idw_err, base_err);
}

TEST_F(InterpolationTest, KernelReasonableError) {
  KernelInterpolator::Options opts;
  opts.bandwidth_m = 350.0;
  KernelInterpolator kern(&data_, opts);
  EXPECT_LT(EvalError(kern, 100), 8.0);
}

TEST_F(InterpolationTest, TrendClustersFormed) {
  TrendClusterInterpolator tc(&data_);
  EXPECT_GT(tc.num_clusters(), 0);
  EXPECT_EQ(tc.cluster_of().size(), data_.num_sensors());
  EXPECT_LT(EvalError(tc, 100), 10.0);
}

TEST_F(InterpolationTest, ExactAtSensorLocation) {
  IdwInterpolator::Options opts;
  opts.k = 1;
  IdwInterpolator idw(&data_, opts);
  const auto est = idw.Estimate(sensors_[0], 60'000);
  ASSERT_TRUE(est.ok());
  EXPECT_NEAR(est.value(), field_->Value(sensors_[0], 60'000), 1e-6);
}

TEST(InterpolationEdgeTest, EmptyDatasetFails) {
  StDataset empty("x");
  IdwInterpolator idw(&empty);
  EXPECT_FALSE(idw.Estimate(Point(0, 0), 0).ok());
  KernelInterpolator kern(&empty);
  EXPECT_FALSE(kern.Estimate(Point(0, 0), 0).ok());
}

TEST(PearsonTest, KnownValues) {
  EXPECT_NEAR(PearsonCorrelation({1, 2, 3}, {2, 4, 6}), 1.0, 1e-12);
  EXPECT_NEAR(PearsonCorrelation({1, 2, 3}, {6, 4, 2}), -1.0, 1e-12);
  EXPECT_DOUBLE_EQ(PearsonCorrelation({1, 1, 1}, {2, 4, 6}), 0.0);
  EXPECT_DOUBLE_EQ(PearsonCorrelation({1}, {2}), 0.0);
}

// ----------------------------------------------------------------- Fusion

TEST(FusionTest, ReducesMeasurementError) {
  Rng rng(6);
  const BBox bounds(0, 0, 1000, 1000);
  const auto field = sim::ScalarField::MakeRandom(bounds, 2, 10.0, 20.0, 300,
                                                  600, 3600, &rng);
  const auto sensors = sim::DeploySensors(bounds, 20, &rng);
  const StDataset truth =
      sim::SampleField(field, sensors, 0, 60'000, 20, "pm25");
  // Two noisy observations of the same deployment.
  const StDataset primary = sim::AddValueNoise(truth, 4.0, &rng);
  const StDataset auxiliary = sim::AddValueNoise(truth, 4.0, &rng);

  StidFusionOptions opts;
  opts.radius_m = 1.0;  // fuse only the co-located sensor
  opts.window_ms = 1000;
  const auto fused = FuseStid(primary, auxiliary, opts);
  ASSERT_TRUE(fused.ok());

  auto rmse = [&](const StDataset& ds) {
    double acc = 0.0;
    size_t n = 0;
    for (size_t s = 0; s < ds.num_sensors(); ++s) {
      for (size_t i = 0; i < ds.series()[s].size(); ++i) {
        const double e =
            ds.series()[s][i].value - truth.series()[s][i].value;
        acc += e * e;
        ++n;
      }
    }
    return std::sqrt(acc / n);
  };
  // Averaging two independent sigma=4 sources gives ~ 4/sqrt(2) = 2.83.
  EXPECT_LT(rmse(fused.value()), rmse(primary) * 0.8);
}

TEST(FusionTest, RejectsBadOptions) {
  StDataset a("x"), b("x");
  StidFusionOptions opts;
  opts.radius_m = -1;
  EXPECT_FALSE(FuseStid(a, b, opts).ok());
}

// Parameterised sparsity sweep: completion keeps error bounded as sampling
// drops (the tutorial's time-sparsity dimension).
class SparsitySweep : public ::testing::TestWithParam<int> {};

TEST_P(SparsitySweep, LinearCompletionRestoresDensity) {
  const int keep_every = GetParam();
  const Trajectory truth = StraightLine(240);
  const auto sparse = sim::Resample(truth, keep_every * 1000);
  const auto full = LinearComplete(sparse, 1000);
  ASSERT_TRUE(full.ok());
  // On straight-line motion linear completion is exact.
  double err = 0.0;
  for (const auto& pt : full->points()) {
    err += std::abs(pt.p.x - 10.0 * TimestampToSeconds(pt.t));
  }
  EXPECT_LT(err / full->size(), 1e-9);
  EXPECT_GE(full->size(), truth.size() - keep_every);
}

INSTANTIATE_TEST_SUITE_P(KeepRates, SparsitySweep,
                         ::testing::Values(2, 5, 10, 30));

}  // namespace
}  // namespace uncertainty
}  // namespace sidq
