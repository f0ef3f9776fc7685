#include <gtest/gtest.h>

#include "outlier/stid_outliers.h"
#include "outlier/trajectory_outliers.h"
#include "sim/noise.h"
#include "sim/sensor_field.h"

namespace sidq {
namespace outlier {
namespace {

using geometry::BBox;
using geometry::Point;

Trajectory StraightLine(int n, double speed = 10.0) {
  Trajectory tr(1);
  for (int i = 0; i < n; ++i) {
    tr.AppendUnordered(
        TrajectoryPoint(i * 1000, Point(speed * i, 0.0)));
  }
  return tr;
}

// Dirty trajectory fixture shared by detector tests.
struct DirtyTraj {
  Trajectory truth;
  Trajectory dirty;
  std::vector<bool> labels;
};

DirtyTraj MakeDirty(double rate, uint64_t seed, int n = 600) {
  Rng rng(seed);
  DirtyTraj out;
  out.truth = StraightLine(n);
  out.dirty =
      sim::AddOutliers(out.truth, rate, 150.0, 400.0, &rng, &out.labels);
  return out;
}

// -------------------------------------------------------- SpeedConstraint

TEST(SpeedConstraintTest, FlagsJumpOutAndBack) {
  const DirtyTraj d = MakeDirty(0.05, 1);
  SpeedConstraintDetector detector;
  const auto flags = detector.Detect(d.dirty);
  ASSERT_TRUE(flags.ok());
  const DetectionQuality q = EvaluateDetection(flags.value(), d.labels);
  EXPECT_GT(q.precision, 0.9);
  EXPECT_GT(q.recall, 0.9);
}

TEST(SpeedConstraintTest, CleanTrajectoryNoFlags) {
  SpeedConstraintDetector detector;
  const auto flags = detector.Detect(StraightLine(100));
  ASSERT_TRUE(flags.ok());
  for (bool f : flags.value()) EXPECT_FALSE(f);
}

TEST(SpeedConstraintTest, RejectsUnordered) {
  Trajectory tr(1);
  tr.AppendUnordered(TrajectoryPoint(1000, {0, 0}));
  tr.AppendUnordered(TrajectoryPoint(0, {1, 0}));
  EXPECT_FALSE(SpeedConstraintDetector().Detect(tr).ok());
}

// ------------------------------------------------------------ Statistical

TEST(StatisticalTest, FlagsGrossOutliers) {
  const DirtyTraj d = MakeDirty(0.04, 2);
  StatisticalDetector detector;
  const auto flags = detector.Detect(d.dirty);
  ASSERT_TRUE(flags.ok());
  const DetectionQuality q = EvaluateDetection(flags.value(), d.labels);
  EXPECT_GT(q.f1, 0.75);
}

TEST(StatisticalTest, TinyInputNoFlags) {
  StatisticalDetector detector;
  const auto flags = detector.Detect(StraightLine(2));
  ASSERT_TRUE(flags.ok());
  EXPECT_EQ(flags->size(), 2u);
}

// ------------------------------------------------------------- Predictive

TEST(PredictiveTest, DetectsAndRepairs) {
  const DirtyTraj d = MakeDirty(0.05, 3);
  PredictiveDetector detector;
  const auto flags = detector.Detect(d.dirty);
  ASSERT_TRUE(flags.ok());
  const DetectionQuality q = EvaluateDetection(flags.value(), d.labels);
  EXPECT_GT(q.f1, 0.8);

  const auto repaired = detector.Repair(d.dirty);
  ASSERT_TRUE(repaired.ok());
  EXPECT_LT(RmseBetween(d.truth, repaired.value()).value(),
            RmseBetween(d.truth, d.dirty).value() * 0.3);
}

TEST(PredictiveTest, HonestOnCleanData) {
  PredictiveDetector detector;
  const auto flags = detector.Detect(StraightLine(200));
  ASSERT_TRUE(flags.ok());
  size_t flagged = 0;
  for (bool f : flags.value()) flagged += f ? 1 : 0;
  EXPECT_LT(flagged, 3u);
}

// ---------------------------------------------------------- Remove/Repair

TEST(RemoveRepairTest, RemoveFlaggedDropsPoints) {
  const Trajectory tr = StraightLine(10);
  std::vector<bool> flags(10, false);
  flags[3] = flags[7] = true;
  const auto removed = RemoveFlagged(tr, flags);
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(removed->size(), 8u);
  EXPECT_FALSE(RemoveFlagged(tr, std::vector<bool>(5)).ok());
}

TEST(RemoveRepairTest, RepairFlaggedInterpolates) {
  Trajectory tr = StraightLine(10);
  tr.mutable_points()[5].p = Point(1000, 1000);  // corrupted
  std::vector<bool> flags(10, false);
  flags[5] = true;
  const auto repaired = RepairFlagged(tr, flags);
  ASSERT_TRUE(repaired.ok());
  EXPECT_NEAR((*repaired)[5].p.x, 50.0, 1e-9);
  EXPECT_NEAR((*repaired)[5].p.y, 0.0, 1e-9);
}

TEST(RemoveRepairTest, RepairFlaggedEndpoints) {
  Trajectory tr = StraightLine(5);
  tr.mutable_points()[0].p = Point(-500, 0);
  std::vector<bool> flags(5, false);
  flags[0] = true;
  const auto repaired = RepairFlagged(tr, flags);
  ASSERT_TRUE(repaired.ok());
  // Snaps to the nearest unflagged neighbour.
  EXPECT_NEAR((*repaired)[0].p.x, 10.0, 1e-9);
}

TEST(RemoveRepairTest, StageRepairsSpeedOutliers) {
  const DirtyTraj d = MakeDirty(0.05, 4);
  SpeedOutlierRepairStage stage;
  EXPECT_EQ(stage.name(), "speed_outlier_repair");
  const auto repaired = stage.Apply(d.dirty, StageContext{});
  ASSERT_TRUE(repaired.ok());
  EXPECT_LT(RmseBetween(d.truth, repaired.value()).value(),
            RmseBetween(d.truth, d.dirty).value());
}

TEST(EvaluateDetectionTest, Formulas) {
  const std::vector<bool> pred{true, true, false, false};
  const std::vector<bool> truth{true, false, true, false};
  const DetectionQuality q = EvaluateDetection(pred, truth);
  EXPECT_DOUBLE_EQ(q.precision, 0.5);
  EXPECT_DOUBLE_EQ(q.recall, 0.5);
  EXPECT_DOUBLE_EQ(q.f1, 0.5);
}

// --------------------------------------------------------------- STDBSCAN

std::vector<StRecord> MakeTwoClustersAndNoise() {
  std::vector<StRecord> records;
  Rng rng(5);
  // Cluster A near (0,0), value ~10.
  for (int i = 0; i < 30; ++i) {
    records.emplace_back(i, i * 1000,
                         Point(rng.Gaussian(0, 30), rng.Gaussian(0, 30)),
                         10.0 + rng.Gaussian(0, 0.5));
  }
  // Cluster B near (5000,0), value ~12, same time range.
  for (int i = 0; i < 30; ++i) {
    records.emplace_back(100 + i, i * 1000,
                         Point(5000 + rng.Gaussian(0, 30),
                               rng.Gaussian(0, 30)),
                         12.0 + rng.Gaussian(0, 0.5));
  }
  // Isolated noise points.
  records.emplace_back(200, 15'000, Point(2500, 2500), 11.0);
  records.emplace_back(201, 15'000, Point(-2500, 2500), 11.0);
  return records;
}

TEST(StDbscanTest, FindsTwoClustersAndNoise) {
  StDbscan::Options opts;
  opts.eps_space_m = 120.0;
  opts.eps_time_ms = 10'000;
  opts.delta_value = 3.0;
  opts.min_pts = 4;
  const auto result = StDbscan(opts).Cluster(MakeTwoClustersAndNoise());
  EXPECT_EQ(result.num_clusters, 2);
  EXPECT_EQ(result.labels[60], -1);
  EXPECT_EQ(result.labels[61], -1);
  EXPECT_EQ(result.labels[0], result.labels[1]);
  EXPECT_NE(result.labels[0], result.labels[35]);
}

TEST(StDbscanTest, TemporalSeparationSplitsClusters) {
  // Same location, two far-apart time windows: eps_time separates them.
  std::vector<StRecord> records;
  Rng rng(6);
  for (int i = 0; i < 20; ++i) {
    records.emplace_back(i, i * 1000,
                         Point(rng.Gaussian(0, 20), rng.Gaussian(0, 20)),
                         5.0);
  }
  for (int i = 0; i < 20; ++i) {
    records.emplace_back(50 + i, 10'000'000 + i * 1000,
                         Point(rng.Gaussian(0, 20), rng.Gaussian(0, 20)),
                         5.0);
  }
  StDbscan::Options opts;
  opts.eps_space_m = 100.0;
  opts.eps_time_ms = 60'000;
  opts.min_pts = 4;
  const auto result = StDbscan(opts).Cluster(records);
  EXPECT_EQ(result.num_clusters, 2);
}

TEST(StDbscanTest, EmptyInput) {
  const auto result = StDbscan().Cluster({});
  EXPECT_EQ(result.num_clusters, 0);
  EXPECT_TRUE(result.labels.empty());
}

// ------------------------------------------------------- StNeighborhood

TEST(StNeighborhoodTest, FlagsThematicSpikes) {
  Rng rng(7);
  const BBox bounds(0, 0, 2000, 2000);
  const auto field = sim::ScalarField::MakeRandom(bounds, 3, 10.0, 20.0, 400,
                                                  800, 3600, &rng);
  const auto sensors = sim::DeploySensors(bounds, 40, &rng);
  const StDataset truth =
      sim::SampleField(field, sensors, 0, 60'000, 25, "pm25");
  std::vector<std::vector<bool>> labels;
  const StDataset spiked =
      sim::AddValueSpikes(truth, 0.03, 60.0, &rng, &labels);

  StNeighborhoodDetector detector;
  const auto records = spiked.AllRecords();
  const auto flags = detector.Detect(records);

  // Align flags with labels (records are emitted series by series).
  std::vector<bool> flat_labels;
  for (const auto& series_labels : labels) {
    flat_labels.insert(flat_labels.end(), series_labels.begin(),
                       series_labels.end());
  }
  const DetectionQuality q = EvaluateDetection(flags, flat_labels);
  EXPECT_GT(q.recall, 0.75);
  EXPECT_GT(q.precision, 0.5);
}

TEST(StNeighborhoodTest, NoNeighborsNoFlags) {
  std::vector<StRecord> records{
      StRecord(1, 0, Point(0, 0), 100.0),
      StRecord(2, 0, Point(100000, 0), -50.0),
  };
  const auto flags = StNeighborhoodDetector().Detect(records);
  EXPECT_FALSE(flags[0]);
  EXPECT_FALSE(flags[1]);
}

// Parameterised contamination sweep: detection stays useful as the outlier
// rate grows, degrading gracefully (tutorial claim about statistics-based
// methods needing enough clean context).
class ContaminationSweep : public ::testing::TestWithParam<double> {};

TEST_P(ContaminationSweep, PredictiveF1AboveFloor) {
  const DirtyTraj d = MakeDirty(GetParam(), 42);
  PredictiveDetector detector;
  const auto flags = detector.Detect(d.dirty);
  ASSERT_TRUE(flags.ok());
  const DetectionQuality q = EvaluateDetection(flags.value(), d.labels);
  EXPECT_GT(q.f1, 0.55) << "rate=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Rates, ContaminationSweep,
                         ::testing::Values(0.01, 0.05, 0.10, 0.15));

}  // namespace
}  // namespace outlier
}  // namespace sidq
