// Cross-module edge-case and robustness coverage: degenerate inputs,
// option extremes, and invariants that the per-module suites do not probe.

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "core/quality.h"
#include "core/random.h"
#include "fault/rfid_cleaning.h"
#include "kernels/packed_rtree.h"
#include "outlier/trajectory_outliers.h"
#include "query/similarity.h"
#include "reduce/reference_compression.h"
#include "reduce/simplify.h"
#include "reduce/stid_compression.h"
#include "refine/hmm_map_matcher.h"
#include "refine/least_squares.h"
#include "sim/noise.h"
#include "sim/trajectory_sim.h"
#include "uncertainty/completion.h"
#include "uncertainty/smoothing.h"
#include "uncertainty/interpolation.h"

namespace sidq {
namespace {

using geometry::BBox;
using geometry::Point;

// ------------------------------------------------------------- trajectories

TEST(EdgeCaseTest, SinglePointTrajectoryEverywhere) {
  Trajectory one(1);
  one.AppendUnordered(TrajectoryPoint(1000, Point(5, 5)));
  // Profiler handles it.
  TrajectoryProfiler profiler;
  const DqReport report = profiler.Profile({one});
  EXPECT_DOUBLE_EQ(report.Get(DqDimension::kDataVolume), 1.0);
  // Simplifiers pass it through.
  EXPECT_EQ(reduce::DouglasPeuckerSed(one, 1.0)->size(), 1u);
  EXPECT_EQ(reduce::SquishE(one, 1.0)->size(), 1u);
  EXPECT_EQ(reduce::DeadReckoning(one, 1.0)->size(), 1u);
  // Interpolation at its own time works, outside fails.
  EXPECT_TRUE(one.InterpolateAt(1000).ok());
  EXPECT_FALSE(one.InterpolateAt(999).ok());
}

TEST(EdgeCaseTest, DuplicateTimestampsSurvivePipelines) {
  Trajectory tr(1);
  tr.AppendUnordered(TrajectoryPoint(0, Point(0, 0)));
  tr.AppendUnordered(TrajectoryPoint(0, Point(1, 0)));  // same instant
  tr.AppendUnordered(TrajectoryPoint(1000, Point(10, 0)));
  EXPECT_TRUE(tr.IsTimeOrdered());
  EXPECT_TRUE(reduce::DouglasPeuckerSed(tr, 0.5).ok());
  EXPECT_TRUE(uncertainty::MovingAverageSmooth(tr, 1).ok());
  outlier::SpeedConstraintDetector detector;
  EXPECT_TRUE(detector.Detect(tr).ok());  // zero-dt segments skipped
}

TEST(EdgeCaseTest, ZeroEpsilonSimplificationKeepsEverythingMeaningful) {
  Rng rng(1);
  sim::TrajectorySimulator simulator({}, &rng);
  const Trajectory tr =
      simulator.RandomWaypoint(BBox(0, 0, 500, 500), 60, 1);
  const auto simp = reduce::DouglasPeuckerSed(tr, 0.0).value();
  // With epsilon 0 nothing off the interpolation line may be dropped.
  EXPECT_LE(reduce::MaxSedError(tr, simp), 1e-9);
}

// ------------------------------------------------------------------ refine

TEST(EdgeCaseTest, TrilaterationCollinearAnchorsDegenerate) {
  // Collinear anchors make the solution mirror-ambiguous; starting from
  // the anchor centroid, Gauss-Newton lands on the symmetry axis (the
  // least-squares point between the two reflections). The solver must not
  // blow up and must recover the resolvable coordinate exactly.
  const Point truth(50.0, 30.0);
  std::vector<refine::RangeMeasurement> ms;
  for (const Point anchor : {Point(0, 0), Point(50, 0), Point(100, 0)}) {
    ms.push_back({anchor, geometry::Distance(anchor, truth), 1.0});
  }
  const auto est = refine::WlsTrilaterator().Solve(ms);
  ASSERT_TRUE(est.ok());
  EXPECT_TRUE(std::isfinite(est->x) && std::isfinite(est->y));
  EXPECT_NEAR(est->x, 50.0, 1e-2);
  // Adding one off-axis anchor resolves the ambiguity completely.
  ms.push_back({Point(50, 100), geometry::Distance(Point(50, 100), truth),
                1.0});
  const auto est2 = refine::WlsTrilaterator().Solve(ms);
  ASSERT_TRUE(est2.ok());
  EXPECT_NEAR(est2->y, 30.0, 1e-2);
}

TEST(EdgeCaseTest, MapMatcherSinglePoint) {
  Rng rng(2);
  sim::RoadNetwork net = sim::MakeGridRoadNetwork(4, 4, 100.0, 0.0, 0.0,
                                                  &rng);
  refine::HmmMapMatcher matcher(&net);
  Trajectory one(1);
  one.AppendUnordered(TrajectoryPoint(0, Point(50, 3)));
  const auto result = matcher.Match(one);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->matched.size(), 1u);
  EXPECT_LT(net.DistanceToEdge(result->edges[0], result->matched[0].p),
            1e-6);
}

// ------------------------------------------------------------------- index

TEST(EdgeCaseTest, RTreeAllIdenticalPoints) {
  std::vector<kernels::PackedRTree::Item> items;
  for (uint64_t i = 0; i < 100; ++i) {
    items.push_back({i, BBox(Point(5, 5), Point(5, 5))});
  }
  for (size_t fanout : {8ul, 16ul, 64ul}) {
    kernels::PackedRTree tree(fanout);
    tree.BulkLoad(items);
    EXPECT_EQ(tree.size(), 100u) << "fanout " << fanout;
    EXPECT_EQ(tree.RangeQuery(BBox(4, 4, 6, 6)).size(), 100u)
        << "fanout " << fanout;
    EXPECT_EQ(tree.Knn(Point(0, 0), 7).size(), 7u) << "fanout " << fanout;
  }
}

// ----------------------------------------------------------------- reduce

TEST(EdgeCaseTest, LtcConstantSeriesOneSegment) {
  StSeries s(1, Point(0, 0));
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(s.Append(i * 1000, 42.0).ok());
  }
  const auto enc = reduce::LtcCompress(s, 0.1).value();
  EXPECT_EQ(enc.knot_times.size(), 2u);  // first + last
}

TEST(EdgeCaseTest, DualPredictionConstantSeriesSuppressesAll) {
  const std::vector<double> values(200, 7.0);
  const auto result = reduce::DualPredictionReduce(values, 0.1);
  // Only the first sample (and possibly the second) transmit.
  EXPECT_LE(result.transmitted, 2u);
}

TEST(EdgeCaseTest, ReferenceCompressorToleranceZero) {
  Rng rng(4);
  sim::TrajectorySimulator simulator({}, &rng);
  std::vector<Trajectory> refs{
      simulator.RandomWaypoint(BBox(0, 0, 500, 500), 50, 1)};
  reduce::ReferenceCompressor::Options opts;
  opts.tolerance_m = 0.0;
  reduce::ReferenceCompressor compressor(opts);
  compressor.BuildReferences(&refs);
  // The reference itself matches exactly even at tolerance zero.
  const auto enc = compressor.Compress(refs[0]).value();
  EXPECT_DOUBLE_EQ(enc.MatchedFraction(), 1.0);
  const auto dec = compressor.Decompress(enc, 1).value();
  for (size_t i = 0; i < refs[0].size(); ++i) {
    EXPECT_EQ(dec[i].p, refs[0][i].p);
  }
}

// ------------------------------------------------------------- uncertainty

TEST(EdgeCaseTest, RoadCompleterDegenerateGaps) {
  Rng rng(5);
  sim::RoadNetwork net = sim::MakeGridRoadNetwork(4, 4, 100.0, 0.0, 0.0,
                                                  &rng);
  uncertainty::RoadCompleter completer(&net);
  // Two samples at the same location and nearly the same time.
  Trajectory tr(1);
  tr.AppendUnordered(TrajectoryPoint(0, Point(50, 0)));
  tr.AppendUnordered(TrajectoryPoint(10, Point(50, 0)));
  const auto out = completer.Complete(tr);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 2u);
}

TEST(EdgeCaseTest, InterpolatorsAtExtremeCoordinates) {
  // Far-away probes must not produce NaN/inf.
  StDataset data("x");
  StSeries s(1, Point(0, 0));
  ASSERT_TRUE(s.Append(0, 5.0).ok());
  ASSERT_TRUE(s.Append(1000, 6.0).ok());
  data.AddSeries(s);
  uncertainty::IdwInterpolator idw(&data);
  const auto v = idw.Estimate(Point(1e7, -1e7), 500);
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(std::isfinite(v.value()));
  EXPECT_NEAR(v.value(), 5.5, 0.5);
}

// ------------------------------------------------------------------ fault

TEST(EdgeCaseTest, RfidCleanersSingleReading) {
  const auto deployment = sim::RfidDeployment::Corridor(4);
  SymbolicTrajectory one(1);
  one.Append(2, 5000);
  EXPECT_TRUE(fault::SmoothingWindowCleaner().Clean(one).ok());
  EXPECT_TRUE(fault::ConstraintCleaner(&deployment).Clean(one).ok());
  const auto hmm = fault::HmmCleaner(&deployment).Clean(one);
  ASSERT_TRUE(hmm.ok());
  EXPECT_EQ(hmm->size(), 1u);
  EXPECT_EQ((*hmm)[0].region, 2u);
}

// ------------------------------------------------------------------ query

TEST(EdgeCaseTest, DtwBandNarrowerThanLengthMismatch) {
  // A very narrow band on wildly different lengths must stay finite via
  // the scaled band centre.
  Trajectory a(1), b(2);
  for (int i = 0; i < 100; ++i) {
    a.AppendUnordered(TrajectoryPoint(i * 1000, Point(i * 10.0, 0)));
  }
  for (int i = 0; i < 10; ++i) {
    b.AppendUnordered(TrajectoryPoint(i * 1000, Point(i * 100.0, 0)));
  }
  const double d = query::DtwDistance(a, b, 2);
  EXPECT_TRUE(std::isfinite(d));
}

// --------------------------------------------------------------- pipeline

TEST(EdgeCaseTest, FullPipelineOnPathologicalInput) {
  // A trajectory with duplicates, out-of-order points (sorted first),
  // outliers, and noise goes through the full cleaning pipeline without
  // errors.
  Rng rng(6);
  sim::TrajectorySimulator simulator({}, &rng);
  Trajectory truth = simulator.RandomWaypoint(BBox(0, 0, 1000, 1000), 200, 1);
  Trajectory dirty = sim::AddGpsNoise(truth, 15.0, &rng);
  dirty = sim::AddOutliers(dirty, 0.05, 100, 300, &rng);
  dirty = sim::DuplicateSamples(dirty, 0.2, &rng);
  dirty.SortByTime();

  TrajectoryPipeline pipeline;
  pipeline.Add(std::make_unique<outlier::SpeedOutlierRepairStage>());
  pipeline.Add("smooth", [](const Trajectory& in) {
    return uncertainty::MovingAverageSmooth(in, 2);
  });
  pipeline.Add("simplify", [](const Trajectory& in) {
    return reduce::DouglasPeuckerSed(in, 8.0);
  });
  const auto out = pipeline.Run(dirty);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->IsTimeOrdered());
  EXPECT_LT(out->size(), dirty.size());
  EXPECT_GE(out->size(), 2u);
}

}  // namespace
}  // namespace sidq
