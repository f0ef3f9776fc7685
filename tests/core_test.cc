#include <gtest/gtest.h>

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
