// Tests for the resilience layer: ExecContext deadlines on a virtual
// clock, deterministic retry/backoff, the FailPoint chaos registry,
// graceful-degradation ladders (HMM -> geometric snap, particle filter ->
// Kalman -> passthrough), and the FleetRunner stop rule
// (max_quarantine_fraction) with quarantine annotations.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/clock.h"
#include "core/exec_context.h"
#include "core/failpoint.h"
#include "core/pipeline.h"
#include "core/random.h"
#include "core/retry.h"
#include "core/status.h"
#include "core/trajectory.h"
#include "exec/fleet_runner.h"
#include "query/similarity.h"
#include "refine/hmm_map_matcher.h"
#include "refine/kalman.h"
#include "refine/particle_filter.h"
#include "sim/road_network.h"

namespace sidq {
namespace {

using exec::FleetResult;
using exec::FleetRunner;

class ResilienceTest : public ::testing::Test {
 protected:
  void TearDown() override { DisarmAllFailPoints(); }
};

// --------------------------------------------------------- clock & context

TEST_F(ResilienceTest, VirtualClockAdvancesOnlyForward) {
  VirtualClock clock;
  EXPECT_EQ(clock.NowMs(), 0);
  clock.Advance(250);
  EXPECT_EQ(clock.NowMs(), 250);
  clock.SleepMs(50);  // sleeping IS advancing
  EXPECT_EQ(clock.NowMs(), 300);
  clock.Advance(-10);  // time never goes backwards
  EXPECT_EQ(clock.NowMs(), 300);
}

TEST_F(ResilienceTest, ExecContextDeadlineTripsOnVirtualClock) {
  VirtualClock clock;
  const ExecContext ctx = ExecContext::After(&clock, 100);
  ASSERT_TRUE(ctx.has_deadline());
  EXPECT_TRUE(ctx.Check().ok());
  EXPECT_EQ(ctx.RemainingMs(), 100);
  clock.Advance(100);
  EXPECT_TRUE(ctx.Check().ok());  // at the deadline, not past it
  clock.Advance(1);
  EXPECT_EQ(ctx.Check().code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(ctx.RemainingMs(), 0);
}

TEST_F(ResilienceTest, ExecContextCancellationBeatsDeadline) {
  VirtualClock clock;
  std::atomic<bool> cancel{false};
  const ExecContext ctx = ExecContext::After(&clock, 100, &cancel);
  EXPECT_TRUE(ctx.Check().ok());
  cancel.store(true);
  EXPECT_EQ(ctx.Check().code(), StatusCode::kCancelled);
}

TEST_F(ResilienceTest, DefaultContextNeverFails) {
  const ExecContext ctx;
  EXPECT_TRUE(ctx.Check().ok());
  EXPECT_FALSE(ctx.has_deadline());
  ctx.Stall(1000000);  // no clock: instant no-op
  EXPECT_TRUE(ctx.Check().ok());
}

// ----------------------------------------------------------------- retry

TEST_F(ResilienceTest, RetryClassifiesTransientVsPermanent) {
  RetryPolicy policy;
  policy.max_retries = 3;
  EXPECT_TRUE(policy.ShouldRetry(Status::Unavailable("x"), 0));
  EXPECT_TRUE(policy.ShouldRetry(Status::ResourceExhausted("x"), 2));
  EXPECT_FALSE(policy.ShouldRetry(Status::Unavailable("x"), 3));  // spent
  EXPECT_FALSE(policy.ShouldRetry(Status::DataLoss("x"), 0));
  EXPECT_FALSE(policy.ShouldRetry(Status::InvalidArgument("x"), 0));
  // The budget is gone: degrade instead of paying full price again.
  EXPECT_FALSE(policy.ShouldRetry(Status::DeadlineExceeded("x"), 0));
}

TEST_F(ResilienceTest, BackoffGrowsExponentiallyAndIsDeterministic) {
  RetryPolicy policy;
  policy.max_retries = 5;
  policy.initial_backoff_ms = 10;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_ms = 60;
  policy.jitter = 0.0;
  Rng rng(1);
  EXPECT_EQ(policy.BackoffMs(0, rng), 10);
  EXPECT_EQ(policy.BackoffMs(1, rng), 20);
  EXPECT_EQ(policy.BackoffMs(2, rng), 40);
  EXPECT_EQ(policy.BackoffMs(3, rng), 60);  // capped
  EXPECT_EQ(policy.BackoffMs(9, rng), 60);

  policy.jitter = 0.2;
  Rng a(77), b(77);
  for (int attempt = 0; attempt < 4; ++attempt) {
    const double base = std::min(10.0 * (1 << attempt), 60.0);
    const int64_t ba = policy.BackoffMs(attempt, a);
    EXPECT_EQ(ba, policy.BackoffMs(attempt, b));  // same substream, same wait
    EXPECT_GE(ba, static_cast<int64_t>(0.8 * base) - 1);
    EXPECT_LE(ba, static_cast<int64_t>(1.2 * base) + 1);
  }
}

// -------------------------------------------------------------- failpoints

TEST_F(ResilienceTest, DisarmedSiteNeverFires) {
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(EvaluateFailPoint("test.nowhere", 7).has_value());
  }
  EXPECT_EQ(FailPointHits("test.nowhere"), 0u);
}

TEST_F(ResilienceTest, FailFirstNFiresExactlyNTimesPerKey) {
  FailPointConfig cfg;
  cfg.action = FailPointAction::kTransientError;
  cfg.fail_first_n = 2;
  ArmFailPoint("test.first_n", cfg);
  for (uint64_t key : {1ull, 2ull}) {
    EXPECT_TRUE(EvaluateFailPoint("test.first_n", key).has_value());
    EXPECT_TRUE(EvaluateFailPoint("test.first_n", key).has_value());
    EXPECT_FALSE(EvaluateFailPoint("test.first_n", key).has_value());
    EXPECT_FALSE(EvaluateFailPoint("test.first_n", key).has_value());
  }
  EXPECT_EQ(FailPointHits("test.first_n"), 4u);
  // Re-arming resets the per-key counts: the next evaluation fires again.
  ArmFailPoint("test.first_n", cfg);
  EXPECT_TRUE(EvaluateFailPoint("test.first_n", 1).has_value());
  EXPECT_EQ(FailPointHits("test.first_n"), 1u);
}

TEST_F(ResilienceTest, ProbabilityDrawsAreSeedDeterministic) {
  FailPointConfig cfg;
  cfg.probability = 0.4;
  cfg.seed = 99;
  auto pattern = [&]() {
    ArmFailPoint("test.prob", cfg);
    std::vector<bool> fired;
    for (uint64_t key = 0; key < 32; ++key) {
      for (int eval = 0; eval < 4; ++eval) {
        fired.push_back(EvaluateFailPoint("test.prob", key).has_value());
      }
    }
    return fired;
  };
  const auto first = pattern();
  const auto second = pattern();
  EXPECT_EQ(first, second);
  size_t hits = 0;
  for (const bool f : first) hits += f ? 1 : 0;
  EXPECT_GT(hits, 0u);            // ~0.4 * 128
  EXPECT_LT(hits, first.size());  // and not everything
}

TEST_F(ResilienceTest, InjectedStallConsumesContextBudget) {
  FailPointConfig cfg;
  cfg.action = FailPointAction::kStall;
  cfg.stall_ms = 400;
  ArmFailPoint("test.stall", cfg);
  VirtualClock clock;
  const ExecContext ctx = ExecContext::After(&clock, 300);
  EXPECT_TRUE(MaybeInjectFailPoint("test.stall", 1, &ctx).ok());
  EXPECT_EQ(clock.NowMs(), 400);
  EXPECT_EQ(ctx.Check().code(), StatusCode::kDeadlineExceeded);
}

// ----------------------------------------------------- retry + ladder

Trajectory MakeLine(ObjectId id, size_t n) {
  Trajectory t(id);
  for (size_t k = 0; k < n; ++k) {
    t.AppendUnordered(TrajectoryPoint(static_cast<Timestamp>(k) * 1000,
                                      geometry::Point(10.0 * k, 5.0), 5.0));
  }
  return t;
}

TEST_F(ResilienceTest, TransientStageSucceedsViaRetryAndBacksOff) {
  FailPointConfig cfg;
  cfg.action = FailPointAction::kTransientError;
  cfg.fail_first_n = 2;
  ArmFailPoint("test.gateway", cfg);

  const LambdaStage stage(
      "gateway", [](const Trajectory& in, const StageContext& ctx)
                     -> StatusOr<Trajectory> {
        SIDQ_RETURN_IF_ERROR(
            MaybeInjectFailPoint("test.gateway", in.object_id(), ctx.exec));
        return in;
      });

  VirtualClock clock;
  const ExecContext exec(&clock);
  RetryPolicy retry;
  retry.max_retries = 3;
  retry.jitter = 0.0;
  Rng retry_rng(5);
  RunTrace trace;
  StageContext ctx;
  ctx.retry_rng = &retry_rng;
  ctx.exec = &exec;
  ctx.retry = &retry;
  ctx.trace = &trace;

  const Trajectory input = MakeLine(9, 4);
  const auto out = RunStageWithRetry(stage, input, ctx);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(trace.retries, 2);
  // Two backoffs on the virtual clock: 10 + 20 ms.
  EXPECT_EQ(clock.NowMs(), 30);
  EXPECT_EQ(FailPointHits("test.gateway"), 2u);
}

TEST_F(ResilienceTest, PermanentErrorIsNotRetried) {
  int attempts = 0;
  LambdaStage stage("broken",
                    [&attempts](const Trajectory&, const StageContext&)
                        -> StatusOr<Trajectory> {
                      ++attempts;
                      return Status::DataLoss("bad sensor");
                    });
  RetryPolicy retry;
  retry.max_retries = 5;
  RunTrace trace;
  StageContext ctx;
  ctx.retry = &retry;
  ctx.trace = &trace;
  const auto out = RunStageWithRetry(stage, MakeLine(1, 3), ctx);
  EXPECT_EQ(out.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(attempts, 1);
  EXPECT_EQ(trace.retries, 0);
}

TEST_F(ResilienceTest, LadderFallsToNextRungAndRecordsDegradeEvent) {
  LadderStage ladder("refine");
  ladder.AddRung("fancy", [](const Trajectory&) -> StatusOr<Trajectory> {
    return Status::DeadlineExceeded("too slow");
  });
  ladder.AddRung("cheap", [](const Trajectory& in) -> StatusOr<Trajectory> {
    return in;
  });
  RunTrace trace;
  StageContext ctx;
  ctx.trace = &trace;
  const auto out = ladder.Apply(MakeLine(3, 4), ctx);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(trace.degraded.size(), 1u);
  EXPECT_TRUE(trace.degraded_mode());
  EXPECT_EQ(trace.degraded[0].stage, "refine");
  EXPECT_EQ(trace.degraded[0].rung, 1);
  EXPECT_EQ(trace.degraded[0].rung_name, "cheap");
  EXPECT_EQ(trace.degraded[0].cause.code(), StatusCode::kDeadlineExceeded);
}

TEST_F(ResilienceTest, LadderExhaustionReportsLastRungError) {
  LadderStage ladder("refine");
  ladder.AddRung("a", [](const Trajectory&) -> StatusOr<Trajectory> {
    return Status::NotFound("no candidates");
  });
  ladder.AddRung("b", [](const Trajectory&) -> StatusOr<Trajectory> {
    return Status::DataLoss("also broken");
  });
  const auto out = ladder.Apply(MakeLine(3, 4), StageContext{});
  EXPECT_EQ(out.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(out.status().message().find("exhausted all 2 rungs"),
            std::string::npos);
}

TEST_F(ResilienceTest, LadderPropagatesCancellationWithoutDegrading) {
  LadderStage ladder("refine");
  ladder.AddRung("a", [](const Trajectory&) -> StatusOr<Trajectory> {
    return Status::Cancelled("fleet cancelled");
  });
  ladder.AddRung("b", [](const Trajectory& in) -> StatusOr<Trajectory> {
    return in;
  });
  RunTrace trace;
  StageContext ctx;
  ctx.trace = &trace;
  const auto out = ladder.Apply(MakeLine(3, 4), ctx);
  EXPECT_EQ(out.status().code(), StatusCode::kCancelled);
  EXPECT_TRUE(trace.degraded.empty());
}

// --------------------------------------- deadline degradation, real stages

// A road network plus an on-road trajectory for the map-matching ladder.
struct RoadFixture {
  sim::RoadNetwork net;
  Trajectory noisy;

  explicit RoadFixture(uint64_t seed) {
    Rng rng(seed);
    net = sim::MakeGridRoadNetwork(4, 4, 120.0, 4.0, 0.0, &rng);
    net.BuildSpatialIndex();
    noisy.set_object_id(42);
    // Walk along the first row of streets with mild GPS noise.
    for (size_t k = 0; k < 8; ++k) {
      noisy.AppendUnordered(TrajectoryPoint(
          static_cast<Timestamp>(k) * 1000,
          geometry::Point(20.0 + 45.0 * static_cast<double>(k) +
                              rng.Gaussian(0.0, 4.0),
                          rng.Gaussian(0.0, 4.0)),
          5.0));
    }
  }
};

// The documented HMM ladder: full Viterbi matching on top, geometric
// nearest-road snapping as the cheap deadline-free fallback.
LadderStage MakeMapMatchLadder(const sim::RoadNetwork* net) {
  LadderStage ladder("map_match");
  ladder.AddRungCtx("hmm_viterbi",
                    [net](const Trajectory& in, const StageContext& ctx)
                        -> StatusOr<Trajectory> {
                      const refine::HmmMapMatcher matcher(net);
                      SIDQ_ASSIGN_OR_RETURN(auto match,
                                            matcher.Match(in, ctx.exec));
                      return match.matched;
                    });
  ladder.AddRung("nearest_road_snap",
                 [net](const Trajectory& in) -> StatusOr<Trajectory> {
                   Trajectory out(in.object_id());
                   for (const TrajectoryPoint& pt : in.points()) {
                     SIDQ_ASSIGN_OR_RETURN(EdgeId e, net->NearestEdge(pt.p));
                     TrajectoryPoint snapped = pt;
                     snapped.p = net->ProjectToEdge(e, pt.p);
                     out.AppendUnordered(snapped);
                   }
                   return out;
                 });
  return ladder;
}

TEST_F(ResilienceTest, DeadlineViterbiDegradesToGeometricSnap) {
  const RoadFixture fix(404);

  // A stalled Viterbi layer burns the whole budget; the next cooperative
  // check aborts the rung with kDeadlineExceeded.
  FailPointConfig cfg;
  cfg.action = FailPointAction::kStall;
  cfg.stall_ms = 1000;
  ArmFailPoint("refine.hmm.viterbi_row", cfg);

  const LadderStage ladder = MakeMapMatchLadder(&fix.net);
  VirtualClock clock;
  const ExecContext exec = ExecContext::After(&clock, 500);
  RunTrace trace;
  StageContext ctx;
  ctx.exec = &exec;
  ctx.trace = &trace;

  const auto out = ladder.Apply(fix.noisy, ctx);
  ASSERT_TRUE(out.ok()) << out.status();
  ASSERT_TRUE(trace.degraded_mode());
  EXPECT_EQ(trace.degraded[0].rung_name, "nearest_road_snap");
  EXPECT_EQ(trace.degraded[0].cause.code(), StatusCode::kDeadlineExceeded);

  // The fallback really snapped: every output point lies on some edge.
  for (const TrajectoryPoint& pt : out->points()) {
    const auto e = fix.net.NearestEdge(pt.p);
    ASSERT_TRUE(e.ok());
    EXPECT_LT(fix.net.DistanceToEdge(e.value(), pt.p), 1e-6);
  }

  // Disarmed, the same ladder runs the full Viterbi rung: no degradation.
  DisarmAllFailPoints();
  RunTrace clean_trace;
  StageContext clean_ctx;
  clean_ctx.exec = &exec;  // clock already past the old deadline...
  VirtualClock clock2;
  const ExecContext exec2 = ExecContext::After(&clock2, 500);
  clean_ctx.exec = &exec2;
  clean_ctx.trace = &clean_trace;
  const auto full = ladder.Apply(fix.noisy, clean_ctx);
  ASSERT_TRUE(full.ok()) << full.status();
  EXPECT_FALSE(clean_trace.degraded_mode());
}

TEST_F(ResilienceTest, ParticleFilterDegradesToKalmanOnDeadline) {
  FailPointConfig cfg;
  cfg.action = FailPointAction::kStall;
  cfg.stall_ms = 1000;
  ArmFailPoint("refine.particle_filter.step", cfg);

  LadderStage ladder("smooth");
  ladder.AddRungCtx("particle",
                    [](const Trajectory& in, const StageContext& ctx)
                        -> StatusOr<Trajectory> {
                      Rng fallback(123);
                      Rng* rng = ctx.rng != nullptr ? ctx.rng : &fallback;
                      const refine::ParticleFilter2D pf(
                          refine::ParticleFilter2D::Options{}, rng);
                      return pf.Filter(in, ctx.exec);
                    });
  ladder.AddRung("kalman", [](const Trajectory& in) -> StatusOr<Trajectory> {
    return refine::KalmanFilter2D().Filter(in);
  });
  ladder.AddRung("passthrough",
                 [](const Trajectory& in) -> StatusOr<Trajectory> {
                   return in;
                 });

  VirtualClock clock;
  const ExecContext exec = ExecContext::After(&clock, 500);
  Rng rng(7);
  RunTrace trace;
  StageContext ctx;
  ctx.rng = &rng;
  ctx.exec = &exec;
  ctx.trace = &trace;

  const auto out = ladder.Apply(MakeLine(8, 6), ctx);
  ASSERT_TRUE(out.ok()) << out.status();
  ASSERT_TRUE(trace.degraded_mode());
  EXPECT_EQ(trace.degraded[0].rung, 1);
  EXPECT_EQ(trace.degraded[0].rung_name, "kalman");
  EXPECT_EQ(trace.degraded[0].cause.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(out->size(), 6u);
}

// ------------------------------------------------------ fleet stop rule

std::vector<Trajectory> MakeFleet(size_t n, size_t points) {
  std::vector<Trajectory> fleet;
  fleet.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    fleet.push_back(MakeLine(static_cast<ObjectId>(i), points));
  }
  return fleet;
}

TrajectoryPipeline MakePipelineFailingFor(ObjectId poisoned) {
  TrajectoryPipeline pipeline;
  pipeline.Add("validate",
               [poisoned](const Trajectory& in) -> StatusOr<Trajectory> {
                 if (in.object_id() == poisoned) {
                   return Status::DataLoss("sensor feed corrupted");
                 }
                 return in;
               });
  pipeline.AddSeeded("jitter",
                     [](const Trajectory& in, Rng& rng) -> StatusOr<Trajectory> {
                       Trajectory out(in.object_id());
                       for (const TrajectoryPoint& pt : in.points()) {
                         TrajectoryPoint moved = pt;
                         moved.p.x += rng.Gaussian(0.0, 0.5);
                         out.AppendUnordered(moved);
                       }
                       return out;
                     });
  return pipeline;
}

TEST_F(ResilienceTest, BestEffortQuarantinesOneFailureAndKeepsTheRest) {
  const size_t kFleet = 24;
  const ObjectId poisoned = 11;
  const auto fleet = MakeFleet(kFleet, 10);
  const TrajectoryPipeline pipeline = MakePipelineFailingFor(poisoned);

  FleetRunner::Options options;
  options.num_threads = 4;
  options.shard_size = 3;
  options.base_seed = 7;
  options.max_quarantine_fraction = 1.0;  // quarantine, never stop
  options.virtual_time = true;
  const FleetRunner runner(&pipeline, options);
  const FleetResult result = runner.Run(fleet);

  // Best-effort: the run is usable even though ok() reports the failure.
  EXPECT_TRUE(result.partial_ok());
  EXPECT_FALSE(result.ok());
  EXPECT_FALSE(result.breaker_tripped);
  EXPECT_EQ(result.objects_quarantined, 1u);
  EXPECT_EQ(result.objects_degraded, 0u);
  EXPECT_EQ(result.shards_cancelled, 0u);

  // Exactly N-1 cleaned results plus one quarantine record.
  size_t ok_count = 0;
  for (size_t i = 0; i < kFleet; ++i) {
    if (result.statuses[i].ok()) ++ok_count;
  }
  EXPECT_EQ(ok_count, kFleet - 1);
  ASSERT_EQ(result.annotations.size(), 1u);
  const auto& a = result.annotations[0];
  EXPECT_EQ(a.id, poisoned);
  EXPECT_EQ(a.quality, ExecQuality::kQuarantined);
  EXPECT_EQ(a.status.code(), StatusCode::kDataLoss);
  EXPECT_EQ(result.QuarantinedIndices(), std::vector<size_t>{11});

  const std::string summary = result.ResilienceSummary();
  EXPECT_NE(summary.find("23/24 full"), std::string::npos);
  EXPECT_NE(summary.find("1 quarantined"), std::string::npos);

  // The survivors are bit-identical to the serial per-object runs.
  for (size_t i = 0; i < kFleet; ++i) {
    if (!result.statuses[i].ok()) continue;
    Rng rng = Rng::ForKey(options.base_seed, fleet[i].object_id());
    const auto serial = pipeline.Run(fleet[i], {.rng = &rng});
    ASSERT_TRUE(serial.ok());
    EXPECT_EQ(result.cleaned[i].size(), serial->size());
    for (size_t k = 0; k < serial->size(); ++k) {
      EXPECT_EQ(result.cleaned[i][k].p.x, (*serial)[k].p.x);
    }
  }
}

// One max_quarantine_fraction value and what the stop rule must do with it
// on a 32-object fleet where every even id fails.
struct StopRuleCase {
  const char* name;
  double fraction;
  // Objects that ran and failed (the rest of the quarantined ones were
  // skipped or aborted with kCancelled once the rule fired).
  size_t stage_failures;
  bool trips;
};

// The reported test name is the case's, not the struct's raw bytes.
void PrintTo(const StopRuleCase& c, std::ostream* os) { *os << c.name; }

class CircuitBreakerTest
    : public ResilienceTest,
      public ::testing::WithParamInterface<StopRuleCase> {};

TEST_P(CircuitBreakerTest, TripsWhenFailureIsTheRule) {
  const StopRuleCase& c = GetParam();
  const auto fleet = MakeFleet(32, 8);
  TrajectoryPipeline pipeline;
  pipeline.Add("validate", [](const Trajectory& in) -> StatusOr<Trajectory> {
    if (in.object_id() % 2 == 0) return Status::DataLoss("half the fleet");
    return in;
  });

  FleetRunner::Options options;
  options.num_threads = 1;  // deterministic shard order for the assertion
  options.shard_size = 4;
  options.max_quarantine_fraction = c.fraction;
  options.virtual_time = true;
  const FleetRunner runner(&pipeline, options);
  const FleetResult result = runner.Run(fleet);

  size_t stage_failures = 0;
  for (const Status& st : result.statuses) {
    if (st.code() == StatusCode::kDataLoss) ++stage_failures;
  }
  EXPECT_EQ(stage_failures, c.stage_failures);
  EXPECT_EQ(result.first_error.code(), StatusCode::kDataLoss);
  EXPECT_EQ(result.statuses[0].code(), StatusCode::kDataLoss);
  EXPECT_EQ(result.breaker_tripped, c.trips);
  EXPECT_EQ(result.partial_ok(), !c.trips);
  EXPECT_EQ(result.ResilienceSummary().find("BREAKER TRIPPED") !=
                std::string::npos,
            c.trips);
  if (c.trips) {
    EXPECT_GT(result.shards_cancelled, 0u);
    // Skipped and aborted objects are annotated too: with the stop the
    // whole tail of the fleet counts as quarantined.
    EXPECT_GT(result.objects_quarantined, c.stage_failures);
  } else {
    // Nothing stopped: every failure is annotated, every survivor cleaned.
    EXPECT_EQ(result.shards_cancelled, 0u);
    EXPECT_EQ(result.objects_quarantined, fleet.size() / 2);
    ASSERT_EQ(result.annotations.size(), fleet.size() / 2);
    for (const auto& a : result.annotations) {
      EXPECT_EQ(a.id % 2, 0u);
      EXPECT_EQ(a.quality, ExecQuality::kQuarantined);
      EXPECT_EQ(a.status.code(), StatusCode::kDataLoss);
    }
  }
}

// One worker drains shards of 4 in order, so the k-th failure is object
// 2(k-1): a limit of L quarantines trips on failure L+1. 0.25 * 32 = 8.
INSTANTIATE_TEST_SUITE_P(
    QuarantineFractions, CircuitBreakerTest,
    ::testing::Values(StopRuleCase{"Zero", 0.0, 1, true},
                      StopRuleCase{"Negative", -0.5, 1, true},
                      StopRuleCase{"NaN", std::nan(""), 1, true},
                      StopRuleCase{"Quarter", 0.25, 9, true},
                      StopRuleCase{"One", 1.0, 16, false}));

TEST_F(ResilienceTest, FleetRetriesTransientFaultsDeterministically) {
  const size_t kFleet = 12;
  const auto fleet = MakeFleet(kFleet, 6);

  TrajectoryPipeline pipeline;
  pipeline.AddCtx("gateway",
                  [](const Trajectory& in, const StageContext& ctx)
                      -> StatusOr<Trajectory> {
                    SIDQ_RETURN_IF_ERROR(MaybeInjectFailPoint(
                        "test.fleet.gateway", in.object_id(), ctx.exec));
                    return in;
                  });

  FleetRunner::Options options;
  options.num_threads = 4;
  options.shard_size = 2;
  options.base_seed = 13;
  options.max_quarantine_fraction = 1.0;  // quarantine, never stop
  options.retry.max_retries = 3;
  options.virtual_time = true;

  FailPointConfig cfg;
  cfg.action = FailPointAction::kTransientError;
  cfg.fail_first_n = 2;  // every object fails twice, then recovers
  ArmFailPoint("test.fleet.gateway", cfg);

  const FleetRunner runner(&pipeline, options);
  const FleetResult result = runner.Run(fleet);
  EXPECT_TRUE(result.ok()) << result.first_error;
  EXPECT_EQ(result.objects_quarantined, 0u);
  EXPECT_EQ(result.retries_total, 2 * kFleet);
  ASSERT_EQ(result.annotations.size(), kFleet);  // every object retried
  for (const auto& a : result.annotations) {
    EXPECT_EQ(a.quality, ExecQuality::kFull);
    EXPECT_EQ(a.retries, 2);
    EXPECT_TRUE(a.status.ok());
  }

  // With the fault gone, the output is identical: retries never perturb
  // what the stages compute.
  DisarmAllFailPoints();
  const FleetResult clean = runner.Run(fleet);
  ASSERT_TRUE(clean.ok());
  EXPECT_TRUE(clean.annotations.empty());
  for (size_t i = 0; i < kFleet; ++i) {
    ASSERT_EQ(clean.cleaned[i].size(), result.cleaned[i].size());
    for (size_t k = 0; k < clean.cleaned[i].size(); ++k) {
      EXPECT_EQ(clean.cleaned[i][k].p.x, result.cleaned[i][k].p.x);
      EXPECT_EQ(clean.cleaned[i][k].p.y, result.cleaned[i][k].p.y);
    }
  }
}

TEST_F(ResilienceTest, FailFastStillCancelsLikeBefore) {
  const auto fleet = MakeFleet(20, 6);
  const TrajectoryPipeline pipeline = MakePipelineFailingFor(0);
  FleetRunner::Options options;
  options.num_threads = 1;
  options.shard_size = 1;
  // Default max_quarantine_fraction 0.0: stop at the first failure.
  const FleetRunner runner(&pipeline, options);
  const FleetResult result = runner.Run(fleet);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.breaker_tripped);
  EXPECT_EQ(result.first_error.code(), StatusCode::kDataLoss);
  EXPECT_EQ(result.shards_cancelled, fleet.size() - 1);
  // Cancelled objects are annotated as quarantined (status records why).
  EXPECT_EQ(result.objects_quarantined, fleet.size());
}

// ----------------------------------------- deadline-bounded DP kernels

TEST_F(ResilienceTest, BoundedSimilarityMeasuresHonourDeadlines) {
  const Trajectory a = MakeLine(1, 64);
  const Trajectory b = MakeLine(2, 64);

  VirtualClock clock;
  const ExecContext live = ExecContext::After(&clock, 1000);
  VirtualClock expired;
  const ExecContext expired_ctx = ExecContext::After(&expired, 10);
  expired.Advance(20);

  const auto dtw_ok = query::DtwDistanceBounded(a, b, -1, &live);
  ASSERT_TRUE(dtw_ok.ok());
  EXPECT_DOUBLE_EQ(*dtw_ok, query::DtwDistance(a, b));

  const auto dtw_dead = query::DtwDistanceBounded(a, b, -1, &expired_ctx);
  EXPECT_EQ(dtw_dead.status().code(), StatusCode::kDeadlineExceeded);

  const auto fr_ok = query::DiscreteFrechetDistanceBounded(a, b, &live);
  ASSERT_TRUE(fr_ok.ok());
  EXPECT_DOUBLE_EQ(*fr_ok, query::DiscreteFrechetDistance(a, b));

  const auto fr_dead = query::DiscreteFrechetDistanceBounded(a, b, &expired_ctx);
  EXPECT_EQ(fr_dead.status().code(), StatusCode::kDeadlineExceeded);
}

}  // namespace
}  // namespace sidq
