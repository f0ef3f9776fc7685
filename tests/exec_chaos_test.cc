// Chaos determinism property tests: a best-effort fleet run with armed
// FailPoints must be a pure function of (fleet, seed, failpoint configs) --
// never of worker count or OS scheduling. The pinned property from
// ISSUE/DESIGN: the chaos run equals the serial run minus exactly the
// quarantined object ids, for 1/2/8 workers. Fault rates are raised when
// SIDQ_CHAOS_AGGRESSIVE is set (the CI asan and tsan jobs' aggressive
// chaos steps export it) so the sanitizers sweep the error paths hard.

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/failpoint.h"
#include "core/pipeline.h"
#include "core/random.h"
#include "core/status.h"
#include "core/trajectory.h"
#include "exec/fleet_runner.h"

namespace sidq {
namespace {

using exec::FleetResult;
using exec::FleetRunner;
using exec::ObjectAnnotation;

constexpr uint64_t kSeed = 2024;

bool Aggressive() { return std::getenv("SIDQ_CHAOS_AGGRESSIVE") != nullptr; }

std::vector<Trajectory> MakeFleet(size_t num, size_t points, uint64_t seed) {
  Rng rng(seed);
  std::vector<Trajectory> fleet;
  fleet.reserve(num);
  for (size_t i = 0; i < num; ++i) {
    Trajectory t(static_cast<ObjectId>(i));
    double x = rng.Uniform(0.0, 4000.0);
    double y = rng.Uniform(0.0, 4000.0);
    for (size_t k = 0; k < points; ++k) {
      t.AppendUnordered(TrajectoryPoint(static_cast<Timestamp>(k) * 1000,
                                        geometry::Point(x, y), 5.0));
      x += rng.Gaussian(0.0, 10.0);
      y += rng.Gaussian(0.0, 10.0);
    }
    fleet.push_back(std::move(t));
  }
  return fleet;
}

// Seeded jitter, a flaky gateway (transient chaos site), a fragile decoder
// (permanent chaos site), then deterministic smoothing. The chaos sites are
// generic test sites so this test exercises the registry/runner contract
// without dragging the refine stack in.
TrajectoryPipeline MakeChaosPipeline() {
  TrajectoryPipeline pipeline;
  pipeline.AddSeeded("jitter",
                     [](const Trajectory& in, Rng& rng) -> StatusOr<Trajectory> {
                       Trajectory out(in.object_id());
                       for (const TrajectoryPoint& pt : in.points()) {
                         TrajectoryPoint moved = pt;
                         moved.p.x += rng.Gaussian(0.0, 0.5);
                         moved.p.y += rng.Gaussian(0.0, 0.5);
                         out.AppendUnordered(moved);
                       }
                       return out;
                     });
  pipeline.AddCtx("gateway",
                  [](const Trajectory& in, const StageContext& ctx)
                      -> StatusOr<Trajectory> {
                    SIDQ_RETURN_IF_ERROR(MaybeInjectFailPoint(
                        "test.chaos.gateway", in.object_id(), ctx.exec));
                    return in;
                  });
  pipeline.AddCtx("decoder",
                  [](const Trajectory& in, const StageContext& ctx)
                      -> StatusOr<Trajectory> {
                    SIDQ_RETURN_IF_ERROR(MaybeInjectFailPoint(
                        "test.chaos.decoder", in.object_id(), ctx.exec));
                    return in;
                  });
  pipeline.Add("smooth", [](const Trajectory& in) -> StatusOr<Trajectory> {
    Trajectory out(in.object_id());
    for (size_t i = 0; i < in.size(); ++i) {
      TrajectoryPoint pt = in[i];
      if (i > 0 && i + 1 < in.size()) {
        pt.p.x = (in[i - 1].p.x + in[i].p.x + in[i + 1].p.x) / 3.0;
        pt.p.y = (in[i - 1].p.y + in[i].p.y + in[i + 1].p.y) / 3.0;
      }
      out.AppendUnordered(pt);
    }
    return out;
  });
  return pipeline;
}

// Arms the chaos sites afresh (resetting evaluation counts, so every run
// makes identical injection decisions).
void ArmChaos() {
  FailPointConfig transient;
  transient.action = FailPointAction::kTransientError;
  transient.probability = Aggressive() ? 0.6 : 0.3;
  transient.seed = 0xC4A05;
  ArmFailPoint("test.chaos.gateway", transient);

  FailPointConfig permanent;
  permanent.action = FailPointAction::kPermanentError;
  permanent.probability = Aggressive() ? 0.25 : 0.1;
  permanent.seed = 0xC4A05 + 1;
  ArmFailPoint("test.chaos.decoder", permanent);

  FailPointConfig stall;
  stall.action = FailPointAction::kStall;
  stall.stall_ms = 40;
  stall.probability = Aggressive() ? 0.5 : 0.2;
  stall.seed = 0xC4A05 + 2;
  ArmFailPoint("test.chaos.stall", stall);
}

FleetRunner::Options ChaosOptions(int workers) {
  FleetRunner::Options options;
  options.num_threads = workers;
  options.shard_size = 3;
  options.base_seed = kSeed;
  options.max_quarantine_fraction = 1.0;  // quarantine, never stop
  options.retry.max_retries = 2;
  options.retry.jitter = 0.2;
  options.virtual_time = true;  // per-object clocks: stalls stay private
  options.deadline_ms = 500;
  return options;
}

::testing::AssertionResult SameTrajectory(const Trajectory& a,
                                          const Trajectory& b) {
  if (a.object_id() != b.object_id() || a.size() != b.size()) {
    return ::testing::AssertionFailure() << "shape mismatch";
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].t != b[i].t || a[i].p.x != b[i].p.x || a[i].p.y != b[i].p.y) {
      return ::testing::AssertionFailure() << "point " << i << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

class ChaosTest : public ::testing::Test {
 protected:
  void TearDown() override { DisarmAllFailPoints(); }
};

TEST_F(ChaosTest, BestEffortChaosRunIsSerialMinusQuarantined) {
  const size_t kFleetSize = 48;
  const auto fleet = MakeFleet(kFleetSize, 20, kSeed);
  const TrajectoryPipeline pipeline = MakeChaosPipeline();

  // Ground truth: the same pipeline with nothing armed, serially.
  const auto clean_serial = pipeline.RunBatch(fleet, kSeed);
  ASSERT_TRUE(clean_serial.ok()) << clean_serial.status();

  // Reference chaos run: one worker.
  ArmChaos();
  const FleetRunner serial_runner(&pipeline, ChaosOptions(1));
  const FleetResult reference = serial_runner.Run(fleet);
  ASSERT_TRUE(reference.partial_ok());
  const std::vector<size_t> quarantined = reference.QuarantinedIndices();
  // The configured rates make both outcomes near-certain; if this ever
  // flakes the seeds above changed, not the scheduler.
  EXPECT_GT(quarantined.size(), 0u);
  EXPECT_LT(quarantined.size(), kFleetSize);
  EXPECT_GT(reference.retries_total, 0u);

  // The chaos run IS the serial run minus exactly the quarantined ids.
  for (size_t i = 0; i < kFleetSize; ++i) {
    if (reference.statuses[i].ok()) {
      EXPECT_TRUE(SameTrajectory(reference.cleaned[i], (*clean_serial)[i]))
          << "object " << i;
    } else {
      EXPECT_NE(std::find(quarantined.begin(), quarantined.end(), i),
                quarantined.end());
    }
  }

  // Property: every worker count reproduces the reference bit-for-bit --
  // same statuses, same quarantine set, same retry counts, same output.
  for (const int workers : {2, 8}) {
    ArmChaos();  // reset evaluation counts
    const FleetRunner runner(&pipeline, ChaosOptions(workers));
    const FleetResult result = runner.Run(fleet);
    ASSERT_TRUE(result.partial_ok());
    EXPECT_EQ(result.QuarantinedIndices(), quarantined)
        << workers << " workers";
    EXPECT_EQ(result.objects_quarantined, reference.objects_quarantined);
    EXPECT_EQ(result.objects_degraded, reference.objects_degraded);
    EXPECT_EQ(result.retries_total, reference.retries_total);

    ASSERT_EQ(result.annotations.size(), reference.annotations.size());
    for (size_t k = 0; k < result.annotations.size(); ++k) {
      const ObjectAnnotation& got = result.annotations[k];
      const ObjectAnnotation& want = reference.annotations[k];
      EXPECT_EQ(got.index, want.index);
      EXPECT_EQ(got.id, want.id);
      EXPECT_EQ(got.quality, want.quality);
      EXPECT_EQ(got.retries, want.retries);
      EXPECT_EQ(got.status.code(), want.status.code());
    }
    for (size_t i = 0; i < kFleetSize; ++i) {
      EXPECT_EQ(result.statuses[i].code(), reference.statuses[i].code());
      if (result.statuses[i].ok()) {
        EXPECT_TRUE(SameTrajectory(result.cleaned[i], reference.cleaned[i]))
            << "object " << i << " with " << workers << " workers";
      }
    }
  }
}

TEST_F(ChaosTest, DisarmedResilientRunMatchesRunBatchBitIdentically) {
  // With nothing armed, the full resilience machinery (retry policy,
  // per-object deadlines on virtual clocks, best-effort accounting) must
  // leave the output bit-identical to the plain serial reference.
  const auto fleet = MakeFleet(32, 16, kSeed + 1);
  const TrajectoryPipeline pipeline = MakeChaosPipeline();
  const auto serial = pipeline.RunBatch(fleet, kSeed + 1);
  ASSERT_TRUE(serial.ok());

  for (const int workers : {1, 2, 8}) {
    FleetRunner::Options options = ChaosOptions(workers);
    options.base_seed = kSeed + 1;
    const FleetRunner runner(&pipeline, options);
    const FleetResult result = runner.Run(fleet);
    ASSERT_TRUE(result.ok()) << result.first_error;
    EXPECT_TRUE(result.annotations.empty());
    EXPECT_EQ(result.retries_total, 0u);
    for (size_t i = 0; i < fleet.size(); ++i) {
      EXPECT_TRUE(SameTrajectory(result.cleaned[i], (*serial)[i]))
          << "object " << i << " with " << workers << " workers";
    }
  }
}

TEST_F(ChaosTest, StallsNeverLeakAcrossObjectBudgets) {
  // Heavy stalls against a tight budget: in virtual time each object owns
  // its clock, so objects the stall site skips must never be pushed over
  // the deadline by their shard-mates' stalls. A stalled object itself can
  // exceed its own budget (deterministically), which best-effort then
  // quarantines -- identically for every worker count.
  const size_t kFleetSize = 24;
  const auto fleet = MakeFleet(kFleetSize, 12, kSeed + 2);
  TrajectoryPipeline pipeline;
  pipeline.AddCtx("stall_site",
                  [](const Trajectory& in, const StageContext& ctx)
                      -> StatusOr<Trajectory> {
                    SIDQ_RETURN_IF_ERROR(MaybeInjectFailPoint(
                        "test.chaos.stall", in.object_id(), ctx.exec));
                    if (ctx.exec != nullptr) {
                      SIDQ_RETURN_IF_ERROR(ctx.exec->Check());
                    }
                    return in;
                  });

  FailPointConfig stall;
  stall.action = FailPointAction::kStall;
  stall.stall_ms = 1000;  // one stall blows the whole 500ms budget
  stall.probability = 0.4;
  stall.seed = 7;

  std::vector<Status> reference_statuses;
  for (const int workers : {1, 2, 8}) {
    ArmFailPoint("test.chaos.stall", stall);
    const FleetRunner runner(&pipeline, ChaosOptions(workers));
    const FleetResult result = runner.Run(fleet);
    ASSERT_TRUE(result.partial_ok());
    if (reference_statuses.empty()) {
      reference_statuses = result.statuses;
      size_t deadline_failures = 0;
      for (const Status& st : result.statuses) {
        if (st.code() == StatusCode::kDeadlineExceeded) ++deadline_failures;
      }
      EXPECT_GT(deadline_failures, 0u);
      EXPECT_LT(deadline_failures, kFleetSize);
    } else {
      for (size_t i = 0; i < kFleetSize; ++i) {
        EXPECT_EQ(result.statuses[i].code(), reference_statuses[i].code())
            << "object " << i << " with " << workers << " workers";
      }
    }
  }
}

}  // namespace
}  // namespace sidq
