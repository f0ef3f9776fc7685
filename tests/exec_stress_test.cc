// Concurrency stress tests for src/exec/, written to be run under the
// `tsan` preset (they also run in every other preset): tiny shards and
// more workers than cores hammer the fork-join's index claim, the
// cancellation flag, and the report merge so ThreadSanitizer sees real
// interleavings instead of a single lucky schedule.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "core/quality.h"
#include "core/random.h"
#include "core/status.h"
#include "core/trajectory.h"
#include "exec/fleet_runner.h"
#include "exec/parallel_for.h"
#include "obs/metrics.h"

namespace sidq {
namespace {

using exec::FleetResult;
using exec::FleetRunner;

std::vector<Trajectory> MakeTinyFleet(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Trajectory> fleet;
  fleet.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Trajectory t(static_cast<ObjectId>(i));
    double x = rng.Uniform(0.0, 1000.0);
    double y = rng.Uniform(0.0, 1000.0);
    for (size_t k = 0; k < 8; ++k) {
      t.AppendUnordered(TrajectoryPoint(static_cast<Timestamp>(k) * 500,
                                        geometry::Point(x, y), 3.0));
      x += rng.Gaussian(0.0, 5.0);
      y += rng.Gaussian(0.0, 5.0);
    }
    fleet.push_back(std::move(t));
  }
  return fleet;
}

TrajectoryPipeline MakeJitterPipeline() {
  TrajectoryPipeline pipeline;
  pipeline.AddSeeded("jitter",
                     [](const Trajectory& in, Rng& rng) -> StatusOr<Trajectory> {
                       Trajectory out(in.object_id());
                       for (const TrajectoryPoint& pt : in.points()) {
                         TrajectoryPoint moved = pt;
                         moved.p.x += rng.Gaussian(0.0, 1.0);
                         moved.p.y += rng.Gaussian(0.0, 1.0);
                         out.AppendUnordered(moved);
                       }
                       return out;
                     });
  return pipeline;
}

TEST(ExecStressTest, ManyWorkersSingleTrajectoryShardsStayDeterministic) {
  const uint64_t kSeed = 7;
  const auto fleet = MakeTinyFleet(256, kSeed);
  const TrajectoryPipeline pipeline = MakeJitterPipeline();
  const auto serial = pipeline.RunBatch(fleet, kSeed);
  ASSERT_TRUE(serial.ok());

  FleetRunner::Options options;
  options.num_threads = 8;  // deliberately more than this container's cores
  options.shard_size = 1;   // maximum index-claim churn
  options.base_seed = kSeed;
  const FleetRunner runner(&pipeline, options);

  for (int round = 0; round < 5; ++round) {
    const FleetResult result = runner.Run(fleet);
    ASSERT_TRUE(result.ok()) << result.first_error;
    for (size_t i = 0; i < fleet.size(); ++i) {
      const Trajectory& got = result.cleaned[i];
      const Trajectory& want = (*serial)[i];
      ASSERT_EQ(got.size(), want.size());
      for (size_t k = 0; k < got.size(); ++k) {
        ASSERT_EQ(got[k].p.x, want[k].p.x) << "round " << round;
        ASSERT_EQ(got[k].p.y, want[k].p.y) << "round " << round;
      }
    }
  }
}

TEST(ExecStressTest, ProfiledMergeUnderManyWorkers) {
  const uint64_t kSeed = 11;
  const auto fleet = MakeTinyFleet(192, kSeed);
  const TrajectoryPipeline pipeline = MakeJitterPipeline();
  FleetRunner::Options options;
  options.num_threads = 8;
  options.shard_size = 1;
  options.base_seed = kSeed;
  const FleetRunner runner(&pipeline, options);

  FleetResult reference;
  for (int round = 0; round < 3; ++round) {
    const FleetResult result =
        runner.RunProfiled(fleet, &fleet, TrajectoryProfiler());
    ASSERT_TRUE(result.ok()) << result.first_error;
    ASSERT_EQ(result.stage_stats.size(), 2u);
    const auto& acc =
        result.stage_stats[1].metrics.at(DqDimension::kAccuracy);
    EXPECT_EQ(acc.count, fleet.size());
    if (round == 0) {
      reference = result;
    } else {
      // Aggregates merge after the join in input order: bit-equal rounds.
      EXPECT_EQ(acc.mean,
                reference.stage_stats[1]
                    .metrics.at(DqDimension::kAccuracy)
                    .mean);
      EXPECT_EQ(acc.p99, reference.stage_stats[1]
                             .metrics.at(DqDimension::kAccuracy)
                             .p99);
    }
  }
}

TEST(ExecStressTest, CancellationRaceIsClean) {
  // Poison several trajectories; whichever shard trips the flag first,
  // every status must end as OK, the stage error, or Cancelled -- and the
  // winning first_error must always be a stage error, never Cancelled.
  const uint64_t kSeed = 13;
  const auto fleet = MakeTinyFleet(128, kSeed);
  TrajectoryPipeline pipeline = MakeJitterPipeline();
  pipeline.Add("validate", [](const Trajectory& in) -> StatusOr<Trajectory> {
    if (in.object_id() % 17 == 3) return Status::DataLoss("poisoned");
    return in;
  });

  FleetRunner::Options options;
  options.num_threads = 8;
  options.shard_size = 2;
  options.base_seed = kSeed;
  // Default max_quarantine_fraction 0.0: the first failure stops the fleet.
  const FleetRunner runner(&pipeline, options);

  for (int round = 0; round < 4; ++round) {
    const FleetResult result = runner.Run(fleet);
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(result.first_error.code(), StatusCode::kDataLoss);
    size_t failed = 0;
    for (const Status& st : result.statuses) {
      ASSERT_TRUE(st.ok() || st.code() == StatusCode::kDataLoss ||
                  st.code() == StatusCode::kCancelled)
          << st;
      if (st.code() == StatusCode::kDataLoss) ++failed;
    }
    EXPECT_GE(failed, 1u);
  }
}

// Eight ParallelFor workers hammer one MetricsRegistry -- the same counter,
// gauge, and histogram cells, plus racing first-registrations of per-task
// names -- and the merged snapshot must equal the arithmetic totals exactly.
// Under the tsan preset this is the data-race check for the striped
// lock-free write path; in every preset it is the no-lost-updates check.
TEST(ExecStressTest, MetricsRegistryLosesNothingUnderPoolContention) {
  obs::MetricsRegistry registry;
  constexpr int kWorkers = 8;
  constexpr int kTasks = 64;
  constexpr int kOpsPerTask = 5000;

  exec::ParallelFor(kTasks, kWorkers, [&registry](size_t task) {
    // Shared hot cells: every task resolves the same names (shared-lock
    // fast path) and writes lock-free.
    obs::Counter hits = registry.counter("stress.hits");
    obs::Gauge net = registry.gauge("stress.net");
    obs::Histogram lat =
        registry.histogram("stress.latency", {10.0, 100.0, 1000.0});
    // Racing first registration: a fresh name per task, exercising the
    // exclusive path concurrently with the fast path above.
    registry.counter("stress.task." + std::to_string(task)).Increment();
    for (int i = 0; i < kOpsPerTask; ++i) {
      hits.Increment();
      net.Add(i % 2 == 0 ? 1 : -1);
      lat.Record(static_cast<double>(i % 200));
    }
  });

  const obs::MetricsSnapshot snap = registry.Snapshot();
  int64_t hits = -1;
  int64_t per_task_total = 0;
  for (const obs::CounterValue& c : snap.counters) {
    if (c.name == "stress.hits") hits = c.value;
    if (c.name.rfind("stress.task.", 0) == 0) per_task_total += c.value;
  }
  EXPECT_EQ(hits, int64_t{kTasks} * kOpsPerTask);
  EXPECT_EQ(per_task_total, kTasks);  // every registration survived the race

  for (const obs::GaugeValue& g : snap.gauges) {
    if (g.name == "stress.net") {
      EXPECT_EQ(g.value, 0);  // +1/-1 pairs cancel
    }
  }
  for (const obs::HistogramValue& h : snap.histograms) {
    if (h.name != "stress.latency") continue;
    EXPECT_EQ(h.count, int64_t{kTasks} * kOpsPerTask);
    // Integer samples: the striped double sums merge exactly.
    double expected = 0.0;
    for (int i = 0; i < kOpsPerTask; ++i) {
      expected += static_cast<double>(i % 200) * kTasks;
    }
    EXPECT_DOUBLE_EQ(h.sum, expected);
    EXPECT_DOUBLE_EQ(h.max, 199.0);
    EXPECT_FALSE(h.invalid);
  }
  EXPECT_TRUE(registry.registration_error().empty());
}

}  // namespace
}  // namespace sidq
