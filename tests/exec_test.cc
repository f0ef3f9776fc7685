// Tests for the parallel fleet execution engine (src/exec/): the golden
// determinism contract (parallel output bit-identical to serial for every
// worker count and shard size), the fail-fast stop rule, and
// exec::ParallelFor's fork-join contract.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <iterator>
#include <thread>  // std::this_thread only
#include <vector>

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "core/quality.h"
#include "core/random.h"
#include "core/status.h"
#include "core/trajectory.h"
#include "exec/fleet_runner.h"
#include "exec/parallel_for.h"

namespace sidq {
namespace {

using exec::FleetResult;
using exec::FleetRunner;
using exec::ParallelFor;

// A clustered synthetic fleet: 70% of the vehicles random-walk near a
// depot, the rest spread over the full region.
std::vector<Trajectory> MakeSyntheticFleet(size_t num_trajectories,
                                           size_t points_each,
                                           uint64_t seed) {
  Rng rng(seed);
  std::vector<Trajectory> fleet;
  fleet.reserve(num_trajectories);
  for (size_t i = 0; i < num_trajectories; ++i) {
    Trajectory t(static_cast<ObjectId>(i));
    const bool clustered = rng.Bernoulli(0.7);
    double x = clustered ? rng.Uniform(900.0, 1100.0) : rng.Uniform(0.0, 8000.0);
    double y = clustered ? rng.Uniform(900.0, 1100.0) : rng.Uniform(0.0, 8000.0);
    for (size_t k = 0; k < points_each; ++k) {
      t.AppendUnordered(TrajectoryPoint(static_cast<Timestamp>(k) * 1000,
                                        geometry::Point(x, y), 5.0));
      x += rng.Gaussian(0.0, 12.0);
      y += rng.Gaussian(0.0, 12.0);
    }
    fleet.push_back(std::move(t));
  }
  return fleet;
}

// Seeded jitter + deterministic smoothing: a pipeline that mixes an
// AddSeeded stage (draws from the per-object ctx.rng substream) with a
// plain Add stage (ignores the context).
TrajectoryPipeline MakeCleaningPipeline() {
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

// Exact (bitwise) equality of two trajectories.
::testing::AssertionResult BitIdentical(const Trajectory& a,
                                        const Trajectory& b) {
  if (a.object_id() != b.object_id())
    return ::testing::AssertionFailure() << "object_id mismatch";
  if (a.size() != b.size())
    return ::testing::AssertionFailure()
           << "size mismatch: " << a.size() << " vs " << b.size();
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].t != b[i].t || a[i].p.x != b[i].p.x || a[i].p.y != b[i].p.y ||
        a[i].accuracy != b[i].accuracy) {
      return ::testing::AssertionFailure() << "point " << i << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

constexpr uint64_t kSeed = 2024;

TEST(FleetRunnerTest, GoldenDeterminismAcrossWorkersAndSharding) {
  const auto fleet = MakeSyntheticFleet(200, 40, kSeed);
  const TrajectoryPipeline pipeline = MakeCleaningPipeline();

  const auto serial = pipeline.RunBatch(fleet, kSeed);
  ASSERT_TRUE(serial.ok()) << serial.status();
  ASSERT_EQ(serial->size(), fleet.size());

  for (const int workers : {1, 2, 8}) {
    FleetRunner::Options options;
    options.num_threads = workers;
    options.shard_size = 7;  // deliberately does not divide 200
    options.base_seed = kSeed;
    const FleetRunner runner(&pipeline, options);

    const FleetResult result = runner.Run(fleet);
    ASSERT_TRUE(result.ok()) << result.first_error;
    ASSERT_EQ(result.cleaned.size(), fleet.size());
    EXPECT_GT(result.shards_total, 1u);
    for (size_t i = 0; i < fleet.size(); ++i) {
      ASSERT_TRUE(result.statuses[i].ok());
      ASSERT_TRUE(BitIdentical(result.cleaned[i], (*serial)[i]))
          << "trajectory " << i << " with " << workers << " workers";
    }
  }
}

TEST(FleetRunnerTest, SubstreamsAreIndependentPerTrajectory) {
  // Two trajectories with identical points but different ids must draw
  // different jitter; the same id must reproduce exactly.
  const auto fleet = MakeSyntheticFleet(1, 30, kSeed);
  Trajectory twin = fleet[0];
  twin.set_object_id(fleet[0].object_id() + 1);
  const TrajectoryPipeline pipeline = MakeCleaningPipeline();

  Rng rng_a = Rng::ForKey(kSeed, 0);
  Rng rng_a2 = Rng::ForKey(kSeed, 0);
  Rng rng_b = Rng::ForKey(kSeed, 1);
  const auto out_a = pipeline.Run(fleet[0], {.rng = &rng_a});
  const auto out_a2 = pipeline.Run(fleet[0], {.rng = &rng_a2});
  const auto out_b = pipeline.Run(twin, {.rng = &rng_b});
  ASSERT_TRUE(out_a.ok());
  ASSERT_TRUE(out_a2.ok());
  ASSERT_TRUE(out_b.ok());
  EXPECT_TRUE(BitIdentical(*out_a, *out_a2));
  EXPECT_FALSE(out_a->points()[5].p.x == out_b->points()[5].p.x &&
               out_a->points()[5].p.y == out_b->points()[5].p.y);
}

TrajectoryPipeline MakePoisonedPipeline(ObjectId poisoned_id) {
  TrajectoryPipeline pipeline = MakeCleaningPipeline();
  pipeline.Add("validate",
               [poisoned_id](const Trajectory& in) -> StatusOr<Trajectory> {
                 if (in.object_id() == poisoned_id) {
                   return Status::DataLoss("sensor feed corrupted");
                 }
                 return in;
               });
  return pipeline;
}

TEST(FleetRunnerTest, OnePoisonedTrajectoryLeavesOthersUnaffected) {
  const auto fleet = MakeSyntheticFleet(60, 20, kSeed);
  const ObjectId poisoned = 37;
  const TrajectoryPipeline pipeline = MakePoisonedPipeline(poisoned);

  FleetRunner::Options options;
  options.num_threads = 4;
  options.shard_size = 5;
  options.base_seed = kSeed;
  options.max_quarantine_fraction = 1.0;  // clean everything, report everything
  const FleetRunner runner(&pipeline, options);
  const FleetResult result = runner.Run(fleet);

  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.first_error.code(), StatusCode::kDataLoss);
  EXPECT_NE(result.first_error.message().find("stage 'validate' failed"),
            std::string::npos);
  EXPECT_EQ(result.shards_cancelled, 0u);
  for (size_t i = 0; i < fleet.size(); ++i) {
    if (fleet[i].object_id() == poisoned) {
      EXPECT_EQ(result.statuses[i].code(), StatusCode::kDataLoss);
      continue;
    }
    ASSERT_TRUE(result.statuses[i].ok()) << "trajectory " << i;
    Rng rng = Rng::ForKey(kSeed, fleet[i].object_id());
    const auto serial = pipeline.Run(fleet[i], {.rng = &rng});
    ASSERT_TRUE(serial.ok());
    EXPECT_TRUE(BitIdentical(result.cleaned[i], *serial));
  }
}

TEST(FleetRunnerTest, FirstErrorWinsCancellationSkipsUnstartedShards) {
  const auto fleet = MakeSyntheticFleet(50, 10, kSeed);
  const TrajectoryPipeline pipeline = MakePoisonedPipeline(/*poisoned_id=*/0);

  FleetRunner::Options options;
  options.num_threads = 1;  // one worker drains shards in submission order
  options.shard_size = 1;
  options.base_seed = kSeed;
  // Default max_quarantine_fraction 0.0: stop at the first failure.
  const FleetRunner runner(&pipeline, options);
  const FleetResult result = runner.Run(fleet);

  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.breaker_tripped);
  EXPECT_EQ(result.first_error.code(), StatusCode::kDataLoss);
  EXPECT_EQ(result.statuses[0].code(), StatusCode::kDataLoss);
  EXPECT_EQ(result.shards_cancelled, fleet.size() - 1);
  for (size_t i = 1; i < fleet.size(); ++i) {
    EXPECT_EQ(result.statuses[i].code(), StatusCode::kCancelled);
  }
}

TEST(FleetRunnerTest, EmptyFleetIsOk) {
  const TrajectoryPipeline pipeline = MakeCleaningPipeline();
  const FleetRunner runner(&pipeline, {});
  const FleetResult result = runner.Run({});
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.shards_total, 0u);
  EXPECT_TRUE(result.cleaned.empty());
}

TEST(FleetRunnerTest, MakeShardsCoversEveryIndexExactlyOnce) {
  auto fleet = MakeSyntheticFleet(97, 12, kSeed);
  fleet.push_back(Trajectory(97));  // point-free straggler
  // Object ids equal input indices, so a counting stage sees which
  // indices the shards actually ran.
  std::vector<std::atomic<int>> calls(fleet.size());
  TrajectoryPipeline pipeline;
  pipeline.Add("count", [&calls](const Trajectory& in) -> StatusOr<Trajectory> {
    calls[static_cast<size_t>(in.object_id())].fetch_add(
        1, std::memory_order_relaxed);
    return in;
  });

  for (const int workers : {1, 2, 8}) {
    SCOPED_TRACE(::testing::Message() << "workers=" << workers);
    for (std::atomic<int>& c : calls) c.store(0);
    FleetRunner::Options options;
    options.shard_size = 9;
    options.num_threads = workers;
    const FleetResult result = FleetRunner(&pipeline, options).Run(fleet);
    EXPECT_EQ(result.shards_total, 11u);  // ceil(98 / 9)
    EXPECT_EQ(result.shards_cancelled, 0u);
    for (size_t i = 0; i < fleet.size(); ++i) {
      EXPECT_TRUE(result.statuses[i].ok()) << "index " << i;
      EXPECT_EQ(calls[i].load(), 1) << "index " << i;
    }
  }
}

TEST(FleetRunnerTest, ProfiledRunAggregatesFleetMetrics) {
  const size_t kPoints = 24;
  const auto fleet = MakeSyntheticFleet(16, kPoints, kSeed);
  const TrajectoryPipeline pipeline = MakeCleaningPipeline();

  FleetRunner::Options options;
  options.num_threads = 4;
  options.shard_size = 3;
  options.base_seed = kSeed;
  const FleetRunner runner(&pipeline, options);
  const FleetResult result =
      runner.RunProfiled(fleet, &fleet, TrajectoryProfiler());
  ASSERT_TRUE(result.ok()) << result.first_error;

  ASSERT_EQ(result.stage_stats.size(), pipeline.num_stages() + 1);
  EXPECT_EQ(result.stage_stats[0].stage_name, "input");
  EXPECT_EQ(result.stage_stats[1].stage_name, "jitter");
  EXPECT_EQ(result.stage_stats[2].stage_name, "smooth");

  // Every trajectory has kPoints samples, so the data-volume aggregate is
  // exact: count = fleet size, mean = p50 = p99 = kPoints.
  const auto& volume =
      result.stage_stats[0].metrics.at(DqDimension::kDataVolume);
  EXPECT_EQ(volume.count, fleet.size());
  EXPECT_DOUBLE_EQ(volume.mean, static_cast<double>(kPoints));
  EXPECT_DOUBLE_EQ(volume.p50, static_cast<double>(kPoints));
  EXPECT_DOUBLE_EQ(volume.p99, static_cast<double>(kPoints));

  // Ground truth equals the input, so jitter must raise the accuracy RMSE
  // above the input stage's zero and smoothing must not erase it entirely.
  const auto& acc_in = result.stage_stats[0].metrics.at(DqDimension::kAccuracy);
  const auto& acc_jit =
      result.stage_stats[1].metrics.at(DqDimension::kAccuracy);
  EXPECT_DOUBLE_EQ(acc_in.mean, 0.0);
  EXPECT_GT(acc_jit.mean, 0.0);
  EXPECT_LE(acc_jit.p50, acc_jit.p99);

  // MeanReport round-trips the means for DiagnoseChanges interop.
  EXPECT_DOUBLE_EQ(
      result.stage_stats[1].MeanReport().Get(DqDimension::kAccuracy),
      acc_jit.mean);
  EXPECT_FALSE(result.stage_stats[1].ToString().empty());
}

TEST(FleetRunnerTest, ProfiledDeterminismMatchesUnprofiledRun) {
  const auto fleet = MakeSyntheticFleet(40, 16, kSeed);
  const TrajectoryPipeline pipeline = MakeCleaningPipeline();
  FleetRunner::Options options;
  options.num_threads = 8;
  options.shard_size = 1;
  options.base_seed = kSeed;
  const FleetRunner runner(&pipeline, options);

  const FleetResult plain = runner.Run(fleet);
  const FleetResult profiled =
      runner.RunProfiled(fleet, nullptr, TrajectoryProfiler());
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(profiled.ok());
  for (size_t i = 0; i < fleet.size(); ++i) {
    EXPECT_TRUE(BitIdentical(plain.cleaned[i], profiled.cleaned[i]));
  }
}

// ---------------------------------------------------------- ParallelFor

// Threads alive in this process right now: one /proc/self/task entry each.
size_t LiveThreads() {
  const std::filesystem::directory_iterator tasks("/proc/self/task");
  return static_cast<size_t>(
      std::distance(tasks, std::filesystem::directory_iterator()));
}

// Spins until `counter` reaches `target` or ten seconds pass, so a broken
// fork-join fails the test instead of hanging it. Returns whether it got
// there.
bool AwaitCount(const std::atomic<size_t>& counter, size_t target) {
  const auto limit =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (counter.load(std::memory_order_acquire) < target) {
    if (std::chrono::steady_clock::now() > limit) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST(ParallelForTest, EachIndexRunsExactlyOnce) {
  for (const size_t n : {0, 1, 7, 1000}) {
    for (const size_t threads : {0, 1, 2, 8}) {
      std::vector<std::atomic<int>> calls(n);
      // Plain per-index slots: the join alone must publish them.
      std::vector<size_t> slots(n, 0);
      ParallelFor(n, threads, [&](size_t i) {
        calls[i].fetch_add(1, std::memory_order_relaxed);
        slots[i] = i * i + 1;
      });
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(calls[i].load(), 1) << "n=" << n << " threads=" << threads
                                      << " index " << i;
        EXPECT_EQ(slots[i], i * i + 1);
      }
    }
  }
}

TEST(ParallelForTest, AtMostOneThreadRunsInlineInIndexOrder) {
  const auto caller = std::this_thread::get_id();
  for (const size_t threads : {0, 1}) {
    std::vector<size_t> order;
    bool all_on_caller = true;
    ParallelFor(5, threads, [&](size_t i) {
      order.push_back(i);
      all_on_caller = all_on_caller && std::this_thread::get_id() == caller;
    });
    EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
    EXPECT_TRUE(all_on_caller) << "threads=" << threads;
  }
}

TEST(ParallelForTest, SpawnsAtMostNThreads) {
#ifndef __linux__
  GTEST_SKIP() << "counts threads through /proc/self/task";
#endif
  // Warm up first: ThreadSanitizer starts a helper thread of its own on
  // the first spawn. A joined thread can linger in /proc for a moment, so
  // the base is the least of many samples.
  ParallelFor(1, 2, [](size_t) {});
  size_t base = LiveThreads();
  for (int k = 0; k < 1000; ++k) base = std::min(base, LiveThreads());
  for (const size_t n : {1, 3}) {
    std::atomic<size_t> started{0};
    std::vector<size_t> peak(n, 0);
    std::vector<char> met(n, 0);  // not vector<bool>: one byte per slot
    ParallelFor(n, 8, [&](size_t i) {
      // Every index holds its worker until all n have started, so the
      // first sample taken sees every worker alive.
      started.fetch_add(1, std::memory_order_acq_rel);
      met[i] = AwaitCount(started, n) ? 1 : 0;
      for (int k = 0; k < 200; ++k) peak[i] = std::max(peak[i], LiveThreads());
    });
    for (size_t i = 0; i < n; ++i) {
      ASSERT_NE(met[i], 0) << "n=" << n << ": indices did not run concurrently";
    }
    // The caller only joins: exactly n extra threads, not n + 1 and not 8.
    EXPECT_EQ(*std::max_element(peak.begin(), peak.end()), base + n)
        << "n=" << n;
    // Let this round's joined threads leave /proc before the next samples.
    for (int k = 0; k < 100000 && LiveThreads() > base; ++k) {
      std::this_thread::yield();
    }
  }
}

TEST(ParallelForTest, BlockedIndexDoesNotStallOthers) {
  // Index 0 holds its worker until every other index has finished; the
  // remaining workers must claim and finish all of them meanwhile.
  constexpr size_t kN = 64;
  std::atomic<size_t> done{0};
  bool others_finished = false;
  ParallelFor(kN, 4, [&](size_t i) {
    if (i == 0) {
      others_finished = AwaitCount(done, kN - 1);
      return;
    }
    done.fetch_add(1, std::memory_order_acq_rel);
  });
  EXPECT_TRUE(others_finished);
  EXPECT_EQ(done.load(), kN - 1);
}

}  // namespace
}  // namespace sidq
