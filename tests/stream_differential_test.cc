// The stream-vs-batch differential contract: replaying a recorded event log
// through the incremental stream engine must produce BIT-IDENTICAL output
// to the batch reference pipeline on the same log -- same cleaned records,
// same quarantine ledger, same windowed KPIs and alerts -- at 1, 2, and 8
// workers, across seeded adversarial arrival orders (stragglers,
// duplicates, garbage values), and with retryable chaos armed at the
// ingest / window-close sites (disarmed-checksum parity: the armed run's
// checksum equals the disarmed batch checksum because bounded deterministic
// retries absorb every transient fault). Replay's error path is pinned at
// the same worker counts: a cancelled or expiring context fails the replay
// with one Status, whatever the scheduling.

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/clock.h"
#include "core/exec_context.h"
#include "core/failpoint.h"
#include "core/random.h"
#include "geometry/bbox.h"
#include "sim/sensor_field.h"
#include "stream/engine.h"
#include "stream/event_log.h"
#include "stream/replay.h"
#include "stream/rules.h"

namespace sidq {
namespace stream {
namespace {

bool Aggressive() { return std::getenv("SIDQ_CHAOS_AGGRESSIVE") != nullptr; }

// A dirty field-sensing fleet: smooth truth + noise + spikes, plus a few
// hand-planted pathologies (NaN, out-of-range, pre-epoch timestamp).
StDataset MakeDirtyDataset(uint64_t seed) {
  Rng rng(DeriveSeed(seed, 0xF1E1D));
  const geometry::BBox bounds(geometry::Point(0, 0),
                              geometry::Point(4000, 4000));
  const sim::ScalarField field =
      sim::ScalarField::MakeRandom(bounds, 3, 20.0, 30.0, 300.0, 900.0,
                                   3600.0, &rng);
  const std::vector<geometry::Point> sensors =
      sim::DeploySensors(bounds, 8, &rng);
  StDataset truth =
      sim::SampleField(field, sensors, 0, 60'000, 30, "pm25");
  StDataset dirty = sim::AddValueNoise(truth, 0.8, &rng);
  dirty = sim::AddValueSpikes(dirty, 0.03, 400.0, &rng);
  // Hand-planted garbage the admission rules must firewall.
  auto& records0 = dirty.mutable_series()[0].mutable_records();
  records0[5].value = std::nan("");
  records0[11].value = 1e6;
  return dirty;
}

EventLog MakeAdversarialLog(uint64_t seed) {
  const StDataset dirty = MakeDirtyDataset(seed);
  ArrivalOptions options;
  options.mean_delay_ms = 20'000;  // heavy reordering vs 60s cadence
  options.straggler_probability = 0.15;
  options.straggler_delay_ms = 400'000;  // way past max lateness
  options.duplicate_probability = 0.10;
  Rng rng(DeriveSeed(seed, 0xA221));
  return RecordArrivals(dirty, options, &rng);
}

StreamConfig DifferentialConfig() {
  StreamConfig config;
  SensorRule rule;
  rule.min_value = -50.0;
  rule.max_value = 500.0;
  rule.expected_interval_ms = 60'000;
  rule.max_lateness_ms = 120'000;
  rule.max_rate_per_s = 1.0;
  config.rules.set_default_rule(rule);
  config.window_ms = 300'000;
  config.window_capacity = 16;
  config.robust_z.z_threshold = 4.0;
  config.robust_z.min_samples = 6;
  return config;
}

class StreamDifferentialTest : public ::testing::Test {
 protected:
  void TearDown() override { DisarmAllFailPoints(); }
};

// Replays seeded adversarial logs at 1, 2 and 8 workers and expects each
// replay to equal the batch reference. Adds the batch ledgers' entry
// counts per reason to `reasons`, so a caller can check which paths ran.
void ExpectStreamEqualsBatch(const StreamConfig& config,
                             std::map<QuarantineReason, size_t>* reasons) {
  const int num_seeds = Aggressive() ? 8 : 4;
  for (uint64_t seed = 0; seed < static_cast<uint64_t>(num_seeds); ++seed) {
    const EventLog log = MakeAdversarialLog(seed);
    const StreamOutput batch = BatchReference(log, config);
    const std::string batch_json = StreamOutputToJson(batch);
    // The scenario must actually exercise the interesting paths, or the
    // equality is vacuous.
    EXPECT_GT(batch.ledger.size(), 0u) << "seed " << seed;
    EXPECT_GT(batch.kpis.size(), 0u) << "seed " << seed;
    for (const QuarantineEntry& e : batch.ledger.entries()) {
      ++(*reasons)[e.reason];
    }

    for (const int workers : {1, 2, 8}) {
      ReplayOptions options;
      options.num_threads = workers;
      const StatusOr<StreamOutput> streamed = Replay(log, config, options);
      ASSERT_TRUE(streamed.ok()) << streamed.status();
      EXPECT_EQ(StreamOutputToJson(*streamed), batch_json)
          << "seed " << seed << ", " << workers << " workers";
      EXPECT_EQ(OutputChecksum(*streamed), OutputChecksum(batch));
    }
  }
}

TEST_F(StreamDifferentialTest, StreamEqualsBatchAcrossSeedsAndWorkers) {
  std::map<QuarantineReason, size_t> reasons;
  ExpectStreamEqualsBatch(DifferentialConfig(), &reasons);
}

// Two events per window: most windows overflow, and a duplicate counts
// only against its own window's admitted times.
TEST_F(StreamDifferentialTest, TinyWindowsOverflowAndDedupLikeTheBatch) {
  StreamConfig config = DifferentialConfig();
  config.window_capacity = 2;
  std::map<QuarantineReason, size_t> reasons;
  ExpectStreamEqualsBatch(config, &reasons);
  EXPECT_GT(reasons[QuarantineReason::kWindowOverflow], 0u);
  EXPECT_GT(reasons[QuarantineReason::kDuplicate], 0u);
}

// Shuffling the arrival order of the SAME records (a different delay draw)
// changes which records are late -- but for each arrival order, stream
// must still equal batch. This pins that the contract is per-log, not an
// accident of one ordering.
TEST_F(StreamDifferentialTest, HoldsForEveryArrivalShuffleOfOneDataset) {
  const StreamConfig config = DifferentialConfig();
  const StDataset dirty = MakeDirtyDataset(7);
  for (uint64_t shuffle = 0; shuffle < 5; ++shuffle) {
    ArrivalOptions options;
    options.mean_delay_ms = 30'000;
    options.straggler_probability = 0.2;
    options.straggler_delay_ms = 500'000;
    options.duplicate_probability = 0.15;
    Rng rng(DeriveSeed(99, shuffle));
    const EventLog log = RecordArrivals(dirty, options, &rng);
    const std::string batch_json =
        StreamOutputToJson(BatchReference(log, config));
    ReplayOptions replay_options;
    replay_options.num_threads = 2;
    const StatusOr<StreamOutput> streamed = Replay(log, config, replay_options);
    ASSERT_TRUE(streamed.ok()) << streamed.status();
    EXPECT_EQ(StreamOutputToJson(*streamed), batch_json)
        << "shuffle " << shuffle;
  }
}

// Disarmed-checksum parity: transient chaos within the engine's retry
// budget must not change one bit of output relative to the disarmed batch
// reference, at any worker count.
TEST_F(StreamDifferentialTest, TransientChaosPreservesBatchChecksum) {
  const StreamConfig config = DifferentialConfig();
  const EventLog log = MakeAdversarialLog(3);
  const uint64_t batch_checksum = OutputChecksum(BatchReference(log, config));

  FailPointConfig transient;
  transient.action = FailPointAction::kTransientError;
  transient.fail_first_n = Aggressive() ? 3 : 2;  // retry budget is 3
  for (const int workers : {1, 2, 8}) {
    ArmFailPoint(kIngestFailPoint, transient);
    ArmFailPoint(kWindowCloseFailPoint, transient);
    ReplayOptions options;
    options.num_threads = workers;
    const StatusOr<StreamOutput> streamed = Replay(log, config, options);
    const size_t ingest_hits = FailPointHits(kIngestFailPoint);
    DisarmAllFailPoints();  // disarm erases the hit counters too
    ASSERT_TRUE(streamed.ok()) << streamed.status();
    EXPECT_GT(ingest_hits, 0u);
    EXPECT_EQ(OutputChecksum(*streamed), batch_checksum)
        << workers << " workers under transient chaos";
  }
}

// Permanent chaos changes the output (records are lost to quarantine) --
// but deterministically: every worker count loses exactly the same
// records, so all chaos runs agree with the serial chaos run.
TEST_F(StreamDifferentialTest, PermanentChaosIsWorkerCountDeterministic) {
  const StreamConfig config = DifferentialConfig();
  const EventLog log = MakeAdversarialLog(5);

  FailPointConfig permanent;
  permanent.action = FailPointAction::kPermanentError;
  permanent.probability = Aggressive() ? 0.05 : 0.02;
  permanent.seed = 0xBAD5EED;

  std::string reference;
  for (const int workers : {1, 2, 8}) {
    ArmFailPoint(kIngestFailPoint, permanent);
    ReplayOptions options;
    options.num_threads = workers;
    const StatusOr<StreamOutput> streamed = Replay(log, config, options);
    DisarmAllFailPoints();
    ASSERT_TRUE(streamed.ok()) << streamed.status();
    const std::string json = StreamOutputToJson(*streamed);
    if (workers == 1) {
      reference = json;
      // The chaos must actually bite for the determinism claim to mean
      // anything.
      bool saw_fault = false;
      for (const QuarantineEntry& e : streamed->ledger.entries()) {
        saw_fault = saw_fault || e.reason == QuarantineReason::kIngestFault;
      }
      EXPECT_TRUE(saw_fault);
    } else {
      EXPECT_EQ(json, reference) << workers << " workers";
    }
  }
}

// Serialization round trip composes with the contract: record -> write ->
// read -> replay equals replaying the in-memory log, and the re-read log
// streams to the same bytes at 1 and 8 workers.
TEST_F(StreamDifferentialTest, FileRoundTripPreservesTheContract) {
  const StreamConfig config = DifferentialConfig();
  const EventLog log = MakeAdversarialLog(11);
  const std::string path = ::testing::TempDir() + "/diff_events.log";
  ASSERT_TRUE(WriteEventLogFile(log, path).ok());
  const StatusOr<EventLog> reread = ReadEventLogFile(path);
  ASSERT_TRUE(reread.ok()) << reread.status();
  const std::string batch_json =
      StreamOutputToJson(BatchReference(log, config));
  EXPECT_EQ(StreamOutputToJson(BatchReference(*reread, config)), batch_json);
  for (const int workers : {1, 8}) {
    ReplayOptions options;
    options.num_threads = workers;
    const StatusOr<StreamOutput> streamed = Replay(*reread, config, options);
    ASSERT_TRUE(streamed.ok()) << streamed.status();
    EXPECT_EQ(StreamOutputToJson(*streamed), batch_json)
        << workers << " workers";
  }
}

// A clock that moves one millisecond on every read, so a deadline expires
// after a fixed number of context checks: partway through a replay.
class TickingClock : public Clock {
 public:
  int64_t NowMs() const override {
    return now_ms_.fetch_add(1, std::memory_order_relaxed);
  }
  void SleepMs(int64_t ms) const override {
    now_ms_.fetch_add(ms, std::memory_order_relaxed);
  }

 private:
  mutable std::atomic<int64_t> now_ms_{0};
};

// A context cancelled before the replay starts stops every shard; the
// replay reports kCancelled and returns (a lost shard would hang the join).
TEST_F(StreamDifferentialTest, CancelledContextFailsReplayAtEveryWorkerCount) {
  const StreamConfig config = DifferentialConfig();
  const EventLog log = MakeAdversarialLog(2);
  const std::atomic<bool> cancelled{true};
  const ExecContext ctx(nullptr, &cancelled);
  for (const int workers : {1, 2, 8}) {
    ReplayOptions options;
    options.num_threads = workers;
    options.ctx = &ctx;
    const StatusOr<StreamOutput> streamed = Replay(log, config, options);
    ASSERT_FALSE(streamed.ok()) << workers << " workers";
    EXPECT_EQ(streamed.status().code(), StatusCode::kCancelled)
        << workers << " workers: " << streamed.status();
  }
}

// A deadline that expires partway through the log fails the replay with
// the same Status on every run, at every worker count: the merge reports
// the lowest-index failing shard, not whichever shard finished last.
TEST_F(StreamDifferentialTest, DeadlinePartwayGivesTheSameStatusEveryRun) {
  const StreamConfig config = DifferentialConfig();
  const EventLog log = MakeAdversarialLog(2);
  // Every Push checks the context once, so half the events' worth of clock
  // reads expires the budget mid-log at any worker count.
  const int64_t budget = static_cast<int64_t>(log.size() / 2);
  ASSERT_GT(budget, 0);
  for (const int workers : {1, 2, 8}) {
    for (int run = 0; run < 4; ++run) {
      const TickingClock clock;
      const ExecContext ctx = ExecContext::After(&clock, budget);
      ReplayOptions options;
      options.num_threads = workers;
      options.ctx = &ctx;
      const StatusOr<StreamOutput> streamed = Replay(log, config, options);
      ASSERT_FALSE(streamed.ok()) << workers << " workers, run " << run;
      EXPECT_EQ(streamed.status(),
                Status::DeadlineExceeded("deadline exceeded"))
          << workers << " workers, run " << run << ": " << streamed.status();
    }
  }
}

}  // namespace
}  // namespace stream
}  // namespace sidq
