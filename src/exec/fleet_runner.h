#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "core/quality.h"
#include "core/retry.h"
#include "core/status.h"
#include "core/trajectory.h"

namespace sidq {

namespace obs {
struct ObsSinks;
}  // namespace obs

namespace exec {

// count / mean / p50 / p99 of one DQ metric across the fleet.
struct MetricAggregate {
  size_t count = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
};

// Aggregate DQ statistics for one pipeline stage across every trajectory
// that reached that stage: the fleet-level DqReport.
struct FleetStageStats {
  std::string stage_name;
  std::map<DqDimension, MetricAggregate> metrics;

  // The per-dimension means as a DqReport, for DiagnoseChanges interop.
  [[nodiscard]] DqReport MeanReport() const;
  [[nodiscard]] std::string ToString() const;
};

// Per-object resilience annotation: how the object's result was obtained.
// Objects that cleaned at full fidelity on the first attempt produce no
// annotation; everything else (retries, degraded ladder rungs, quarantine)
// is recorded here, sorted by input index.
struct ObjectAnnotation {
  size_t index = 0;
  ObjectId id = 0;
  ExecQuality quality = ExecQuality::kFull;
  int retries = 0;
  // Ladder falls, in stage order (empty unless quality >= kDegraded or a
  // fallback rung rescued the object).
  std::vector<DegradeEvent> degraded;
  // Terminal status: OK unless the object was quarantined / failed.
  Status status;
};

// Outcome of one fleet run. Per-trajectory statuses are reported instead of
// one flattened StatusOr so that a single poisoned trajectory does not
// discard the 9,999 that cleaned fine.
struct FleetResult {
  // Cleaned trajectory per input index; meaningful iff statuses[i].ok().
  std::vector<Trajectory> cleaned;
  // Per-trajectory terminal status: OK, the failing stage's error, or
  // Cancelled when a stop (see breaker_tripped) skipped its shard.
  std::vector<Status> statuses;
  // The stage failure with the lowest input index among shards that
  // executed; OK when the whole fleet cleaned. With a single failing
  // trajectory this is deterministic; with several failures and a stop
  // rule below 1.0 the winner among *executed* shards can depend on
  // scheduling (max_quarantine_fraction = 1.0 reports every failure).
  Status first_error;
  // Fleet-level aggregates, num_stages()+1 entries starting with "input";
  // filled by RunProfiled only.
  std::vector<FleetStageStats> stage_stats;

  size_t shards_total = 0;
  size_t shards_cancelled = 0;

  // Resilience outcome (filled for every run; empty/zero when nothing
  // retried, degraded, or failed).
  std::vector<ObjectAnnotation> annotations;
  size_t objects_quarantined = 0;
  size_t objects_degraded = 0;
  size_t retries_total = 0;
  // True when the stop rule aborted the run: more than
  // Options::max_quarantine_fraction of the fleet was quarantined. Under
  // the default fraction 0.0 this is a fail-fast stop at the first failure.
  bool breaker_tripped = false;

  [[nodiscard]] bool ok() const {
    return first_error.ok() && shards_cancelled == 0;
  }
  // Partial success: every shard executed and the stop rule held; some
  // objects may still be quarantined (see annotations).
  [[nodiscard]] bool partial_ok() const {
    return shards_cancelled == 0 && !breaker_tripped;
  }
  // Input indices of quarantined objects, ascending.
  [[nodiscard]] std::vector<size_t> QuarantinedIndices() const;
  // One-line human summary, e.g.
  // "fleet: 23/24 full, 2 degraded, 1 quarantined, 5 retries".
  [[nodiscard]] std::string ResilienceSummary() const;
};

// Runs a TrajectoryPipeline over a batch of trajectories, one shard per
// exec::ParallelFor index.
//
// Determinism contract: trajectory i is cleaned with the RNG substream
// DeriveSeed(base_seed, fleet[i].object_id()) and results are written back
// by input index, so the output is bit-identical to
// TrajectoryPipeline::RunBatch() -- regardless of worker count, shard
// size, or OS scheduling. (Trajectories sharing an object_id share a
// substream; give fleet members distinct ids.)
//
// Failure contract: one stop rule, Options::max_quarantine_fraction. A
// failing object is quarantined (after its retries and ladder rungs are
// exhausted). Once more than that fraction of the fleet is quarantined,
// a cancellation flag flips: shards that have not started yet finish
// immediately, marking their trajectories Cancelled, and objects in
// flight abort at their next cooperative check. The default 0.0 stops at
// the first failure; 1.0 always cleans everything.
class FleetRunner {
 public:
  struct Options {
    // Worker threads; <= 0 means std::thread::hardware_concurrency().
    int num_threads = 0;
    // Trajectories per shard: the fleet is cut into contiguous index chunks
    // of this size. Workers claim shards one at a time, in index order, so
    // small shards even out imbalance and large shards amortize the claim.
    size_t shard_size = 16;
    // Base seed of the per-trajectory substreams.
    uint64_t base_seed = 42;

    // --- resilience ---
    // Per-stage retry policy for transient failures; max_retries = 0
    // disables retrying. Backoff jitter draws from the per-object
    // substream DeriveSeed(base_seed ^ kRetryStreamSalt, object_id), so
    // retried output is bit-identical for any worker count.
    RetryPolicy retry;
    // Per-trajectory time budget; 0 disables deadlines. Enforced
    // cooperatively by context-aware stages/kernels.
    int64_t deadline_ms = 0;
    // true: every trajectory runs against its own VirtualClock starting at
    // 0, so injected stalls and backoffs are instant and one object's
    // stalls can never consume another's budget -- fully deterministic
    // (tests, chaos runs). false: deadlines/backoffs use the process-wide
    // SteadyClock.
    bool virtual_time = false;
    // The stop rule: abort the run once more than this fraction of the
    // fleet has been quarantined. Any value that is not > 0 (NaN included)
    // stops at the first failure; >= 1.0 never stops and cleans
    // everything; values in between are a circuit breaker for runs where
    // failure is the rule rather than the exception. Stopping is an
    // early-exit race: *which* shards get skipped depends on scheduling,
    // the stop decision itself does not.
    double max_quarantine_fraction = 0.0;

    // --- observability ---
    // Metrics + trace sinks (borrowed, nullable). The runner records
    // fleet.* gauges, per-stage counters/duration histograms, retry and
    // degrade counters, and one span tree per object keyed by object id
    // (fleet-level spans under obs::kProcessKey). Under virtual_time the
    // default metrics snapshot and the canonical span list are
    // bit-identical for any worker count (DESIGN.md "Observability").
    const obs::ObsSinks* obs = nullptr;
  };

  // `pipeline` must outlive the runner and is shared read-only across
  // workers; stages must therefore be const-thread-safe.
  FleetRunner(const TrajectoryPipeline* pipeline, Options options);

  [[nodiscard]] FleetResult Run(const std::vector<Trajectory>& fleet) const;

  // Also profiles every trajectory before the first and after each stage
  // (against truths[i] when `truths` is non-null, aligned with `fleet`) and
  // merges the per-trajectory StageReports into FleetResult::stage_stats.
  [[nodiscard]] FleetResult RunProfiled(
      const std::vector<Trajectory>& fleet,
      const std::vector<Trajectory>* truths,
      const TrajectoryProfiler& profiler) const;

 private:
  FleetResult RunInternal(const std::vector<Trajectory>& fleet,
                          const std::vector<Trajectory>* truths,
                          const TrajectoryProfiler* profiler) const;

  const TrajectoryPipeline* pipeline_;
  Options options_;
};

}  // namespace exec
}  // namespace sidq
