#include "exec/fleet_runner.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <thread>
#include <utility>

#include "core/exec_context.h"
#include "core/random.h"
#include "exec/parallel_for.h"
#include "exec/steady_clock.h"
#include "obs/observer.h"

namespace sidq {
namespace exec {

namespace {

// Nearest-rank percentile of an already-sorted sample.
double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const size_t idx = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

}  // namespace

std::vector<size_t> FleetResult::QuarantinedIndices() const {
  std::vector<size_t> out;
  for (const ObjectAnnotation& a : annotations) {
    if (a.quality == ExecQuality::kQuarantined) out.push_back(a.index);
  }
  return out;
}

std::string FleetResult::ResilienceSummary() const {
  const size_t n = statuses.size();
  const size_t full = n - objects_quarantined - objects_degraded;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "fleet: %zu/%zu full, %zu degraded, %zu quarantined, "
                "%zu retries%s",
                full, n, objects_degraded, objects_quarantined,
                retries_total, breaker_tripped ? ", BREAKER TRIPPED" : "");
  return buf;
}

DqReport FleetStageStats::MeanReport() const {
  DqReport report;
  for (const auto& [dim, agg] : metrics) report.Set(dim, agg.mean);
  return report;
}

std::string FleetStageStats::ToString() const {
  std::string out = "stage '" + stage_name + "':";
  for (const auto& [dim, agg] : metrics) {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  " %s{n=%zu mean=%.3f p50=%.3f p99=%.3f}",
                  DqDimensionName(dim), agg.count, agg.mean, agg.p50,
                  agg.p99);
    out += buf;
  }
  return out;
}

FleetRunner::FleetRunner(const TrajectoryPipeline* pipeline, Options options)
    : pipeline_(pipeline), options_(options) {}

FleetResult FleetRunner::Run(const std::vector<Trajectory>& fleet) const {
  return RunInternal(fleet, nullptr, nullptr);
}

FleetResult FleetRunner::RunProfiled(const std::vector<Trajectory>& fleet,
                                     const std::vector<Trajectory>* truths,
                                     const TrajectoryProfiler& profiler) const {
  return RunInternal(fleet, truths, &profiler);
}

FleetResult FleetRunner::RunInternal(const std::vector<Trajectory>& fleet,
                                     const std::vector<Trajectory>* truths,
                                     const TrajectoryProfiler* profiler) const {
  FleetResult result;
  const size_t n = fleet.size();
  result.cleaned.resize(n);
  result.statuses.assign(
      n, Status::Cancelled("shard skipped: fleet cancelled after an earlier "
                           "stage failure"));
  if (n == 0) {
    result.statuses.clear();
    return result;
  }

  // Shard s is the contiguous index range [s*shard_size,
  // min(n, (s+1)*shard_size)).
  const size_t shard_size = std::max<size_t>(1, options_.shard_size);
  result.shards_total = (n + shard_size - 1) / shard_size;

  // Per-trajectory profiling output, merged after the join so aggregation
  // order never depends on scheduling.
  std::vector<std::vector<StageReport>> all_reports;
  if (profiler != nullptr) all_reports.resize(n);
  // Per-trajectory resilience traces, likewise merged after the join.
  std::vector<RunTrace> traces(n);

  const bool retry_enabled = options_.retry.max_retries > 0;
  const Clock* wall_clock = SteadyClock::Global();

  const obs::ObsSinks sinks =
      options_.obs != nullptr ? *options_.obs : obs::ObsSinks{};
  const bool has_obs = sinks.metrics != nullptr || sinks.tracer != nullptr;
  // The stop rule never fires at a fraction >= 1.0. Only then are the
  // quarantine/degrade tallies pure functions of the inputs; otherwise
  // *which* objects ran depends on scheduling and the tallies go volatile.
  const double fraction = options_.max_quarantine_fraction;
  const bool clean_everything = fraction >= 1.0;
  const obs::MetricStability count_stability =
      clean_everything ? obs::MetricStability::kDeterministic
                       : obs::MetricStability::kVolatile;
  const obs::MetricStability timing_stability =
      options_.virtual_time ? obs::MetricStability::kDeterministic
                            : obs::MetricStability::kVolatile;
  // The fleet-level span gets its own virtual clock pinned at 0 (worker
  // wall time must not leak into a deterministic trace); under real time
  // it shares the wall clock.
  VirtualClock fleet_vclock;
  const Clock* fleet_clock = options_.virtual_time
                                 ? static_cast<const Clock*>(&fleet_vclock)
                                 : wall_clock;
  obs::TraceSpan fleet_span(sinks.tracer, fleet_clock, obs::kProcessKey,
                            "fleet.run", "fleet");
  // Stop-rule arithmetic: quarantine count that, once *exceeded*, trips.
  // A fraction that is not > 0 (negative, zero, NaN) trips at the first
  // failure; the cast below only ever sees a value in (0, n).
  size_t breaker_limit = 0;
  if (clean_everything) {
    breaker_limit = n;
  } else if (fraction > 0.0) {
    breaker_limit = static_cast<size_t>(fraction * static_cast<double>(n));
  }

  std::atomic<bool> cancelled{false};
  std::atomic<bool> breaker_tripped{false};
  std::atomic<size_t> shards_cancelled{0};
  std::atomic<size_t> quarantined_count{0};

  // Each shard writes only its own indices of cleaned/statuses/
  // all_reports/traces; the ParallelFor join publishes those writes to this
  // thread.
  auto run_shard = [&](size_t s) {
    if (cancelled.load(std::memory_order_acquire)) {
      shards_cancelled.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    // One observer per shard: it caches metric handles and span names
    // across the shard's objects and flushes its buffered spans to the
    // tracer in a single batch when it goes out of scope.
    obs::PipelineObserver observer(sinks, options_.virtual_time);
    obs::Histogram object_duration_hist =
        sinks.metrics != nullptr
            ? sinks.metrics->histogram(
                  "fleet.object.duration_ms",
                  obs::MetricsRegistry::DurationBucketsMs(),
                  timing_stability)
            : obs::Histogram();
    const size_t end = std::min(n, (s + 1) * shard_size);
    for (size_t i = s * shard_size; i < end; ++i) {
      const ObjectId id = fleet[i].object_id();
      Rng rng = Rng::ForKey(options_.base_seed, id);
      Rng retry_rng =
          Rng::ForKey(options_.base_seed ^ kRetryStreamSalt, id);
      // Virtual time gives every object a private clock starting at 0:
      // injected stalls and backoffs advance only this object's time, so
      // deadline decisions are identical for any worker count.
      VirtualClock vclock;
      const Clock* clock =
          options_.virtual_time ? static_cast<const Clock*>(&vclock)
                                : wall_clock;
      const ExecContext exec =
          ExecContext::After(clock, options_.deadline_ms, &cancelled);
      StageContext ctx;
      ctx.rng = &rng;
      ctx.retry_rng = &retry_rng;
      ctx.exec = &exec;
      ctx.retry = retry_enabled ? &options_.retry : nullptr;
      ctx.trace = &traces[i];

      if (has_obs) {
        observer.BeginObject(id, clock);
        ctx.obs = &observer;
      }
      const int64_t object_start_ms = clock->NowMs();

      StatusOr<Trajectory> out =
          profiler != nullptr
              ? pipeline_->RunProfiled(
                    fleet[i],
                    truths != nullptr ? &(*truths)[i] : nullptr, *profiler,
                    &all_reports[i], ctx)
              : pipeline_->Run(fleet[i], ctx);
      if (has_obs) {
        object_duration_hist.Record(
            static_cast<double>(clock->NowMs() - object_start_ms));
        observer.EndObject(
            out.ok() ? (traces[i].degraded.empty() ? "full" : "degraded")
                     : "failed");
      }
      if (out.ok()) {
        result.cleaned[i] = std::move(out).value();
        result.statuses[i] = Status::OK();
      } else {
        result.statuses[i] = out.status();
        if (out.status().code() != StatusCode::kCancelled) {
          const size_t q =
              quarantined_count.fetch_add(1, std::memory_order_relaxed) + 1;
          if (q > breaker_limit) {
            breaker_tripped.store(true, std::memory_order_relaxed);
            cancelled.store(true, std::memory_order_release);
          }
        }
      }
    }
  };

  size_t num_threads =
      options_.num_threads > 0 ? static_cast<size_t>(options_.num_threads) : 0;
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  ParallelFor(result.shards_total, num_threads, run_shard);

  result.shards_cancelled = shards_cancelled.load(std::memory_order_relaxed);
  result.breaker_tripped = breaker_tripped.load(std::memory_order_relaxed);

  // Per-object annotations, built after the join in input-index order so
  // the vector is deterministic regardless of scheduling. Objects that
  // cleaned at full fidelity on the first attempt produce no entry.
  for (size_t i = 0; i < n; ++i) {
    const RunTrace& tr = traces[i];
    const Status& st = result.statuses[i];
    if (st.ok() && tr.retries == 0 && tr.degraded.empty()) continue;
    ObjectAnnotation a;
    a.index = i;
    a.id = fleet[i].object_id();
    a.retries = tr.retries;
    a.degraded = tr.degraded;
    a.status = st;
    if (!st.ok()) {
      a.quality = ExecQuality::kQuarantined;
      ++result.objects_quarantined;
    } else if (!tr.degraded.empty()) {
      a.quality = ExecQuality::kDegraded;
      ++result.objects_degraded;
    }
    result.retries_total += static_cast<size_t>(tr.retries);
    result.annotations.push_back(std::move(a));
  }

  // First-error-wins, resolved by input index for determinism.
  for (size_t i = 0; i < n; ++i) {
    const Status& st = result.statuses[i];
    if (!st.ok() && st.code() != StatusCode::kCancelled) {
      result.first_error = st;
      break;
    }
  }

  if (sinks.metrics != nullptr) {
    sinks.metrics->gauge("fleet.objects.total")
        .Set(static_cast<int64_t>(n));
    sinks.metrics->gauge("fleet.shards.total")
        .Set(static_cast<int64_t>(result.shards_total));
    sinks.metrics
        ->gauge("fleet.shards.cancelled", obs::MetricStability::kVolatile)
        .Set(static_cast<int64_t>(result.shards_cancelled));
    sinks.metrics->gauge("fleet.objects.quarantined", count_stability)
        .Set(static_cast<int64_t>(result.objects_quarantined));
    sinks.metrics->gauge("fleet.objects.degraded", count_stability)
        .Set(static_cast<int64_t>(result.objects_degraded));
    sinks.metrics->gauge("fleet.retries.total", count_stability)
        .Set(static_cast<int64_t>(result.retries_total));
    sinks.metrics->gauge("fleet.breaker_tripped", count_stability)
        .Set(result.breaker_tripped ? 1 : 0);
  }
  fleet_span.set_note(result.ResilienceSummary());
  fleet_span.Finish();

  if (profiler != nullptr) {
    const size_t num_stage_slots = pipeline_->num_stages() + 1;
    result.stage_stats.resize(num_stage_slots);
    for (size_t s = 0; s < num_stage_slots; ++s) {
      FleetStageStats& stats = result.stage_stats[s];
      std::map<DqDimension, std::vector<double>> samples;
      for (size_t i = 0; i < n; ++i) {
        if (all_reports[i].size() <= s) continue;
        const StageReport& sr = all_reports[i][s];
        if (stats.stage_name.empty()) stats.stage_name = sr.stage_name;
        for (const auto& [dim, value] : sr.report.metrics()) {
          samples[dim].push_back(value);
        }
      }
      for (auto& [dim, values] : samples) {
        std::sort(values.begin(), values.end());
        MetricAggregate agg;
        agg.count = values.size();
        double sum = 0.0;
        for (double v : values) sum += v;
        agg.mean = sum / static_cast<double>(values.size());
        agg.p50 = Percentile(values, 0.50);
        agg.p99 = Percentile(values, 0.99);
        stats.metrics[dim] = agg;
      }
    }
  }

  return result;
}

}  // namespace exec
}  // namespace sidq
