#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/mutex.h"
#include "core/thread_annotations.h"

namespace sidq {
namespace obs {

// -------------------------------------------------------------------------
// MetricsRegistry: counters, gauges, and fixed-bucket histograms, safe to
// write from FleetRunner workers. Writes are lock-free: each metric keeps
// kStripes cache-line-padded atomic shards and a writing thread touches only
// its own stripe (relaxed fetch_add), so eight workers hammering one counter
// never contend on a line. Snapshot() merges the stripes.
//
// Determinism contract (DESIGN.md "Observability"): a metric is either
//   kDeterministic -- its merged value is a pure function of (inputs, seeds,
//     config) under virtual time: counters/gauges of discrete events, and
//     histograms fed integer-valued samples (integer doubles sum exactly in
//     any stripe order, so even the float `sum` field is reproducible);
//   kVolatile -- its value depends on OS scheduling (how many shards a
//     fleet stop skipped, wall-clock durations). Volatile metrics are excluded from snapshots
//     unless SnapshotOptions::include_volatile is set, so the default
//     export is byte-identical across runs and worker counts -- the
//     property the golden-trace tests pin.
// -------------------------------------------------------------------------

enum class MetricKind : int { kCounter = 0, kGauge, kHistogram };

enum class MetricStability : int {
  kDeterministic = 0,  // pure function of inputs under virtual time
  kVolatile,           // scheduling-dependent; excluded from golden snapshots
};

namespace internal_metrics {

inline constexpr size_t kStripes = 16;

// Stable per-thread stripe index in [0, kStripes).
size_t ThreadStripe();

struct alignas(64) CounterStripe {
  std::atomic<int64_t> value{0};
};

struct CounterCell {
  std::string name;
  MetricStability stability = MetricStability::kDeterministic;
  CounterStripe stripes[kStripes];
};

struct GaugeCell {
  std::string name;
  MetricStability stability = MetricStability::kDeterministic;
  std::atomic<int64_t> value{0};
};

struct alignas(64) HistogramStripe {
  // counts[i] covers bounds[i-1] < v <= bounds[i]; one extra overflow slot.
  // Raw atomic array (atomics are immovable, so no std::vector).
  std::unique_ptr<std::atomic<int64_t>[]> counts;
  std::atomic<double> sum{0.0};
  std::atomic<double> max{-std::numeric_limits<double>::infinity()};
};

struct HistogramCell {
  std::string name;
  MetricStability stability = MetricStability::kDeterministic;
  std::vector<double> bounds;  // strictly increasing, finite
  HistogramStripe stripes[kStripes];
  // Set when the cell saw a non-finite sample or was registered with
  // invalid bounds; the JSON exporter turns this into a Status error
  // instead of emitting NaN/Inf (which is not valid JSON).
  std::atomic<bool> invalid{false};
};

}  // namespace internal_metrics

// Lightweight handles. Default-constructed handles are detached no-ops, so
// instrumented code needs no null checks when observability is off.
class Counter {
 public:
  Counter() = default;
  void Increment(int64_t n = 1) const {
    if (cell_ == nullptr) return;
    cell_->stripes[internal_metrics::ThreadStripe()].value.fetch_add(
        n, std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  explicit Counter(internal_metrics::CounterCell* cell) : cell_(cell) {}
  internal_metrics::CounterCell* cell_ = nullptr;
};

class Gauge {
 public:
  Gauge() = default;
  void Set(int64_t v) const {
    if (cell_ != nullptr) cell_->value.store(v, std::memory_order_relaxed);
  }
  void Add(int64_t n) const {
    if (cell_ != nullptr) cell_->value.fetch_add(n, std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  explicit Gauge(internal_metrics::GaugeCell* cell) : cell_(cell) {}
  internal_metrics::GaugeCell* cell_ = nullptr;
};

class Histogram {
 public:
  Histogram() = default;
  // Records one sample. Non-finite samples mark the histogram invalid
  // (surfaced as a Status error at export) rather than poisoning the sums.
  void Record(double v) const;

 private:
  friend class MetricsRegistry;
  explicit Histogram(internal_metrics::HistogramCell* cell) : cell_(cell) {}
  internal_metrics::HistogramCell* cell_ = nullptr;
};

// Merged point-in-time values, canonical: every vector sorted by name.
struct CounterValue {
  std::string name;
  int64_t value = 0;
  MetricStability stability = MetricStability::kDeterministic;
};

struct GaugeValue {
  std::string name;
  int64_t value = 0;
  MetricStability stability = MetricStability::kDeterministic;
};

struct HistogramValue {
  std::string name;
  std::vector<double> bounds;        // finite upper bucket bounds
  std::vector<int64_t> bucket_counts;  // bounds.size() entries
  int64_t overflow = 0;              // samples above the last bound
  int64_t count = 0;
  double sum = 0.0;
  double max = 0.0;  // largest recorded sample (0 when empty)
  // Nearest-rank percentiles resolved against bucket upper bounds; a
  // percentile landing in the overflow bucket reports `max`.
  double p50 = 0.0;
  double p99 = 0.0;
  bool invalid = false;  // saw NaN/Inf samples or bad bounds
  MetricStability stability = MetricStability::kDeterministic;
};

struct MetricsSnapshot {
  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;
};

struct SnapshotOptions {
  // Include kVolatile metrics (scheduling-dependent values). Off by
  // default so snapshots are deterministic and golden-testable.
  bool include_volatile = false;
};

// The registry. Handle lookup takes a shared lock (exclusive only when a
// name is first registered); handle writes are lock-free stripe updates.
// Cells live in deques, so handles stay valid for the registry's lifetime.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Returns the handle for `name`, registering it on first use. Re-asking
  // with a different kind (or, for histograms, different bounds) returns a
  // detached handle and records a registration error surfaced by
  // registration_error().
  Counter counter(const std::string& name,
                  MetricStability stability = MetricStability::kDeterministic)
      SIDQ_EXCLUDES(mu_);
  Gauge gauge(const std::string& name,
              MetricStability stability = MetricStability::kDeterministic)
      SIDQ_EXCLUDES(mu_);
  // `bounds` are upper bucket limits, strictly increasing and finite;
  // invalid bounds mark the histogram invalid (export then fails loudly).
  Histogram histogram(
      const std::string& name, std::vector<double> bounds,
      MetricStability stability = MetricStability::kDeterministic)
      SIDQ_EXCLUDES(mu_);

  // Common duration bucket bounds (milliseconds, 1 .. 10s).
  static std::vector<double> DurationBucketsMs();

  [[nodiscard]] MetricsSnapshot Snapshot(SnapshotOptions options = {}) const
      SIDQ_EXCLUDES(mu_);

  // First kind/bounds-mismatch registration error, empty when clean.
  [[nodiscard]] std::string registration_error() const SIDQ_EXCLUDES(mu_);

 private:
  struct Entry {
    MetricKind kind;
    size_t index;  // into the kind's deque
  };

  // mu_ guards the registry *structure* (name table, cell deques,
  // registration error) -- shared for lookup/snapshot, exclusive for
  // first-use registration. Cell *contents* (the striped atomics) are
  // deliberately outside the capability: handles write them lock-free
  // through raw pointers, which stay valid because deque elements never
  // move. by_name_ is looked up, never iterated: canonical snapshot order
  // comes from an explicit sort (lint rule R11).
  mutable SharedMutex mu_;
  std::unordered_map<std::string, Entry> by_name_ SIDQ_GUARDED_BY(mu_);
  std::deque<internal_metrics::CounterCell> counters_ SIDQ_GUARDED_BY(mu_);
  std::deque<internal_metrics::GaugeCell> gauges_ SIDQ_GUARDED_BY(mu_);
  std::deque<internal_metrics::HistogramCell> histograms_
      SIDQ_GUARDED_BY(mu_);
  std::string registration_error_ SIDQ_GUARDED_BY(mu_);
};

}  // namespace obs
}  // namespace sidq
