// Observability layer tests: MetricsRegistry semantics (striped merge
// exactness, percentile resolution, stability filtering, registration
// conflicts), canonical JSON export (round-trip byte identity, loud
// NaN/Inf rejection), PipelineObserver span/metric bridging, and the
// chaos-seed accounting property -- the pipeline.retry.attempts counter
// and fleet.objects.quarantined gauge must agree exactly with the fleet
// result's own annotations for any seed.

#include <algorithm>
#include <cctype>
#include <cmath>
#include <limits>
#include <string>
#include <thread>  // registry merge-exactness stress
#include <vector>

#include <gtest/gtest.h>

#include "core/clock.h"
#include "core/failpoint.h"
#include "core/pipeline.h"
#include "core/random.h"
#include "core/status.h"
#include "core/trajectory.h"
#include "exec/fleet_runner.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/observer.h"
#include "obs/trace.h"

namespace sidq {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::Histogram;
using obs::MetricsRegistry;
using obs::MetricsSnapshot;
using obs::MetricStability;
using obs::ObsSinks;
using obs::PipelineObserver;
using obs::SnapshotOptions;
using obs::SpanRecord;
using obs::Tracer;

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, CounterMergesAcrossHandleCopies) {
  MetricsRegistry reg;
  Counter a = reg.counter("events");
  Counter b = reg.counter("events");  // same cell, second handle
  a.Increment();
  b.Increment(41);

  const MetricsSnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].name, "events");
  EXPECT_EQ(snap.counters[0].value, 42);
}

TEST(MetricsRegistryTest, DetachedHandlesAreNoOps) {
  // Default-constructed handles must absorb writes silently -- this is the
  // "observability off" path in instrumented code.
  Counter c;
  Gauge g;
  Histogram h;
  c.Increment();
  g.Set(7);
  g.Add(1);
  h.Record(1.0);
}

TEST(MetricsRegistryTest, GaugeSetAndAdd) {
  MetricsRegistry reg;
  Gauge g = reg.gauge("depth");
  g.Set(10);
  g.Add(-3);
  const MetricsSnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].value, 7);
}

TEST(MetricsRegistryTest, HistogramBucketsPercentilesAndOverflow) {
  MetricsRegistry reg;
  Histogram h = reg.histogram("latency", {1.0, 2.0, 5.0, 10.0});
  // 1 sample <= 1, 2 samples in (1,2], 4 in (2,5], 2 in (5,10], 1 overflow.
  for (double v : {0.5, 1.5, 2.0, 3.0, 3.0, 4.0, 5.0, 6.0, 9.0, 25.0}) {
    h.Record(v);
  }

  const MetricsSnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  const obs::HistogramValue& v = snap.histograms[0];
  EXPECT_EQ(v.bucket_counts, (std::vector<int64_t>{1, 2, 4, 2}));
  EXPECT_EQ(v.overflow, 1);
  EXPECT_EQ(v.count, 10);
  EXPECT_DOUBLE_EQ(v.sum, 0.5 + 1.5 + 2.0 + 3.0 + 3.0 + 4.0 + 5.0 + 6.0 +
                              9.0 + 25.0);
  EXPECT_DOUBLE_EQ(v.max, 25.0);
  // Nearest-rank against bucket upper bounds: rank 5 of 10 lands in the
  // (2,5] bucket; rank 10 lands in overflow, which reports max.
  EXPECT_DOUBLE_EQ(v.p50, 5.0);
  EXPECT_DOUBLE_EQ(v.p99, 25.0);
  EXPECT_FALSE(v.invalid);
}

TEST(MetricsRegistryTest, EmptyHistogramReportsZeros) {
  MetricsRegistry reg;
  // sidq: allow-ignored-status(registration only; handle unused)
  (void)reg.histogram("empty", {1.0, 10.0});
  const MetricsSnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, 0);
  EXPECT_DOUBLE_EQ(snap.histograms[0].max, 0.0);
  EXPECT_DOUBLE_EQ(snap.histograms[0].p50, 0.0);
  EXPECT_DOUBLE_EQ(snap.histograms[0].p99, 0.0);
}

TEST(MetricsRegistryTest, KindMismatchReturnsDetachedAndRecordsError) {
  MetricsRegistry reg;
  reg.counter("x").Increment();
  Gauge wrong = reg.gauge("x");  // name already taken by a counter
  wrong.Set(99);                 // must be a no-op, not a type-punned write

  EXPECT_FALSE(reg.registration_error().empty());
  const MetricsSnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].value, 1);
  EXPECT_TRUE(snap.gauges.empty());
}

TEST(MetricsRegistryTest, HistogramBoundsMismatchMarksInvalid) {
  MetricsRegistry reg;
  // sidq: allow-ignored-status(registration only; handle unused)
  (void)reg.histogram("h", {1.0, 2.0});
  // sidq: allow-ignored-status(registration only; handle unused)
  (void)reg.histogram("h", {1.0, 3.0});  // different bounds
  EXPECT_FALSE(reg.registration_error().empty());
  const MetricsSnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_TRUE(snap.histograms[0].invalid);
}

TEST(MetricsRegistryTest, NonIncreasingBoundsAreInvalid) {
  MetricsRegistry reg;
  // sidq: allow-ignored-status(registration only; handle unused)
  (void)reg.histogram("bad", {5.0, 5.0});
  const MetricsSnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_TRUE(snap.histograms[0].invalid);
}

TEST(MetricsRegistryTest, VolatileMetricsExcludedFromDefaultSnapshot) {
  MetricsRegistry reg;
  reg.counter("det").Increment();
  reg.counter("vol", MetricStability::kVolatile).Increment();
  reg.gauge("vol.g", MetricStability::kVolatile).Set(3);
  reg.histogram("vol.h", {1.0}, MetricStability::kVolatile).Record(0.5);

  const MetricsSnapshot def = reg.Snapshot();
  ASSERT_EQ(def.counters.size(), 1u);
  EXPECT_EQ(def.counters[0].name, "det");
  EXPECT_TRUE(def.gauges.empty());
  EXPECT_TRUE(def.histograms.empty());

  SnapshotOptions all;
  all.include_volatile = true;
  const MetricsSnapshot full = reg.Snapshot(all);
  EXPECT_EQ(full.counters.size(), 2u);
  EXPECT_EQ(full.gauges.size(), 1u);
  EXPECT_EQ(full.histograms.size(), 1u);
}

TEST(MetricsRegistryTest, SnapshotIsSortedByName) {
  MetricsRegistry reg;
  reg.counter("zebra").Increment();
  reg.counter("alpha").Increment();
  reg.counter("mid").Increment();
  const MetricsSnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[0].name, "alpha");
  EXPECT_EQ(snap.counters[1].name, "mid");
  EXPECT_EQ(snap.counters[2].name, "zebra");
}

// The merge-exactness property behind the determinism contract: N threads
// hammering one counter and one histogram through striped relaxed atomics
// lose nothing -- Snapshot() equals the arithmetic total. (The heavier
// exec::ParallelFor version runs in exec_stress_test.cc under TSan.)
TEST(MetricsRegistryTest, ConcurrentWritesMergeExactly) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;

  // sidq: allow-stray-thread(raw threads stress the registry without pool scheduling)
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, t] {
      // Each thread re-resolves its handles (shared-lock path) like a
      // fleet shard does, then writes lock-free.
      Counter c = reg.counter("hits");
      Histogram h = reg.histogram("samples", {10.0, 100.0, 1000.0});
      for (int i = 0; i < kPerThread; ++i) {
        c.Increment();
        h.Record(static_cast<double>((t * kPerThread + i) % 500));
      }
    });
  }
  // sidq: allow-stray-thread(joining the stress threads spawned above)
  for (std::thread& th : threads) th.join();

  const MetricsSnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].value, kThreads * kPerThread);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, kThreads * kPerThread);
  // Integer-valued samples sum exactly in any stripe/interleaving order.
  double expected_sum = 0.0;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      expected_sum += static_cast<double>((t * kPerThread + i) % 500);
    }
  }
  EXPECT_DOUBLE_EQ(snap.histograms[0].sum, expected_sum);
  EXPECT_DOUBLE_EQ(snap.histograms[0].max, 499.0);
}

// ---------------------------------------------------------------------------
// Canonical JSON export + round-trip
// ---------------------------------------------------------------------------

// Minimal JSON reader for the round-trip tests. Numbers and strings are
// kept as raw source tokens, so re-serialization is a pure concatenation:
// if the exporter emits canonical JSON (fixed key order, no whitespace,
// shortest-round-trip doubles), parse + reprint must be byte-identical.
struct MiniJson {
  enum Kind { kObject, kArray, kString, kNumber, kBool, kNull };
  Kind kind = kNull;
  std::string raw;  // kString (with quotes), kNumber, kBool literal
  std::vector<std::pair<std::string, MiniJson>> members;  // kObject
  std::vector<MiniJson> items;                            // kArray
};

class MiniJsonParser {
 public:
  explicit MiniJsonParser(const std::string& text) : text_(text) {}

  bool Parse(MiniJson* out) {
    pos_ = 0;
    return ParseValue(out) && pos_ == text_.size();
  }

 private:
  bool ParseValue(MiniJson* out) {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
        return ParseObject(out);
      case '[':
        return ParseArray(out);
      case '"':
        out->kind = MiniJson::kString;
        return ParseRawString(&out->raw);
      case 't':
      case 'f':
        return ParseLiteral(out);
      case 'n':
        return ParseLiteral(out);
      default:
        out->kind = MiniJson::kNumber;
        return ParseRawNumber(&out->raw);
    }
  }

  bool ParseObject(MiniJson* out) {
    out->kind = MiniJson::kObject;
    ++pos_;  // '{'
    if (Peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      std::string key;
      if (Peek() != '"' || !ParseRawString(&key)) return false;
      if (Peek() != ':') return false;
      ++pos_;
      MiniJson value;
      if (!ParseValue(&value)) return false;
      out->members.emplace_back(std::move(key), std::move(value));
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool ParseArray(MiniJson* out) {
    out->kind = MiniJson::kArray;
    ++pos_;  // '['
    if (Peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      MiniJson value;
      if (!ParseValue(&value)) return false;
      out->items.push_back(std::move(value));
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  // Raw string token including both quotes; validates escapes.
  bool ParseRawString(std::string* out) {
    const size_t start = pos_;
    ++pos_;  // opening quote
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (static_cast<unsigned char>(text_[pos_]) < 0x20) return false;
      if (text_[pos_] == '\\') {
        if (pos_ + 1 >= text_.size()) return false;
        const char e = text_[pos_ + 1];
        if (e == 'u') {
          if (pos_ + 5 >= text_.size()) return false;
          for (size_t i = pos_ + 2; i < pos_ + 6; ++i) {
            if (std::isxdigit(static_cast<unsigned char>(text_[i])) == 0) {
              return false;
            }
          }
          pos_ += 6;
          continue;
        }
        if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
        pos_ += 2;
        continue;
      }
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    out->assign(text_, start, pos_ - start);
    return true;
  }

  bool ParseRawNumber(std::string* out) {
    const size_t start = pos_;
    if (Peek() == '-') ++pos_;
    if (std::isdigit(static_cast<unsigned char>(Peek())) == 0) return false;
    while (std::isdigit(static_cast<unsigned char>(Peek())) != 0) ++pos_;
    if (Peek() == '.') {
      ++pos_;
      if (std::isdigit(static_cast<unsigned char>(Peek())) == 0) return false;
      while (std::isdigit(static_cast<unsigned char>(Peek())) != 0) ++pos_;
    }
    if (Peek() == 'e' || Peek() == 'E') {
      ++pos_;
      if (Peek() == '+' || Peek() == '-') ++pos_;
      if (std::isdigit(static_cast<unsigned char>(Peek())) == 0) return false;
      while (std::isdigit(static_cast<unsigned char>(Peek())) != 0) ++pos_;
    }
    out->assign(text_, start, pos_ - start);
    return !out->empty();
  }

  bool ParseLiteral(MiniJson* out) {
    for (const char* lit : {"true", "false", "null"}) {
      const size_t len = std::string(lit).size();
      if (text_.compare(pos_, len, lit) == 0) {
        out->kind = lit[0] == 'n' ? MiniJson::kNull : MiniJson::kBool;
        out->raw = lit;
        pos_ += len;
        return true;
      }
    }
    return false;
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  const std::string& text_;
  size_t pos_ = 0;
};

void Reserialize(const MiniJson& v, std::string* out) {
  switch (v.kind) {
    case MiniJson::kObject: {
      out->push_back('{');
      for (size_t i = 0; i < v.members.size(); ++i) {
        if (i > 0) out->push_back(',');
        out->append(v.members[i].first);
        out->push_back(':');
        Reserialize(v.members[i].second, out);
      }
      out->push_back('}');
      return;
    }
    case MiniJson::kArray: {
      out->push_back('[');
      for (size_t i = 0; i < v.items.size(); ++i) {
        if (i > 0) out->push_back(',');
        Reserialize(v.items[i], out);
      }
      out->push_back(']');
      return;
    }
    default:
      out->append(v.raw);
      return;
  }
}

::testing::AssertionResult RoundTripsByteIdentical(const std::string& json) {
  MiniJson root;
  MiniJsonParser parser(json);
  if (!parser.Parse(&root)) {
    return ::testing::AssertionFailure() << "not valid JSON: " << json;
  }
  std::string again;
  Reserialize(root, &again);
  if (again != json) {
    return ::testing::AssertionFailure()
           << "round trip changed bytes:\n  in:  " << json
           << "\n  out: " << again;
  }
  return ::testing::AssertionSuccess();
}

TEST(ObsExportTest, MetricsJsonRoundTripsByteIdentical) {
  MetricsRegistry reg;
  reg.counter("pipeline.stage.runs.smooth").Increment(12);
  reg.gauge("fleet.objects.total").Set(-3);
  Histogram h = reg.histogram("d", {0.5, 2.0, 10.0});
  for (double v : {0.25, 0.75, 1.5, 3.0, 100.0}) h.Record(v);

  const StatusOr<std::string> json = obs::MetricsToJson(reg.Snapshot());
  ASSERT_TRUE(json.ok()) << json.status();
  EXPECT_TRUE(RoundTripsByteIdentical(*json));
  // Canonical: no whitespace anywhere outside strings.
  EXPECT_EQ(json->find(' '), std::string::npos);
  EXPECT_EQ(json->find('\n'), std::string::npos);
}

TEST(ObsExportTest, EmptySnapshotExports) {
  const StatusOr<std::string> json = obs::MetricsToJson(MetricsSnapshot{});
  ASSERT_TRUE(json.ok()) << json.status();
  EXPECT_TRUE(RoundTripsByteIdentical(*json));
}

// Fuzz-ish sweep: randomized registries (names with escape-worthy
// characters, negative and fractional values, empty and deep histograms)
// must always produce JSON the minimal validator accepts and reprints
// byte-identically. Seeded -> reproducible on failure.
TEST(ObsExportTest, RandomSnapshotsAlwaysRoundTrip) {
  for (uint64_t seed = 0; seed < 24; ++seed) {
    Rng rng(seed);
    MetricsRegistry reg;
    const int counters = static_cast<int>(rng.Uniform(0.0, 5.0));
    for (int i = 0; i < counters; ++i) {
      reg.counter("c\"\\\t" + std::to_string(i))
          .Increment(static_cast<int64_t>(rng.Uniform(-1e6, 1e6)));
    }
    const int gauges = static_cast<int>(rng.Uniform(0.0, 4.0));
    for (int i = 0; i < gauges; ++i) {
      reg.gauge("g\n" + std::to_string(i))
          .Set(static_cast<int64_t>(rng.Uniform(-1e9, 1e9)));
    }
    const int hists = static_cast<int>(rng.Uniform(0.0, 3.0));
    for (int i = 0; i < hists; ++i) {
      std::vector<double> bounds;
      double b = rng.Uniform(0.001, 1.0);
      const int nb = 1 + static_cast<int>(rng.Uniform(0.0, 6.0));
      for (int k = 0; k < nb; ++k) {
        bounds.push_back(b);
        b += rng.Uniform(0.001, 50.0);
      }
      // Two-step append instead of `"h" + std::to_string(i)`: GCC 12's
      // -Wrestrict false-positives on const char* + string&& at -O2+.
      std::string hist_name = "h";
      hist_name += std::to_string(i);
      Histogram h = reg.histogram(hist_name, bounds);
      const int samples = static_cast<int>(rng.Uniform(0.0, 40.0));
      for (int s = 0; s < samples; ++s) {
        h.Record(rng.Uniform(-10.0, 120.0));
      }
    }
    const StatusOr<std::string> json = obs::MetricsToJson(reg.Snapshot());
    ASSERT_TRUE(json.ok()) << "seed " << seed << ": " << json.status();
    EXPECT_TRUE(RoundTripsByteIdentical(*json)) << "seed " << seed;
  }
}

TEST(ObsExportTest, NanSampleFailsExportLoudly) {
  MetricsRegistry reg;
  reg.histogram("h", {1.0}).Record(std::numeric_limits<double>::quiet_NaN());
  const StatusOr<std::string> json = obs::MetricsToJson(reg.Snapshot());
  ASSERT_FALSE(json.ok());
  EXPECT_EQ(json.status().code(), StatusCode::kInvalidArgument);
}

TEST(ObsExportTest, InfSampleFailsExportLoudly) {
  MetricsRegistry reg;
  reg.histogram("h", {1.0}).Record(std::numeric_limits<double>::infinity());
  const StatusOr<std::string> json = obs::MetricsToJson(reg.Snapshot());
  ASSERT_FALSE(json.ok());
  EXPECT_EQ(json.status().code(), StatusCode::kInvalidArgument);
}

TEST(ObsExportTest, ChromeTraceRoundTripsByteIdentical) {
  Tracer tracer;
  VirtualClock clock;
  {
    obs::TraceSpan span(&tracer, &clock, 7, "map_match", "stage");
    clock.Advance(12);
    span.set_note("quote \" backslash \\ tab \t done");
  }
  tracer.Instant(7, "test.site", "failpoint", &clock, "transient");
  {
    obs::TraceSpan fleet(&tracer, &clock, obs::kProcessKey, "fleet.run",
                         "fleet");
    clock.Advance(3);
  }
  const StatusOr<std::string> json =
      obs::TraceToChromeJson(tracer.CanonicalSpans());
  ASSERT_TRUE(json.ok()) << json.status();
  EXPECT_TRUE(RoundTripsByteIdentical(*json));
}

// ---------------------------------------------------------------------------
// PipelineObserver bridging
// ---------------------------------------------------------------------------

TEST(PipelineObserverTest, StageEventsBecomeMetricsAndSpans) {
  MetricsRegistry reg;
  Tracer tracer;
  ObsSinks sinks;
  sinks.metrics = &reg;
  sinks.tracer = &tracer;
  VirtualClock clock;
  {
    PipelineObserver observer(sinks);
    observer.BeginObject(5, &clock);
    observer.OnStageBegin("smooth");
    clock.Advance(4);
    observer.OnStageEnd("smooth", Status::OK());
    observer.OnStageBegin("simplify");
    observer.OnStageEnd("simplify", Status::InvalidArgument("boom"));
    observer.EndObject("failed");
  }  // destructor flushes

  const MetricsSnapshot snap = reg.Snapshot();
  auto counter_value = [&snap](const std::string& name) -> int64_t {
    for (const obs::CounterValue& c : snap.counters) {
      if (c.name == name) return c.value;
    }
    return -1;
  };
  EXPECT_EQ(counter_value("pipeline.stage.runs.smooth"), 1);
  EXPECT_EQ(counter_value("pipeline.stage.failures.smooth"), 0);
  EXPECT_EQ(counter_value("pipeline.stage.runs.simplify"), 1);
  EXPECT_EQ(counter_value("pipeline.stage.failures.simplify"), 1);

  const std::vector<SpanRecord> spans = tracer.CanonicalSpans();
  ASSERT_EQ(spans.size(), 3u);  // object root + 2 stage spans
  EXPECT_EQ(spans[0].name, "object");
  EXPECT_EQ(spans[0].category, "object");
  EXPECT_EQ(spans[0].note, "failed");
  EXPECT_EQ(spans[0].depth, 0);
  EXPECT_EQ(spans[1].name, "smooth");
  EXPECT_EQ(spans[1].category, "stage");
  EXPECT_EQ(spans[1].depth, 1);
  EXPECT_EQ(spans[1].end_ms - spans[1].start_ms, 4);
  EXPECT_EQ(spans[2].name, "simplify");
  EXPECT_EQ(spans[2].note, "InvalidArgument: boom");
  for (const SpanRecord& s : spans) {
    EXPECT_EQ(s.key, 5u);
    EXPECT_LT(s.seq, obs::kDirectSeqBase);
  }
}

TEST(PipelineObserverTest, CleanFirstAttemptsAreElided) {
  MetricsRegistry reg;
  Tracer tracer;
  ObsSinks sinks;
  sinks.metrics = &reg;
  sinks.tracer = &tracer;
  VirtualClock clock;
  {
    PipelineObserver observer(sinks);
    observer.BeginObject(1, &clock);
    // Attempt 0 succeeds: implied by the stage span, no attempt span.
    observer.OnStageBegin("a");
    observer.OnAttemptBegin("a", 0);
    observer.OnAttemptEnd("a", 0, Status::OK());
    observer.OnStageEnd("a", Status::OK());
    // Attempt 0 fails, retry, attempt 1 succeeds: both attempts recorded.
    observer.OnStageBegin("b");
    observer.OnAttemptBegin("b", 0);
    observer.OnAttemptEnd("b", 0, Status::Unavailable("flaky"));
    observer.OnRetry("b", 0, 25);
    observer.OnAttemptBegin("b", 1);
    observer.OnAttemptEnd("b", 1, Status::OK());
    observer.OnStageEnd("b", Status::OK());
    observer.EndObject("full");
  }

  std::vector<std::string> names;
  for (const SpanRecord& s : tracer.CanonicalSpans()) {
    names.push_back(s.category + ":" + s.name);
  }
  EXPECT_EQ(names, (std::vector<std::string>{
                       "object:object", "stage:a", "stage:b", "attempt:b#0",
                       "retry:b", "attempt:b#1"}));

  const MetricsSnapshot snap = reg.Snapshot();
  for (const obs::CounterValue& c : snap.counters) {
    if (c.name == "pipeline.retry.attempts") {
      EXPECT_EQ(c.value, 1);
    }
  }
}

TEST(PipelineObserverTest, DegradeEventsCountAndAnnotate) {
  MetricsRegistry reg;
  ObsSinks sinks;
  sinks.metrics = &reg;
  VirtualClock clock;
  PipelineObserver observer(sinks);
  observer.BeginObject(2, &clock);
  observer.OnDegrade("map_match", 1, "greedy", Status::Unavailable("x"));
  observer.OnDegrade("map_match", 2, "passthrough", Status::Unavailable("y"));
  observer.EndObject("degraded");

  const MetricsSnapshot snap = reg.Snapshot();
  bool found = false;
  for (const obs::CounterValue& c : snap.counters) {
    if (c.name == "pipeline.degrade.falls") {
      EXPECT_EQ(c.value, 2);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------------
// Chaos accounting property
// ---------------------------------------------------------------------------

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

TrajectoryPipeline MakeChaosPipeline() {
  TrajectoryPipeline pipeline;
  pipeline.AddCtx("gateway",
                  [](const Trajectory& in, const StageContext& ctx)
                      -> StatusOr<Trajectory> {
                    SIDQ_RETURN_IF_ERROR(MaybeInjectFailPoint(
                        "obs.test.gateway", in.object_id(), ctx.exec));
                    return in;
                  });
  pipeline.AddCtx("decoder",
                  [](const Trajectory& in, const StageContext& ctx)
                      -> StatusOr<Trajectory> {
                    SIDQ_RETURN_IF_ERROR(MaybeInjectFailPoint(
                        "obs.test.decoder", in.object_id(), ctx.exec));
                    return in;
                  });
  return pipeline;
}

class ObsChaosTest : public ::testing::Test {
 protected:
  void TearDown() override { DisarmAllFailPoints(); }
};

// For ANY chaos seed: the pipeline.retry.attempts counter equals the sum of
// per-object annotation retries (and retries_total), and the
// fleet.objects.quarantined gauge equals the number of ids missing from the
// best-effort output. The instrumentation is an exact ledger of the run,
// not a sampled approximation.
TEST_F(ObsChaosTest, RetryAndQuarantineAccountingIsExact) {
  const auto fleet = MakeFleet(40, 12, 77);
  const TrajectoryPipeline pipeline = MakeChaosPipeline();

  for (const uint64_t chaos_seed : {1ull, 7ull, 0xBEEFull, 31337ull}) {
    FailPointConfig transient;
    transient.action = FailPointAction::kTransientError;
    transient.probability = 0.35;
    transient.seed = chaos_seed;
    ArmFailPoint("obs.test.gateway", transient);
    FailPointConfig permanent;
    permanent.action = FailPointAction::kPermanentError;
    permanent.probability = 0.08;
    permanent.seed = chaos_seed ^ 0x5EED;
    ArmFailPoint("obs.test.decoder", permanent);

    MetricsRegistry reg;
    ObsSinks sinks;
    sinks.metrics = &reg;
    exec::FleetRunner::Options options;
    options.num_threads = 4;
    options.shard_size = 4;
    options.base_seed = 99;
    options.max_quarantine_fraction = 1.0;  // quarantine, never stop
    options.retry.max_retries = 2;
    options.virtual_time = true;
    options.obs = &sinks;
    const exec::FleetRunner runner(&pipeline, options);
    const exec::FleetResult result = runner.Run(fleet);
    ASSERT_TRUE(result.partial_ok());

    size_t annotation_retries = 0;
    for (const exec::ObjectAnnotation& a : result.annotations) {
      annotation_retries += static_cast<size_t>(a.retries);
    }
    size_t missing_ids = 0;
    for (const Status& st : result.statuses) {
      if (!st.ok()) ++missing_ids;
    }

    const MetricsSnapshot snap = reg.Snapshot();
    int64_t retry_counter = -1;
    for (const obs::CounterValue& c : snap.counters) {
      if (c.name == "pipeline.retry.attempts") retry_counter = c.value;
    }
    int64_t quarantined_gauge = -1;
    for (const obs::GaugeValue& g : snap.gauges) {
      if (g.name == "fleet.objects.quarantined") quarantined_gauge = g.value;
    }

    EXPECT_EQ(retry_counter, static_cast<int64_t>(annotation_retries))
        << "chaos seed " << chaos_seed;
    EXPECT_EQ(retry_counter, static_cast<int64_t>(result.retries_total))
        << "chaos seed " << chaos_seed;
    EXPECT_EQ(quarantined_gauge, static_cast<int64_t>(missing_ids))
        << "chaos seed " << chaos_seed;
    EXPECT_EQ(quarantined_gauge,
              static_cast<int64_t>(result.objects_quarantined))
        << "chaos seed " << chaos_seed;
    DisarmAllFailPoints();
  }
}

TEST_F(ObsChaosTest, FailPointRecorderCountsEveryFire) {
  const auto fleet = MakeFleet(24, 8, 11);
  const TrajectoryPipeline pipeline = MakeChaosPipeline();

  FailPointConfig transient;
  transient.action = FailPointAction::kTransientError;
  transient.fail_first_n = 1;  // exactly one fire per object at the gateway
  ArmFailPoint("obs.test.gateway", transient);

  MetricsRegistry reg;
  Tracer tracer;
  ObsSinks sinks;
  sinks.metrics = &reg;
  sinks.tracer = &tracer;
  obs::ScopedFailPointObservation observation(sinks);

  exec::FleetRunner::Options options;
  options.num_threads = 2;
  options.shard_size = 4;
  options.base_seed = 5;
  options.max_quarantine_fraction = 1.0;  // quarantine, never stop
  options.retry.max_retries = 2;
  options.virtual_time = true;
  options.obs = &sinks;
  const exec::FleetRunner runner(&pipeline, options);
  const exec::FleetResult result = runner.Run(fleet);
  ASSERT_TRUE(result.partial_ok());
  // fail_first_n=1 with retries available: every object fires once, retries
  // once, and cleans.
  EXPECT_EQ(result.objects_quarantined, 0u);
  EXPECT_EQ(result.retries_total, fleet.size());

  const MetricsSnapshot snap = reg.Snapshot();
  auto counter_value = [&snap](const std::string& name) -> int64_t {
    for (const obs::CounterValue& c : snap.counters) {
      if (c.name == name) return c.value;
    }
    return -1;
  };
  EXPECT_EQ(counter_value("chaos.failpoint.fired"),
            static_cast<int64_t>(fleet.size()));
  EXPECT_EQ(counter_value("chaos.failpoint.fired.obs.test.gateway"),
            static_cast<int64_t>(fleet.size()));

  // Each fire also leaves an instant span on the firing object's timeline,
  // in the tracer's direct seq space.
  size_t failpoint_instants = 0;
  for (const SpanRecord& s : tracer.CanonicalSpans()) {
    if (s.category == "failpoint") {
      EXPECT_EQ(s.name, "obs.test.gateway");
      EXPECT_GE(s.seq, obs::kDirectSeqBase);
      ++failpoint_instants;
    }
  }
  EXPECT_EQ(failpoint_instants, fleet.size());
}

}  // namespace
}  // namespace sidq
