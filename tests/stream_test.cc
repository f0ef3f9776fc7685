// Unit tests for the streaming ingestion layer: declarative rule parsing,
// event-time watermark / window / admission semantics, the online cleaning
// operators, event-log recording and serialization, and the engine's chaos
// behaviour at the ingest and window-close failpoint sites.

#include <dlfcn.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/clock.h"
#include "obs/export.h"
#include "core/exec_context.h"
#include "core/failpoint.h"
#include "core/random.h"
#include "obs/metrics.h"
#include "outlier/online_detectors.h"
#include "refine/online_kalman.h"
#include "stream/admission.h"
#include "stream/engine.h"
#include "stream/event_log.h"
#include "stream/replay.h"
#include "stream/rules.h"
#include "stream/window.h"
#include "store/vfs.h"

// Counts calls to the global operator new, so a test can assert that a hot
// path performs no heap allocation. Each call forwards to the next
// definition in symbol lookup order (the C++ runtime's, or a sanitizer
// runtime's), so the runtime's own operator delete still matches it.
std::atomic<size_t> g_operator_new_calls{0};

void* operator new(std::size_t size) {
  using NewFn = void* (*)(std::size_t);
  // "_Znwm" is the Itanium C++ ABI name of operator new(unsigned long).
  static const NewFn next =
      reinterpret_cast<NewFn>(dlsym(RTLD_NEXT, "_Znwm"));
  g_operator_new_calls.fetch_add(1, std::memory_order_relaxed);
  return next(size);
}

namespace sidq {
namespace stream {
namespace {

StreamEvent Event(uint64_t seq, SensorId sensor, Timestamp t, double value) {
  StreamEvent ev;
  ev.seq = seq;
  ev.arrival_ms = t;
  ev.record = StRecord(sensor, t, geometry::Point(10.0, 20.0), value);
  return ev;
}

class StreamTest : public ::testing::Test {
 protected:
  void TearDown() override { DisarmAllFailPoints(); }
};

// --- rules ---

TEST(RulesTest, ParsesDefaultsOverridesAndPolicy) {
  const StatusOr<RuleSet> parsed = ParseRuleSet(
      "# pm2.5 fleet\n"
      "default range 0 500 interval 60000 lateness 120000 rate 5\n"
      "sensor 7 range -10 10 lateness 1000\n"
      "unknown-sensors quarantine\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const RuleSet& rules = *parsed;
  EXPECT_TRUE(rules.quarantine_unknown());
  EXPECT_EQ(rules.num_sensor_rules(), 1u);
  const SensorRule* seven = rules.Find(7);
  ASSERT_NE(seven, nullptr);
  EXPECT_EQ(seven->min_value, -10.0);
  EXPECT_EQ(seven->max_value, 10.0);
  // Unspecified clauses inherit the *default rule* as parsed so far.
  EXPECT_EQ(seven->expected_interval_ms, 60'000);
  EXPECT_EQ(seven->max_lateness_ms, 1000);
  EXPECT_EQ(seven->max_rate_per_s, 5.0);
  // Unknown sensor under quarantine policy: no rule.
  EXPECT_EQ(rules.Find(99), nullptr);
}

TEST(RulesTest, AdmitPolicyFallsBackToDefaultRule) {
  const StatusOr<RuleSet> parsed =
      ParseRuleSet("default range 0 100\nunknown-sensors admit\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const SensorRule* rule = parsed->Find(12345);
  ASSERT_NE(rule, nullptr);
  EXPECT_EQ(rule->max_value, 100.0);
}

TEST(RulesTest, RejectsMalformedConfigs) {
  EXPECT_FALSE(ParseRuleSet("default range 10 5\n").ok());  // min >= max
  EXPECT_FALSE(ParseRuleSet("default interval -3\n").ok());
  EXPECT_FALSE(ParseRuleSet("default jitter 9\n").ok());
  EXPECT_FALSE(ParseRuleSet("satellite 3 range 0 1\n").ok());
  EXPECT_FALSE(ParseRuleSet("unknown-sensors maybe\n").ok());
  EXPECT_FALSE(ParseRuleSet("sensor range 0 1\n").ok());  // missing id
}

// --- window indexing ---

TEST(WindowIndexTest, FloorsNegativeTimestamps) {
  EXPECT_EQ(WindowIndexOf(0, 100), 0);
  EXPECT_EQ(WindowIndexOf(99, 100), 0);
  EXPECT_EQ(WindowIndexOf(100, 100), 1);
  EXPECT_EQ(WindowIndexOf(-1, 100), -1);
  EXPECT_EQ(WindowIndexOf(-100, 100), -1);
  EXPECT_EQ(WindowIndexOf(-101, 100), -2);
}

// --- admission ---

RuleSet TightRules() {
  RuleSet rules;
  SensorRule rule;
  rule.min_value = 0.0;
  rule.max_value = 100.0;
  rule.expected_interval_ms = 1000;
  rule.max_lateness_ms = 5000;
  rules.set_default_rule(rule);
  return rules;
}

TEST(AdmissionTest, WatermarkLateBoundaryIsInclusive) {
  const RuleSet rules = TightRules();
  AdmissionFilter filter(&rules, 10'000, 100);
  EXPECT_EQ(filter.Watermark(1), kMinTimestamp);  // no admits yet
  EXPECT_TRUE(filter.Observe(Event(0, 1, 20'000, 5.0)).admitted);
  EXPECT_EQ(filter.Watermark(1), 15'000);
  // t == watermark is late (<=), watermark + 1 is admissible.
  const AdmissionDecision late = filter.Observe(Event(1, 1, 15'000, 5.0));
  EXPECT_FALSE(late.admitted);
  EXPECT_EQ(late.reason, QuarantineReason::kLate);
  EXPECT_TRUE(filter.Observe(Event(2, 1, 15'001, 5.0)).admitted);
}

TEST(AdmissionTest, WatermarkAdvancesOnlyOnAdmittedRecords) {
  const RuleSet rules = TightRules();
  AdmissionFilter filter(&rules, 10'000, 100);
  EXPECT_TRUE(filter.Observe(Event(0, 1, 1000, 5.0)).admitted);
  // A garbage out-of-range record with a far-future timestamp must not
  // drag the watermark forward and blind the sensor.
  const AdmissionDecision bad = filter.Observe(Event(1, 1, 9'000'000, 999.0));
  EXPECT_FALSE(bad.admitted);
  EXPECT_EQ(bad.reason, QuarantineReason::kOutOfRange);
  EXPECT_EQ(filter.Watermark(1), 1000 - 5000);
  EXPECT_TRUE(filter.Observe(Event(2, 1, 1500, 5.0)).admitted);
}

TEST(AdmissionTest, ChecksFireInDocumentedOrder) {
  RuleSet rules = TightRules();
  rules.set_quarantine_unknown(true);
  rules.AddRule(1, rules.default_rule());
  AdmissionFilter filter(&rules, 10'000, 2);

  EXPECT_EQ(filter.Observe(Event(0, 9, 0, 5.0)).reason,
            QuarantineReason::kUnknownSensor);
  EXPECT_EQ(filter.Observe(Event(1, 1, 0, std::nan(""))).reason,
            QuarantineReason::kNonFinite);
  EXPECT_TRUE(filter.Observe(Event(2, 1, 1000, 5.0)).admitted);
  const AdmissionDecision dup = filter.Observe(Event(3, 1, 1000, 7.0));
  EXPECT_EQ(dup.reason, QuarantineReason::kDuplicate);
  EXPECT_EQ(filter.Observe(Event(4, 1, 2000, -3.0)).reason,
            QuarantineReason::kOutOfRange);
  EXPECT_TRUE(filter.Observe(Event(5, 1, 3000, 5.0)).admitted);
  // Window (capacity 2) is full: overflow.
  EXPECT_EQ(filter.Observe(Event(6, 1, 4000, 5.0)).reason,
            QuarantineReason::kWindowOverflow);
}

TEST(AdmissionTest, ReleaseWindowReportsAndResetsDuplicates) {
  const RuleSet rules = TightRules();
  AdmissionFilter filter(&rules, 10'000, 100);
  EXPECT_TRUE(filter.Observe(Event(0, 1, 1000, 5.0)).admitted);
  EXPECT_FALSE(filter.Observe(Event(1, 1, 1000, 5.0)).admitted);
  EXPECT_FALSE(filter.Observe(Event(2, 1, 1000, 5.0)).admitted);
  EXPECT_EQ(filter.ReleaseWindow(1, 0).duplicates, 2);
  EXPECT_EQ(filter.ReleaseWindow(1, 0).duplicates, 0);  // state pruned
}

// Dedup looks only inside the event's own open window. That equals dedup
// against every admitted time because a window is released only once all
// its times are at or before the watermark: a repeat is late first.
TEST(AdmissionTest, RepeatOfAReleasedWindowsTimeIsLateNotDuplicate) {
  const RuleSet rules = TightRules();  // lateness 5000
  AdmissionFilter filter(&rules, 10'000, 100);
  EXPECT_TRUE(filter.Observe(Event(0, 1, 1000, 5.0)).admitted);
  EXPECT_EQ(filter.ReadyWindow(1, false), std::nullopt);  // watermark -4000
  EXPECT_TRUE(filter.Observe(Event(1, 1, 15'000, 5.0)).admitted);
  ASSERT_EQ(filter.ReadyWindow(1, false), std::optional<int64_t>(0));
  EXPECT_EQ(filter.Observe(Event(2, 1, 1000, 5.0)).reason,
            QuarantineReason::kLate);
  EXPECT_EQ(filter.ReleaseWindow(1, 0).events.size(), 1u);
  EXPECT_EQ(filter.Observe(Event(3, 1, 1000, 5.0)).reason,
            QuarantineReason::kLate);
  // The late repeat reopened nothing: window 1 is the only one left.
  EXPECT_EQ(filter.ReadyWindow(1, true), std::optional<int64_t>(1));
  EXPECT_EQ(filter.ReleaseWindow(1, 1).duplicates, 0);
  EXPECT_EQ(filter.ReadyWindow(1, true), std::nullopt);

  // The same through the engine, which releases window 0 as soon as the
  // second admit makes it ready.
  StreamConfig config;
  config.rules = rules;
  config.window_ms = 10'000;
  StreamEngine engine(config);
  ASSERT_TRUE(engine.Push(Event(0, 1, 1000, 5.0)).ok());
  ASSERT_TRUE(engine.Push(Event(1, 1, 15'000, 5.0)).ok());
  ASSERT_TRUE(engine.Push(Event(2, 1, 1000, 5.0)).ok());
  ASSERT_TRUE(engine.Flush().ok());
  const StreamOutput out = engine.TakeOutput();
  ASSERT_EQ(out.ledger.size(), 1u);
  EXPECT_EQ(out.ledger.entries()[0].reason, QuarantineReason::kLate);
  ASSERT_EQ(out.kpis.size(), 2u);
  EXPECT_EQ(out.kpis[0].duplicates, 0);
}

// Only an admit opens a window: a duplicate, out-of-range or overflow
// rejection leaves no window behind for Flush to close.
TEST(AdmissionTest, RejectionsNeverOpenAWindow) {
  const RuleSet rules = TightRules();
  AdmissionFilter filter(&rules, 10'000, 1);
  EXPECT_TRUE(filter.Observe(Event(0, 1, 1000, 5.0)).admitted);
  EXPECT_EQ(filter.Observe(Event(1, 1, 1000, 5.0)).reason,
            QuarantineReason::kDuplicate);
  EXPECT_EQ(filter.Observe(Event(2, 1, 2000, 5.0)).reason,
            QuarantineReason::kWindowOverflow);
  EXPECT_EQ(filter.Observe(Event(3, 1, 25'000, 999.0)).reason,
            QuarantineReason::kOutOfRange);
  ASSERT_EQ(filter.ReadyWindow(1, true), std::optional<int64_t>(0));
  const OpenWindow window = filter.ReleaseWindow(1, 0);
  EXPECT_EQ(window.events.size(), 1u);
  EXPECT_EQ(window.duplicates, 1);
  EXPECT_EQ(filter.ReadyWindow(1, true), std::nullopt);
  // Capacity 0: every in-range record overflows a window that never opens.
  AdmissionFilter closed(&rules, 10'000, 0);
  EXPECT_EQ(closed.Observe(Event(4, 1, 1000, 5.0)).reason,
            QuarantineReason::kWindowOverflow);
  EXPECT_EQ(closed.ReadyWindow(1, true), std::nullopt);

  for (const size_t capacity : {size_t{1}, size_t{0}}) {
    StreamConfig config;
    config.rules = rules;
    config.window_ms = 10'000;
    config.window_capacity = capacity;
    StreamEngine engine(config);
    ASSERT_TRUE(engine.Push(Event(0, 1, 1000, 5.0)).ok());
    ASSERT_TRUE(engine.Push(Event(1, 1, 1000, 5.0)).ok());
    ASSERT_TRUE(engine.Push(Event(2, 1, 2000, 5.0)).ok());
    ASSERT_TRUE(engine.Push(Event(3, 1, 25'000, 999.0)).ok());
    ASSERT_TRUE(engine.Flush().ok());
    const StreamOutput out = engine.TakeOutput();
    ASSERT_EQ(out.sensors.size(), 1u);
    if (capacity == 1) {
      EXPECT_EQ(out.ledger.size(), 3u);
      ASSERT_EQ(out.kpis.size(), 1u);
      EXPECT_EQ(out.kpis[0].window_start, 0);
      EXPECT_EQ(out.kpis[0].duplicates, 1);
      EXPECT_EQ(out.sensors[0].windows_closed, 1);
    } else {
      EXPECT_EQ(out.ledger.size(), 4u);
      EXPECT_TRUE(out.kpis.empty());
      EXPECT_EQ(out.sensors[0].windows_closed, 0);
    }
  }
}

// --- online operators ---

TEST(OnlineKalmanTest, ConvergesToConstantSignal) {
  refine::OnlineKalman1D filter;
  refine::OnlineKalman1D::Estimate est;
  for (int i = 0; i < 50; ++i) {
    est = filter.Update(i * 1000, 42.0, 1.0);
  }
  EXPECT_NEAR(est.value, 42.0, 1e-6);
  EXPECT_LT(est.stddev, 1.0);  // tighter than one measurement
  EXPECT_GT(est.stddev, 0.0);
}

TEST(OnlineKalmanTest, TracksLinearTrend) {
  refine::OnlineKalman1D filter;
  refine::OnlineKalman1D::Estimate est;
  for (int i = 0; i < 100; ++i) {
    est = filter.Update(i * 1000, 0.5 * i, 1.0);
  }
  EXPECT_NEAR(est.value, 0.5 * 99, 0.5);
}

TEST(RollingRobustZTest, FlagsSpikesWithoutPoisoningBaseline) {
  Rng rng(7);
  outlier::RollingRobustZ detector;
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(detector.Observe(10.0 + rng.Gaussian(0.0, 0.5)));
  }
  EXPECT_TRUE(detector.Observe(500.0));
  // The spike was not absorbed: the next spike is still flagged and the
  // next normal value is still an inlier.
  EXPECT_TRUE(detector.Observe(500.0));
  EXPECT_FALSE(detector.Observe(10.2));
}

TEST(RollingRobustZTest, WarmupAdmitsEverything) {
  outlier::RollingRobustZ detector;
  for (int i = 0; i < 7; ++i) {
    EXPECT_FALSE(detector.Observe(i % 2 == 0 ? 0.0 : 1000.0));
  }
}

// The selection form of the detector: each Observe copies the window and
// runs nth_element on it, twice. It is the reference the sorted-window
// detector must agree with, verdict for verdict.
class ReferenceRollingRobustZ {
 public:
  explicit ReferenceRollingRobustZ(outlier::RollingRobustZ::Options options)
      : options_(options) {}

  bool Observe(double value) {
    bool outlier = false;
    if (buffer_.size() >= options_.min_samples) {
      const double median = MedianOf(buffer_);
      std::vector<double> deviations;
      deviations.reserve(buffer_.size());
      for (double v : buffer_) deviations.push_back(std::abs(v - median));
      const double mad = MedianOf(std::move(deviations));
      const double scale = std::max(1.4826 * mad,
                                    options_.min_mad_fraction *
                                        std::max(1.0, std::abs(median)));
      outlier = std::abs(value - median) > options_.z_threshold * scale;
    }
    if (!outlier) {
      if (buffer_.size() < options_.window) {
        buffer_.push_back(value);
      } else {
        buffer_[next_] = value;
        next_ = (next_ + 1) % options_.window;
      }
    }
    return outlier;
  }

 private:
  static double MedianOf(std::vector<double> values) {
    const size_t mid = values.size() / 2;
    std::nth_element(values.begin(), values.begin() + mid, values.end());
    double m = values[mid];
    if (values.size() % 2 == 0) {
      m = (m + *std::max_element(values.begin(), values.begin() + mid)) /
          2.0;
    }
    return m;
  }

  outlier::RollingRobustZ::Options options_;
  std::vector<double> buffer_;
  size_t next_ = 0;
};

// One seeded input sequence of a family chosen to stress order statistics:
// 0 noise with 1e6 / 1e300 spikes, 1 long constant runs, 2 heavy ties,
// 3 signed zeros, 4 alternating signs.
std::vector<double> RobustZInput(int family, uint64_t seed, size_t length) {
  Rng rng(seed);
  std::vector<double> values;
  values.reserve(length);
  double level = 0.0;
  int64_t run_left = 0;
  for (size_t i = 0; i < length; ++i) {
    double v = 0.0;
    switch (family) {
      case 0:
        v = 10.0 + rng.Gaussian(0.0, 0.5);
        break;
      case 1:
        if (run_left-- <= 0) {
          level = static_cast<double>(rng.UniformInt(-3, 3));
          run_left = rng.UniformInt(1, 80);
        }
        v = level;
        break;
      case 2:
        v = static_cast<double>(rng.UniformInt(0, 4));
        break;
      case 3: {
        const double zeros[] = {0.0, -0.0, 0.0, -0.0, 1.0, -1.0};
        v = zeros[rng.UniformInt(0, 5)];
        break;
      }
      default:
        v = (i % 2 == 0 ? 1.0 : -1.0) * (5.0 + rng.Gaussian(0.0, 1.0));
        break;
    }
    if (rng.Bernoulli(0.05)) v = rng.Bernoulli(0.5) ? 1e6 : -1e6;
    if (rng.Bernoulli(0.02)) v = rng.Bernoulli(0.5) ? 1e300 : -1e300;
    values.push_back(v);
  }
  return values;
}

TEST(RollingRobustZTest, MatchesTheSelectionReferenceVerdictForVerdict) {
  int64_t outliers = 0;
  int64_t inliers = 0;
  for (size_t window : {1, 2, 3, 7, 8, 32, 33}) {
    for (size_t min_samples : {1, 2, 8, 40}) {
      for (double z_threshold : {0.0, 3.5}) {
        outlier::RollingRobustZ::Options options;
        options.window = window;
        options.min_samples = min_samples;
        options.z_threshold = z_threshold;
        for (int family = 0; family < 5; ++family) {
          for (uint64_t seed = 1; seed <= 2; ++seed) {
            outlier::RollingRobustZ detector(options);
            ReferenceRollingRobustZ reference(options);
            const std::vector<double> input =
                RobustZInput(family, seed * 131 + window, 400);
            for (size_t i = 0; i < input.size(); ++i) {
              const bool verdict = detector.Observe(input[i]);
              ASSERT_EQ(verdict, reference.Observe(input[i]))
                  << "window " << window << " min_samples " << min_samples
                  << " z " << z_threshold << " family " << family
                  << " seed " << seed << " at " << i << " value "
                  << input[i];
              ++(verdict ? outliers : inliers);
            }
          }
        }
      }
    }
  }
  // Both verdicts are common, so neither side is vacuous.
  EXPECT_GT(outliers, 10000);
  EXPECT_GT(inliers, 10000);
}

TEST(RollingRobustZTest, NonFiniteValuesAreOutliersAndStayOutOfTheBaseline) {
  const double bad[] = {std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity()};
  outlier::RollingRobustZ dirty;
  outlier::RollingRobustZ clean;
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    // Inject from the very first call, so warm-up is covered too.
    if (i % 5 == 0) {
      EXPECT_TRUE(dirty.Observe(bad[(i / 5) % 3])) << i;
    }
    const double v = 10.0 + rng.Gaussian(0.0, 1.0) + (i % 17 == 0 ? 300 : 0);
    EXPECT_EQ(dirty.Observe(v), clean.Observe(v)) << i;
  }
  EXPECT_EQ(dirty.num_samples(), clean.num_samples());
}

TEST(RollingRobustZTest, EmptyBaselineFlagsNothingWithZeroMinSamples) {
  outlier::RollingRobustZ::Options options;
  options.window = 8;
  options.min_samples = 0;
  outlier::RollingRobustZ zero(options);
  EXPECT_FALSE(zero.Observe(1e6));  // the empty-baseline call
  // From one sample on, min_samples 0 and 1 are the same rule.
  options.min_samples = 1;
  outlier::RollingRobustZ one(options);
  EXPECT_FALSE(one.Observe(1e6));
  Rng rng(4);
  for (int i = 0; i < 100; ++i) {
    const double v = rng.Bernoulli(0.1) ? -1e6 : rng.Gaussian(0.0, 1.0);
    EXPECT_EQ(zero.Observe(v), one.Observe(v)) << i;
  }
}

TEST(RollingRobustZTest, ZeroWindowKeepsNoBaseline) {
  outlier::RollingRobustZ::Options options;
  options.window = 0;
  options.min_samples = 0;
  outlier::RollingRobustZ used(options);
  for (double v : {1.0, 1e300, -1e6, 0.0}) EXPECT_FALSE(used.Observe(v));
  EXPECT_TRUE(used.Observe(std::numeric_limits<double>::quiet_NaN()));
  EXPECT_EQ(used.num_samples(), 0u);
  outlier::RollingRobustZ fresh(options);
  Rng rng(6);
  for (int i = 0; i < 100; ++i) {
    const double v = rng.Bernoulli(0.1) ? 1e6 : rng.Gaussian(0.0, 1.0);
    const bool verdict = used.Observe(v);
    EXPECT_FALSE(verdict) << i;
    EXPECT_EQ(verdict, fresh.Observe(v)) << i;
  }
  EXPECT_EQ(used.num_samples(), 0u);
}

TEST(RollingRobustZTest, ObserveDoesNotAllocateOnceTheWindowIsFull) {
  outlier::RollingRobustZ detector;
  ReferenceRollingRobustZ reference(outlier::RollingRobustZ::Options{});
  const std::vector<double> input = RobustZInput(0, 9, 500);
  for (size_t i = 0; i < 32; ++i) {
    detector.Observe(10.0 + 0.01 * static_cast<double>(i));
    reference.Observe(10.0 + 0.01 * static_cast<double>(i));
  }
  ASSERT_EQ(detector.num_samples(), 32u);

  const size_t before = g_operator_new_calls.load();
  int64_t flagged = 0;
  for (double v : input) flagged += detector.Observe(v) ? 1 : 0;
  EXPECT_EQ(g_operator_new_calls.load() - before, 0u);
  EXPECT_GT(flagged, 0);

  // The hook does see allocations: the reference copies its window.
  const size_t reference_before = g_operator_new_calls.load();
  for (double v : input) reference.Observe(v);
  EXPECT_GE(g_operator_new_calls.load() - reference_before, input.size());
}

TEST(PageHinkleyTest, DetectsMeanShiftAndIgnoresStationary) {
  outlier::PageHinkley stationary;
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    EXPECT_FALSE(stationary.Observe(5.0 + rng.Gaussian(0.0, 0.3)));
  }
  outlier::PageHinkley drifting;
  bool detected = false;
  for (int i = 0; i < 200; ++i) {
    const double value = 5.0 + (i >= 100 ? 8.0 : 0.0) + rng.Gaussian(0.0, 0.3);
    detected = drifting.Observe(value) || detected;
  }
  EXPECT_TRUE(detected);
}

// --- event log ---

StDataset SmallDataset() {
  StDataset data("pm25");
  for (SensorId sensor = 0; sensor < 3; ++sensor) {
    StSeries series(sensor, geometry::Point(100.0 * sensor, 50.0));
    for (int k = 0; k < 20; ++k) {
      EXPECT_TRUE(series.Append(k * 60'000, 10.0 + sensor + 0.1 * k).ok());
    }
    data.AddSeries(std::move(series));
  }
  return data;
}

TEST(EventLogTest, RecordArrivalsIsSeedDeterministic) {
  const StDataset data = SmallDataset();
  ArrivalOptions options;
  options.duplicate_probability = 0.1;
  Rng rng_a(99), rng_b(99), rng_c(100);
  const EventLog a = RecordArrivals(data, options, &rng_a);
  const EventLog b = RecordArrivals(data, options, &rng_b);
  const EventLog c = RecordArrivals(data, options, &rng_c);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.events[i].arrival_ms, b.events[i].arrival_ms);
    EXPECT_EQ(a.events[i].record.sensor, b.events[i].record.sensor);
    EXPECT_EQ(a.events[i].record.t, b.events[i].record.t);
  }
  // A different seed produces a different arrival order (with overwhelming
  // probability for 60 events).
  bool differs = c.size() != a.size();
  for (size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a.events[i].record.t != c.events[i].record.t ||
              a.events[i].arrival_ms != c.events[i].arrival_ms;
  }
  EXPECT_TRUE(differs);
}

TEST(EventLogTest, ArrivalOrderIsSortedAndSeqContiguous) {
  const StDataset data = SmallDataset();
  Rng rng(5);
  ArrivalOptions options;
  options.straggler_probability = 0.3;
  const EventLog log = RecordArrivals(data, options, &rng);
  ASSERT_EQ(log.size(), data.TotalRecords());
  for (size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(log.events[i].seq, i);
    if (i > 0) {
      EXPECT_GE(log.events[i].arrival_ms, log.events[i - 1].arrival_ms);
    }
  }
}

TEST(EventLogTest, FileRoundTripIsExact) {
  const StDataset data = SmallDataset();
  Rng rng(31);
  ArrivalOptions options;
  options.duplicate_probability = 0.2;
  const EventLog log = RecordArrivals(data, options, &rng);

  const std::string path = ::testing::TempDir() + "/stream_events.log";
  ASSERT_TRUE(WriteEventLogFile(log, path).ok());
  const StatusOr<EventLog> reread = ReadEventLogFile(path);
  ASSERT_TRUE(reread.ok()) << reread.status();
  ASSERT_EQ(reread->size(), log.size());
  EXPECT_EQ(reread->field_name, log.field_name);
  for (size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(reread->events[i].seq, log.events[i].seq);
    EXPECT_EQ(reread->events[i].arrival_ms, log.events[i].arrival_ms);
    EXPECT_EQ(reread->events[i].record.t, log.events[i].record.t);
    EXPECT_EQ(reread->events[i].record.value, log.events[i].record.value);
    EXPECT_EQ(reread->events[i].record.loc.x, log.events[i].record.loc.x);
  }
  // Rewriting the reread log reproduces the file byte-for-byte.
  const std::string path2 = ::testing::TempDir() + "/stream_events2.log";
  ASSERT_TRUE(WriteEventLogFile(*reread, path2).ok());
  const StatusOr<std::string> b1 =
      store::ReadFileToString(store::DefaultVfs(), path);
  const StatusOr<std::string> b2 =
      store::ReadFileToString(store::DefaultVfs(), path2);
  ASSERT_TRUE(b1.ok());
  ASSERT_TRUE(b2.ok());
  EXPECT_EQ(*b1, *b2);
}

TEST(EventLogTest, ReaderRejectsCorruptLogs) {
  const std::string path = ::testing::TempDir() + "/bad_events.log";
  const std::string header = "# sidq-event-log v1 field=x\n";
  EXPECT_FALSE(ReadEventLogFile(::testing::TempDir() + "/missing.log").ok());
  ASSERT_TRUE(
      obs::WriteTextFile(path, "# wrong header\n0 1 2 3 4 5 6 7\n").ok());
  EXPECT_EQ(ReadEventLogFile(path).status().code(),
            StatusCode::kInvalidArgument);
  // Interior garbling (complete file, bad content) is InvalidArgument, not
  // DataLoss: retrying recovery will not help.
  ASSERT_TRUE(obs::WriteTextFile(path, header +
                                           "5 1 0 0 0 1 1 0\n"
                                           "# sidq-event-log end count=1\n")
                  .ok());
  EXPECT_EQ(ReadEventLogFile(path).status().code(),
            StatusCode::kInvalidArgument);  // seq gap
  ASSERT_TRUE(obs::WriteTextFile(path, header +
                                           "0 1 0 0 0 1 1 0\n"
                                           "# sidq-event-log end count=7\n")
                  .ok());
  EXPECT_EQ(ReadEventLogFile(path).status().code(),
            StatusCode::kInvalidArgument);  // trailer count mismatch
  ASSERT_TRUE(obs::WriteTextFile(path, header +
                                           "# sidq-event-log end count=0\n"
                                           "0 1 0 0 0 1 1 0\n")
                  .ok());
  EXPECT_EQ(ReadEventLogFile(path).status().code(),
            StatusCode::kInvalidArgument);  // data after trailer
  ASSERT_TRUE(obs::WriteTextFile(path, header +
                                           "0 1 garbage 0 0 1 1 0\n"
                                           "# sidq-event-log end count=1\n")
                  .ok());
  EXPECT_EQ(ReadEventLogFile(path).status().code(),
            StatusCode::kInvalidArgument);  // unparseable interior line
}

TEST(EventLogTest, TruncationSweepReportsTornTail) {
  // Every strict byte prefix of a valid log must be rejected, and every
  // prefix that still has an intact header must be reason-coded as a torn
  // tail (DataLoss) rather than generic corruption -- truncation at a line
  // boundary included, which without the trailer would read as clean EOF.
  const StDataset data = SmallDataset();
  Rng rng(17);
  ArrivalOptions options;
  const EventLog log = RecordArrivals(data, options, &rng);
  ASSERT_GT(log.size(), 2u);

  const std::string path = ::testing::TempDir() + "/sweep_events.log";
  ASSERT_TRUE(WriteEventLogFile(log, path).ok());
  const StatusOr<std::string> full =
      store::ReadFileToString(store::DefaultVfs(), path);
  ASSERT_TRUE(full.ok());

  obs::MetricsRegistry registry;
  const std::string cut_path = ::testing::TempDir() + "/sweep_events_cut.log";
  int64_t torn = 0;
  for (size_t len = 0; len < full->size(); ++len) {
    ASSERT_TRUE(obs::WriteTextFile(cut_path, full->substr(0, len)).ok());
    const StatusOr<EventLog> got = ReadEventLogFile(cut_path, &registry);
    ASSERT_FALSE(got.ok()) << "prefix of " << len << " bytes parsed as valid";
    if (len == 0) {
      EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
      continue;
    }
    EXPECT_EQ(got.status().code(), StatusCode::kDataLoss)
        << "len=" << len << ": " << got.status();
    EXPECT_NE(got.status().message().find("torn tail"), std::string::npos)
        << got.status();
    ++torn;
  }
  int64_t counted = 0;
  for (const obs::CounterValue& c : registry.Snapshot().counters) {
    if (c.name == "stream.log.torn_tail") counted = c.value;
  }
  EXPECT_GT(torn, 0);
  EXPECT_EQ(counted, torn);

  // The untruncated file still reads back cleanly and the sweep never
  // counted it.
  EXPECT_TRUE(ReadEventLogFile(path, &registry).ok());
  for (const obs::CounterValue& c : registry.Snapshot().counters) {
    if (c.name == "stream.log.torn_tail") {
      EXPECT_EQ(c.value, torn);
    }
  }
}

// --- engine semantics ---

StreamConfig TestConfig() {
  StreamConfig config;
  config.rules = TightRules();
  config.window_ms = 10'000;
  config.window_capacity = 64;
  // Keep the outlier gate quiet unless a test wants it.
  config.robust_z.z_threshold = 50.0;
  return config;
}

TEST_F(StreamTest, WatermarkClosesWindowsInEventTimeOrder) {
  StreamEngine engine(TestConfig());
  // Two windows of sensor 1; the second window's data closes the first
  // once the watermark (max_t - 5000) passes its end.
  ASSERT_TRUE(engine.Push(Event(0, 1, 1000, 5.0)).ok());
  ASSERT_TRUE(engine.Push(Event(1, 1, 9000, 6.0)).ok());
  ASSERT_TRUE(engine.Push(Event(2, 1, 14'000, 7.0)).ok());  // watermark 9000
  ASSERT_TRUE(engine.Push(Event(3, 1, 16'000, 8.0)).ok());  // watermark 11000
  ASSERT_TRUE(engine.Flush().ok());
  const StreamOutput out = engine.TakeOutput();
  ASSERT_EQ(out.kpis.size(), 2u);
  EXPECT_EQ(out.kpis[0].window_start, 0);
  EXPECT_EQ(out.kpis[0].count, 2);
  EXPECT_EQ(out.kpis[1].window_start, 10'000);
  EXPECT_EQ(out.kpis[1].count, 2);
  EXPECT_TRUE(out.ledger.empty());
  ASSERT_EQ(out.sensors.size(), 1u);
  EXPECT_EQ(out.sensors[0].admitted, 4);
  EXPECT_EQ(out.sensors[0].windows_closed, 2);
  EXPECT_EQ(out.sensors[0].watermark, 11'000);
}

TEST_F(StreamTest, LateRecordsLandInQuarantineNotOutput) {
  StreamEngine engine(TestConfig());
  ASSERT_TRUE(engine.Push(Event(0, 1, 20'000, 5.0)).ok());
  ASSERT_TRUE(engine.Push(Event(1, 1, 2000, 9.0)).ok());  // late: wm 15000
  ASSERT_TRUE(engine.Flush().ok());
  const StreamOutput out = engine.TakeOutput();
  ASSERT_EQ(out.ledger.size(), 1u);
  EXPECT_EQ(out.ledger.entries()[0].seq, 1u);
  EXPECT_EQ(out.ledger.entries()[0].reason, QuarantineReason::kLate);
  EXPECT_EQ(out.cleaned.TotalRecords(), 1u);
}

TEST_F(StreamTest, WindowedKpisMeasureTheDimensions) {
  StreamConfig config = TestConfig();
  config.thresholds.min_completeness = 0.9;
  config.thresholds.max_gap_ms = 4000;
  StreamEngine engine(config);
  // 5 of 10 expected records (interval 1000, window 10000), one duplicate
  // delivery, a 5-second hole, and one rate violation (rule rate default
  // 1e30 -> none). Completeness 0.5 and the gap trip two alerts.
  ASSERT_TRUE(engine.Push(Event(0, 1, 1000, 5.0)).ok());
  ASSERT_TRUE(engine.Push(Event(1, 1, 2000, 5.1)).ok());
  ASSERT_TRUE(engine.Push(Event(2, 1, 2000, 5.1)).ok());  // duplicate
  ASSERT_TRUE(engine.Push(Event(3, 1, 3000, 5.2)).ok());
  ASSERT_TRUE(engine.Push(Event(4, 1, 8000, 5.3)).ok());
  ASSERT_TRUE(engine.Push(Event(5, 1, 9000, 5.4)).ok());
  ASSERT_TRUE(engine.Flush().ok());
  const StreamOutput out = engine.TakeOutput();
  ASSERT_EQ(out.kpis.size(), 1u);
  const WindowKpis& kpis = out.kpis[0];
  EXPECT_EQ(kpis.count, 5);
  EXPECT_EQ(kpis.duplicates, 1);
  EXPECT_DOUBLE_EQ(kpis.completeness, 0.5);
  EXPECT_DOUBLE_EQ(kpis.redundancy, 1.0 / 6.0);
  EXPECT_EQ(kpis.max_gap_ms, 5000);
  // Canonical alert order sorts by dimension enum value within a window.
  ASSERT_EQ(out.alerts.size(), 2u);
  EXPECT_EQ(out.alerts[0].dimension, DqDimension::kTimeSparsity);
  EXPECT_EQ(out.alerts[1].dimension, DqDimension::kCompleteness);
}

TEST_F(StreamTest, OnlineOutlierGateQuarantinesSpikes) {
  StreamConfig config = TestConfig();
  config.robust_z.z_threshold = 3.5;
  config.robust_z.min_samples = 8;
  config.rules.set_default_rule([] {
    SensorRule rule;
    rule.min_value = -1000.0;
    rule.max_value = 1000.0;
    rule.expected_interval_ms = 1000;
    rule.max_lateness_ms = 5000;
    return rule;
  }());
  StreamEngine engine(config);
  uint64_t seq = 0;
  for (int k = 0; k < 20; ++k) {
    const double value = k == 15 ? 900.0 : 10.0 + 0.01 * k;
    ASSERT_TRUE(engine.Push(Event(seq++, 1, k * 1000, value)).ok());
  }
  ASSERT_TRUE(engine.Flush().ok());
  const StreamOutput out = engine.TakeOutput();
  ASSERT_EQ(out.ledger.size(), 1u);
  EXPECT_EQ(out.ledger.entries()[0].reason, QuarantineReason::kOutlier);
  EXPECT_EQ(out.ledger.entries()[0].seq, 15u);
  EXPECT_EQ(out.cleaned.TotalRecords(), 19u);
}

TEST_F(StreamTest, MetricsCountTheStream) {
  obs::MetricsRegistry registry;
  obs::ObsSinks sinks;
  sinks.metrics = &registry;
  StreamEngine engine(TestConfig(), sinks);
  ASSERT_TRUE(engine.Push(Event(0, 1, 20'000, 5.0)).ok());
  ASSERT_TRUE(engine.Push(Event(1, 1, 2000, 9.0)).ok());   // late
  ASSERT_TRUE(engine.Push(Event(2, 1, 21'000, 999.0)).ok());  // range
  ASSERT_TRUE(engine.Flush().ok());
  const StreamOutput drained = engine.TakeOutput();
  EXPECT_EQ(drained.ingested, 3);
  int64_t ingested = 0, late = 0, quarantined = 0, windows = 0;
  for (const obs::CounterValue& c : registry.Snapshot().counters) {
    if (c.name == "stream.ingested") ingested = c.value;
    if (c.name == "stream.late") late = c.value;
    if (c.name == "stream.quarantined") quarantined = c.value;
    if (c.name == "stream.windows.closed") windows = c.value;
  }
  EXPECT_EQ(ingested, 3);
  EXPECT_EQ(late, 1);
  EXPECT_EQ(quarantined, 2);
  EXPECT_EQ(windows, 1);
}

// --- chaos sites ---

TEST_F(StreamTest, TransientIngestFaultsAreAbsorbedByRetries) {
  const StDataset data = SmallDataset();
  Rng rng(3);
  const EventLog log = RecordArrivals(data, ArrivalOptions{}, &rng);
  const StreamConfig config = TestConfig();

  StreamEngine clean_engine(config);
  ASSERT_TRUE(ReplayInto(&clean_engine, log).ok());
  const std::string clean_json = StreamOutputToJson(clean_engine.TakeOutput());

  FailPointConfig transient;
  transient.action = FailPointAction::kTransientError;
  transient.fail_first_n = 2;  // within the engine's retry budget (3)
  ArmFailPoint(std::string(kIngestFailPoint), transient);
  ArmFailPoint(std::string(kWindowCloseFailPoint), transient);
  StreamEngine chaos_engine(config);
  ASSERT_TRUE(ReplayInto(&chaos_engine, log).ok());
  DisarmAllFailPoints();
  EXPECT_EQ(StreamOutputToJson(chaos_engine.TakeOutput()), clean_json);
}

TEST_F(StreamTest, PermanentIngestFaultQuarantinesTheRecord) {
  FailPointConfig permanent;
  permanent.action = FailPointAction::kPermanentError;
  permanent.fail_first_n = 1;
  ArmFailPoint(std::string(kIngestFailPoint), permanent);
  StreamEngine engine(TestConfig());
  ASSERT_TRUE(engine.Push(Event(0, 1, 1000, 5.0)).ok());  // injected
  ASSERT_TRUE(engine.Push(Event(1, 1, 2000, 6.0)).ok());
  ASSERT_TRUE(engine.Flush().ok());
  DisarmAllFailPoints();
  const StreamOutput out = engine.TakeOutput();
  ASSERT_EQ(out.ledger.size(), 1u);
  EXPECT_EQ(out.ledger.entries()[0].seq, 0u);
  EXPECT_EQ(out.ledger.entries()[0].reason, QuarantineReason::kIngestFault);
  EXPECT_EQ(out.cleaned.TotalRecords(), 1u);
}

TEST_F(StreamTest, CorruptedIngestIsCaughtByTheRangeRule) {
  FailPointConfig corrupt;
  corrupt.action = FailPointAction::kCorrupt;
  corrupt.fail_first_n = 1;
  ArmFailPoint(std::string(kIngestFailPoint), corrupt);
  StreamEngine engine(TestConfig());
  ASSERT_TRUE(engine.Push(Event(0, 1, 1000, 5.0)).ok());  // corrupted
  ASSERT_TRUE(engine.Flush().ok());
  DisarmAllFailPoints();
  const StreamOutput out = engine.TakeOutput();
  ASSERT_EQ(out.ledger.size(), 1u);
  EXPECT_EQ(out.ledger.entries()[0].reason, QuarantineReason::kOutOfRange);
}

TEST_F(StreamTest, PermanentWindowFaultQuarantinesTheWindow) {
  FailPointConfig permanent;
  permanent.action = FailPointAction::kPermanentError;
  permanent.fail_first_n = 1;
  ArmFailPoint(std::string(kWindowCloseFailPoint), permanent);
  StreamEngine engine(TestConfig());
  ASSERT_TRUE(engine.Push(Event(0, 1, 1000, 5.0)).ok());
  ASSERT_TRUE(engine.Push(Event(1, 1, 2000, 6.0)).ok());
  ASSERT_TRUE(engine.Push(Event(2, 1, 14'000, 7.0)).ok());
  ASSERT_TRUE(engine.Flush().ok());
  DisarmAllFailPoints();
  const StreamOutput out = engine.TakeOutput();
  // Window [0, 10000) lost both records; the second window processed.
  ASSERT_EQ(out.ledger.size(), 2u);
  EXPECT_EQ(out.ledger.entries()[0].reason, QuarantineReason::kWindowFault);
  EXPECT_EQ(out.ledger.entries()[1].reason, QuarantineReason::kWindowFault);
  ASSERT_EQ(out.kpis.size(), 1u);
  EXPECT_EQ(out.kpis[0].window_start, 10'000);
  EXPECT_EQ(out.cleaned.TotalRecords(), 1u);
}

TEST_F(StreamTest, CancellationStopsIngestionCooperatively) {
  std::atomic<bool> cancel{false};
  VirtualClock clock(0);
  const ExecContext ctx(&clock, &cancel);
  StreamEngine engine(TestConfig(), {}, &clock, &ctx);
  ASSERT_TRUE(engine.Push(Event(0, 1, 1000, 5.0)).ok());
  cancel.store(true);
  const Status s = engine.Push(Event(1, 1, 2000, 6.0));
  EXPECT_EQ(s.code(), StatusCode::kCancelled);
}

}  // namespace
}  // namespace stream
}  // namespace sidq
