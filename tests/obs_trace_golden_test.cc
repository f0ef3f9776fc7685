// Golden-trace regression tests for the observability layer. A small
// chaos-seeded fleet is cleaned under virtual time and the resulting merged
// metrics snapshot and canonical span tree are pinned byte-for-byte: the
// exports must be identical for 1, 2, and 8 workers, identical across
// repeated runs, and identical to the golden literals below.
//
// The goldens pin the public observability contract -- metric names, span
// names/categories/nesting, virtual-time backoff arithmetic, and the
// canonical JSON encodings. An intentional change to any of those should
// regenerate them:
//
//   SIDQ_REGEN_GOLDEN=1 ./obs_trace_golden_test
//
// prints the current spans/metrics to stdout for pasting back into this
// file. An *unintentional* diff here means scheduling or worker count
// leaked into the exports -- a determinism bug, not a stale golden.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

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

using exec::FleetResult;
using exec::FleetRunner;
using obs::MetricsRegistry;
using obs::ObsSinks;
using obs::SpanRecord;
using obs::Tracer;

constexpr uint64_t kBaseSeed = 4242;
constexpr uint64_t kChaosSeed = 0xD1CE;

std::vector<Trajectory> MakeGoldenFleet() {
  Rng rng(271828);
  std::vector<Trajectory> fleet;
  for (size_t i = 0; i < 4; ++i) {
    Trajectory t(static_cast<ObjectId>(i));
    double x = rng.Uniform(0.0, 1000.0);
    double y = rng.Uniform(0.0, 1000.0);
    for (size_t k = 0; k < 4; ++k) {
      t.AppendUnordered(TrajectoryPoint(static_cast<Timestamp>(k) * 1000,
                                        geometry::Point(x, y), 5.0));
      x += rng.Gaussian(0.0, 5.0);
      y += rng.Gaussian(0.0, 5.0);
    }
    fleet.push_back(std::move(t));
  }
  return fleet;
}

// Four stages exercising every span category: a seeded jitter stage, a
// flaky gateway (transient failpoint -> retries), a refine ladder whose top
// rung rejects odd object ids (-> degrades), and a fragile decoder
// (permanent failpoint -> quarantine).
TrajectoryPipeline MakeGoldenPipeline() {
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
                        "golden.gateway", in.object_id(), ctx.exec));
                    return in;
                  });
  auto ladder = std::make_unique<LadderStage>("refine");
  ladder->AddRung("fancy", [](const Trajectory& in) -> StatusOr<Trajectory> {
    if (in.object_id() % 2 == 1) {
      return Status::DeadlineExceeded("fancy rung over budget");
    }
    return in;
  });
  ladder->AddRung("cheap", [](const Trajectory& in) -> StatusOr<Trajectory> {
    return in;
  });
  pipeline.Add(std::move(ladder));
  pipeline.AddCtx("decoder",
                  [](const Trajectory& in, const StageContext& ctx)
                      -> StatusOr<Trajectory> {
                    SIDQ_RETURN_IF_ERROR(MaybeInjectFailPoint(
                        "golden.decoder", in.object_id(), ctx.exec));
                    return in;
                  });
  return pipeline;
}

// Re-arming resets per-key evaluation counts, so every run draws the same
// injection decisions.
void ArmGoldenChaos() {
  FailPointConfig transient;
  transient.action = FailPointAction::kTransientError;
  transient.probability = 0.5;
  transient.seed = kChaosSeed;
  ArmFailPoint("golden.gateway", transient);

  FailPointConfig permanent;
  permanent.action = FailPointAction::kPermanentError;
  permanent.probability = 0.2;
  permanent.seed = kChaosSeed + 1;
  ArmFailPoint("golden.decoder", permanent);
}

FleetRunner::Options GoldenOptions(int workers) {
  FleetRunner::Options options;
  options.num_threads = workers;
  options.shard_size = 2;
  options.base_seed = kBaseSeed;
  options.max_quarantine_fraction = 1.0;  // quarantine, never stop
  options.retry.max_retries = 2;
  options.retry.initial_backoff_ms = 50;
  options.retry.jitter = 0.2;
  options.virtual_time = true;
  return options;
}

struct GoldenRun {
  std::string metrics_json;
  std::string trace_json;
  std::string span_listing;
  FleetResult result;
};

// One line per span: key, depth (as indentation), category:name, virtual
// timestamps, and the note when present.
std::string FormatSpans(const std::vector<SpanRecord>& spans) {
  std::string out;
  char buf[64];
  for (const SpanRecord& span : spans) {
    if (span.key == obs::kProcessKey) {
      out += "fleet";
    } else {
      std::snprintf(buf, sizeof(buf), "%llu",
                    static_cast<unsigned long long>(span.key));
      out += buf;
    }
    out += ' ';
    for (int d = 0; d < span.depth; ++d) out += "  ";
    out += span.category;
    out += ':';
    out += span.name;
    std::snprintf(buf, sizeof(buf), " [%lld,%lld]",
                  static_cast<long long>(span.start_ms),
                  static_cast<long long>(span.end_ms));
    out += buf;
    if (!span.note.empty()) {
      out += " note=";
      out += span.note;
    }
    out += '\n';
  }
  return out;
}

GoldenRun RunGolden(int workers) {
  GoldenRun run;
  ArmGoldenChaos();
  MetricsRegistry registry;
  Tracer tracer;
  ObsSinks sinks;
  sinks.metrics = &registry;
  sinks.tracer = &tracer;
  obs::ScopedFailPointObservation observation(sinks);

  const std::vector<Trajectory> fleet = MakeGoldenFleet();
  const TrajectoryPipeline pipeline = MakeGoldenPipeline();
  FleetRunner::Options options = GoldenOptions(workers);
  options.obs = &sinks;
  const FleetRunner runner(&pipeline, options);
  run.result = runner.Run(fleet);
  DisarmAllFailPoints();

  const StatusOr<std::string> metrics_json =
      obs::MetricsToJson(registry.Snapshot());
  EXPECT_TRUE(metrics_json.ok()) << metrics_json.status();
  if (metrics_json.ok()) run.metrics_json = *metrics_json;

  const std::vector<SpanRecord> spans = tracer.CanonicalSpans();
  const StatusOr<std::string> trace_json = obs::TraceToChromeJson(spans);
  EXPECT_TRUE(trace_json.ok()) << trace_json.status();
  if (trace_json.ok()) run.trace_json = *trace_json;
  run.span_listing = FormatSpans(spans);
  return run;
}

// --- golden literals (regenerate with SIDQ_REGEN_GOLDEN=1) ---

const char kGoldenSpanListing[] =
    R"golden(0 object:object [0,0] note=failed
0   stage:jitter [0,0]
0   stage:gateway [0,0]
0   stage:refine [0,0]
0   stage:decoder [0,0] note=DataLoss: stage 'decoder' failed: injected permanent fault at golden.decoder
0     attempt:decoder#0 [0,0] note=DataLoss: injected permanent fault at golden.decoder
0 failpoint:golden.decoder [0,0] note=permanent
1 object:object [0,0] note=degraded
1   stage:jitter [0,0]
1   stage:gateway [0,0]
1   stage:refine [0,0]
1       attempt:fancy#0 [0,0] note=DeadlineExceeded: fancy rung over budget
1       degrade:refine [0,0] note=rung=1 (cheap)
1   stage:decoder [0,0]
2 object:object [0,52] note=full
2   stage:jitter [0,0]
2   stage:gateway [0,52]
2     attempt:gateway#0 [0,0] note=Unavailable: injected transient fault at golden.gateway
2     retry:gateway [0,0] note=backoff_ms=52
2     attempt:gateway#1 [52,52]
2   stage:refine [52,52]
2   stage:decoder [52,52]
2 failpoint:golden.gateway [0,0] note=transient
3 object:object [0,0] note=degraded
3   stage:jitter [0,0]
3   stage:gateway [0,0]
3   stage:refine [0,0]
3       attempt:fancy#0 [0,0] note=DeadlineExceeded: fancy rung over budget
3       degrade:refine [0,0] note=rung=1 (cheap)
3   stage:decoder [0,0]
fleet fleet:fleet.run [0,0] note=fleet: 1/4 full, 2 degraded, 1 quarantined, 1 retries
)golden";

const char kGoldenMetricsJson[] =
    "{\"counters\":[{\"name\":\"chaos.failpoint.fired\",\"value\":2},"
    "{\"name\":\"chaos.failpoint.fired.golden.decoder\",\"value\":1},"
    "{\"name\":\"chaos.failpoint.fired.golden.gateway\",\"value\":1},"
    "{\"name\":\"pipeline.degrade.falls\",\"value\":2},"
    "{\"name\":\"pipeline.retry.attempts\",\"value\":1},"
    "{\"name\":\"pipeline.stage.failures.decoder\",\"value\":1},"
    "{\"name\":\"pipeline.stage.failures.gateway\",\"value\":0},"
    "{\"name\":\"pipeline.stage.failures.jitter\",\"value\":0},"
    "{\"name\":\"pipeline.stage.failures.refine\",\"value\":0},"
    "{\"name\":\"pipeline.stage.runs.decoder\",\"value\":4},"
    "{\"name\":\"pipeline.stage.runs.gateway\",\"value\":4},"
    "{\"name\":\"pipeline.stage.runs.jitter\",\"value\":4},"
    "{\"name\":\"pipeline.stage.runs.refine\",\"value\":4}],"
    "\"gauges\":[{\"name\":\"fleet.breaker_tripped\",\"value\":0},"
    "{\"name\":\"fleet.objects.degraded\",\"value\":2},"
    "{\"name\":\"fleet.objects.quarantined\",\"value\":1},"
    "{\"name\":\"fleet.objects.total\",\"value\":4},"
    "{\"name\":\"fleet.retries.total\",\"value\":1},"
    "{\"name\":\"fleet.shards.total\",\"value\":2}],"
    "\"histograms\":[{\"name\":\"fleet.object.duration_ms\","
    "\"bounds\":[1,2,5,10,25,50,100,250,500,1000,2500,5000,10000],"
    "\"bucket_counts\":[3,0,0,0,0,0,1,0,0,0,0,0,0],\"overflow\":0,"
    "\"count\":4,\"sum\":52,\"max\":52,\"p50\":1,\"p99\":100},"
    "{\"name\":\"pipeline.stage.duration_ms.decoder\","
    "\"bounds\":[1,2,5,10,25,50,100,250,500,1000,2500,5000,10000],"
    "\"bucket_counts\":[4,0,0,0,0,0,0,0,0,0,0,0,0],\"overflow\":0,"
    "\"count\":4,\"sum\":0,\"max\":0,\"p50\":1,\"p99\":1},"
    "{\"name\":\"pipeline.stage.duration_ms.gateway\","
    "\"bounds\":[1,2,5,10,25,50,100,250,500,1000,2500,5000,10000],"
    "\"bucket_counts\":[3,0,0,0,0,0,1,0,0,0,0,0,0],\"overflow\":0,"
    "\"count\":4,\"sum\":52,\"max\":52,\"p50\":1,\"p99\":100},"
    "{\"name\":\"pipeline.stage.duration_ms.jitter\","
    "\"bounds\":[1,2,5,10,25,50,100,250,500,1000,2500,5000,10000],"
    "\"bucket_counts\":[4,0,0,0,0,0,0,0,0,0,0,0,0],\"overflow\":0,"
    "\"count\":4,\"sum\":0,\"max\":0,\"p50\":1,\"p99\":1},"
    "{\"name\":\"pipeline.stage.duration_ms.refine\","
    "\"bounds\":[1,2,5,10,25,50,100,250,500,1000,2500,5000,10000],"
    "\"bucket_counts\":[4,0,0,0,0,0,0,0,0,0,0,0,0],\"overflow\":0,"
    "\"count\":4,\"sum\":0,\"max\":0,\"p50\":1,\"p99\":1}]}";

class ObsGoldenTest : public ::testing::Test {
 protected:
  void TearDown() override { DisarmAllFailPoints(); }
};

TEST_F(ObsGoldenTest, SerialRunMatchesGoldenLiterals) {
  const GoldenRun run = RunGolden(1);
  ASSERT_TRUE(run.result.partial_ok());
  // The scenario must actually exercise every signal, or the golden is
  // vacuous. (Counts themselves are pinned by the metrics golden.)
  EXPECT_GT(run.result.retries_total, 0u);
  EXPECT_GT(run.result.objects_degraded, 0u);
  EXPECT_GT(run.result.objects_quarantined, 0u);
  EXPECT_LT(run.result.objects_quarantined, 4u);

  if (std::getenv("SIDQ_REGEN_GOLDEN") != nullptr) {
    std::printf("--- span listing ---\n%s--- metrics json ---\n%s\n",
                run.span_listing.c_str(), run.metrics_json.c_str());
    GTEST_SKIP() << "regen mode: printed current goldens";
  }

  EXPECT_EQ(run.span_listing, kGoldenSpanListing);
  EXPECT_EQ(run.metrics_json, kGoldenMetricsJson);
}

TEST_F(ObsGoldenTest, ExportsAreIdenticalForAnyWorkerCount) {
  const GoldenRun reference = RunGolden(1);
  ASSERT_TRUE(reference.result.partial_ok());
  for (const int workers : {2, 8}) {
    const GoldenRun run = RunGolden(workers);
    ASSERT_TRUE(run.result.partial_ok());
    EXPECT_EQ(run.metrics_json, reference.metrics_json)
        << workers << " workers changed the metrics export";
    EXPECT_EQ(run.trace_json, reference.trace_json)
        << workers << " workers changed the trace export";
    EXPECT_EQ(run.span_listing, reference.span_listing)
        << workers << " workers changed the span tree";
  }
}

TEST_F(ObsGoldenTest, RepeatedRunsAreByteIdentical) {
  const GoldenRun a = RunGolden(4);
  const GoldenRun b = RunGolden(4);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.trace_json, b.trace_json);
}

// The span tree is well-formed: per key, seqs strictly increase, the object
// root is depth 0, children nest below it, and direct-tracer spans
// (failpoint instants, fleet.run) live in the reserved upper seq space.
TEST_F(ObsGoldenTest, SpanTreeInvariantsHold) {
  ArmGoldenChaos();
  MetricsRegistry registry;
  Tracer tracer;
  ObsSinks sinks;
  sinks.metrics = &registry;
  sinks.tracer = &tracer;
  const std::vector<Trajectory> fleet = MakeGoldenFleet();
  const TrajectoryPipeline pipeline = MakeGoldenPipeline();
  FleetRunner::Options options = GoldenOptions(2);
  options.obs = &sinks;
  const FleetRunner runner(&pipeline, options);
  const FleetResult result = runner.Run(fleet);
  ASSERT_TRUE(result.partial_ok());
  DisarmAllFailPoints();

  uint64_t last_key = 0;
  uint64_t last_seq = 0;
  bool have_prev = false;
  for (const SpanRecord& span : tracer.CanonicalSpans()) {
    if (have_prev && span.key == last_key) {
      EXPECT_GT(span.seq, last_seq) << "seq collision on key " << span.key;
    }
    last_key = span.key;
    last_seq = span.seq;
    have_prev = true;

    EXPECT_GE(span.end_ms, span.start_ms);
    EXPECT_GE(span.depth, 0);
    if (span.category == std::string("object")) {
      EXPECT_EQ(span.depth, 0);
      EXPECT_EQ(span.seq, 0u);
    }
    if (span.category == std::string("failpoint")) {
      EXPECT_GE(span.seq, obs::kDirectSeqBase);
    }
    if (span.category == std::string("fleet")) {
      EXPECT_EQ(span.key, obs::kProcessKey);
    }
  }
}

}  // namespace
}  // namespace sidq
