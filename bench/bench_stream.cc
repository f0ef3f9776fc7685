// BENCH stream: record-at-a-time ingestion engine throughput and replay
// determinism (DESIGN.md "Streaming & watermarks").
//
// Workload: a seeded fleet of sensors sampling a smooth scalar field,
// dirtied with noise, spikes, duplicate deliveries, and stragglers past
// the lateness bound, then recorded as an arrival-ordered event log.
//
//   ingest        serial Push() over the whole log: sustained records/s,
//                 the figure that decides whether online cleaning keeps up
//                 with a device gateway. Per-record Push latency is the
//                 end-to-end benchmark's stream.push_us_p50/p99, measured
//                 on the composed path (bench/e2e/README.md).
//   window_close  amortized cost of closing a window (online outlier
//                 gate + incremental Kalman + KPI fold over the filter's
//                 time-ordered events), measured over the engine's own
//                 closes.
//   replay        Replay() at 1/2/8 workers vs. the serial engine.
//
// Every configuration -- serial engine, every worker count, and the batch
// reference -- must agree on OutputChecksum bit-for-bit; any mismatch
// exits 1, so this bench doubles as the stream determinism gate.
// scripts/bench_json.py records the BENCH_JSON line as BENCH_stream.json.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "core/random.h"
#include "geometry/bbox.h"
#include "sim/sensor_field.h"
#include "stream/engine.h"
#include "stream/event_log.h"
#include "stream/replay.h"
#include "stream/rules.h"

namespace sidq {
namespace {

constexpr uint64_t kSeed = 777;

stream::EventLog MakeLog(size_t num_sensors, size_t samples_per_sensor) {
  Rng rng(kSeed);
  const geometry::BBox bounds(geometry::Point(0, 0),
                              geometry::Point(8000, 8000));
  const sim::ScalarField field = sim::ScalarField::MakeRandom(
      bounds, 3, 20.0, 30.0, 300.0, 900.0, 3600.0, &rng);
  const std::vector<geometry::Point> sensors =
      sim::DeploySensors(bounds, num_sensors, &rng);
  StDataset truth = sim::SampleField(field, sensors, 0, 60'000,
                                     samples_per_sensor, "pm25");
  StDataset dirty = sim::AddValueNoise(truth, 0.8, &rng);
  dirty = sim::AddValueSpikes(dirty, 0.02, 400.0, &rng);

  stream::ArrivalOptions options;
  options.mean_delay_ms = 20'000;
  options.straggler_probability = 0.05;
  options.straggler_delay_ms = 400'000;
  options.duplicate_probability = 0.05;
  return stream::RecordArrivals(dirty, options, &rng);
}

stream::StreamConfig MakeConfig() {
  stream::StreamConfig config;
  stream::SensorRule rule;
  rule.min_value = -50.0;
  rule.max_value = 500.0;
  rule.expected_interval_ms = 60'000;
  rule.max_lateness_ms = 120'000;
  rule.max_rate_per_s = 1.0;
  config.rules.set_default_rule(rule);
  config.window_ms = 300'000;
  config.window_capacity = 32;
  config.robust_z.z_threshold = 4.0;
  config.robust_z.min_samples = 6;
  return config;
}

struct IngestStats {
  double seconds = 0.0;
  double records_per_s = 0.0;
  double flush_s = 0.0;
  size_t windows = 0;
  double close_us_per_window = 0.0;
  uint64_t checksum = 0;
};

// One serial engine pass, best-of-`reps` on the aggregate time (noise on a
// shared box is additive).
IngestStats BenchIngest(const stream::EventLog& log,
                        const stream::StreamConfig& config, int reps) {
  IngestStats best;
  best.seconds = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    stream::StreamEngine engine(config);
    engine.set_field_name(log.field_name);
    const auto t0 = std::chrono::steady_clock::now();
    for (const stream::StreamEvent& ev : log.events) {
      const Status st = engine.Push(ev);
      if (!st.ok()) bench::Die("ingest: Push", st);
    }
    const double ingest_s = bench::SecondsSince(t0);
    const auto f0 = std::chrono::steady_clock::now();
    const Status st = engine.Flush();
    const double flush_s = bench::SecondsSince(f0);
    if (!st.ok()) bench::Die("ingest: Flush", st);
    stream::StreamOutput out = engine.TakeOutput();
    if (ingest_s < best.seconds) {
      best.seconds = ingest_s;
      best.flush_s = flush_s;
      best.windows = out.kpis.size();
      best.checksum = stream::OutputChecksum(out);
    }
  }
  best.records_per_s = static_cast<double>(log.events.size()) / best.seconds;
  // Window-close work happens inline in Push (watermark crossings) and in
  // Flush; amortize the whole pass over the closes for an honest per-close
  // figure.
  best.close_us_per_window =
      best.windows == 0
          ? 0.0
          : (best.seconds + best.flush_s) * 1e6 /
                static_cast<double>(best.windows);
  return best;
}

struct ReplayPoint {
  int threads = 0;
  double seconds = 0.0;
  double records_per_s = 0.0;
  double speedup = 1.0;
};

}  // namespace
}  // namespace sidq

int main(int argc, char** argv) {
  using namespace sidq;

  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--quick") {
      quick = true;
    } else {
      std::fprintf(stderr, "usage: %s [--quick]\n", argv[0]);
      return 2;
    }
  }

  bench::Banner("BENCH stream", "record-at-a-time ingestion engine",
                "online cleaning must keep pace with device gateways "
                "(Karkouch et al.): watermarked windows, incremental "
                "Kalman, online outlier gate, deterministic replay");

  const size_t num_sensors = quick ? 16 : 64;
  const size_t samples = quick ? 120 : 400;
  const int reps = quick ? 1 : 3;
  const stream::EventLog log = MakeLog(num_sensors, samples);
  const stream::StreamConfig config = MakeConfig();
  std::printf("log: %zu events from %zu sensors, %u hardware threads%s\n\n",
              log.events.size(), num_sensors,
              std::thread::hardware_concurrency(), quick ? " (--quick)" : "");

  const IngestStats ingest = BenchIngest(log, config, reps);

  bench::Table ingest_table({"metric", "value"});
  ingest_table.AddRow({"ingest seconds", bench::F3(ingest.seconds)});
  ingest_table.AddRow({"records/s", bench::FInt(ingest.records_per_s)});
  ingest_table.AddRow({"windows closed", std::to_string(ingest.windows)});
  ingest_table.AddRow(
      {"amortized us/window", bench::F1(ingest.close_us_per_window)});
  ingest_table.Print();

  // The batch reference must agree with the serial engine before any
  // parallel claim means anything.
  bench::RequireEqual(
      "batch reference vs serial engine", ingest.checksum,
      stream::OutputChecksum(stream::BatchReference(log, config)));

  std::vector<ReplayPoint> replay;
  double serial_replay_s = 0.0;
  for (const int threads : {1, 2, 8}) {
    stream::ReplayOptions options;
    options.num_threads = threads;
    double best_s = 1e300;
    for (int rep = 0; rep < reps; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      const StatusOr<stream::StreamOutput> out =
          stream::Replay(log, config, options);
      const double secs = bench::SecondsSince(t0);
      const std::string what = std::to_string(threads) + "-thread replay";
      if (!out.ok()) bench::Die(what, out.status());
      bench::RequireEqual(what + " vs serial engine", ingest.checksum,
                          stream::OutputChecksum(*out));
      best_s = std::min(best_s, secs);
    }
    if (threads == 1) serial_replay_s = best_s;
    replay.push_back({threads, best_s,
                      static_cast<double>(log.events.size()) / best_s,
                      serial_replay_s / best_s});
  }

  bench::Table replay_table({"threads", "seconds", "records/s", "speedup"});
  for (const ReplayPoint& p : replay) {
    replay_table.AddRow({std::to_string(p.threads), bench::F3(p.seconds),
                         bench::FInt(p.records_per_s), bench::F2(p.speedup)});
  }
  replay_table.Print();

  std::printf(
      "determinism: serial engine, batch reference, and every replay "
      "worker count agree on checksum %llu\n\n",
      static_cast<unsigned long long>(ingest.checksum));

  // records_per_s is an absolute machine-dependent rate; speedup is a
  // same-machine quotient, the only figure bench_compare's --ratios-only
  // mode holds across hosts.
  bench::JsonWriter json;
  json.Str("bench", "stream")
      .Int("events", log.events.size())
      .Int("sensors", num_sensors)
      .Int("hardware_threads", std::thread::hardware_concurrency())
      .Str("determinism", "bit-identical")
      .Str("checksum", std::to_string(ingest.checksum))
      .Object("ingest")
      .Num("seconds", ingest.seconds, 4)
      .Num("records_per_s", ingest.records_per_s, 0)
      .End()
      .Object("window_close")
      .Int("windows", ingest.windows)
      .Num("close_us_per_window", ingest.close_us_per_window, 1)
      .End()
      .Array("replay");
  for (const ReplayPoint& p : replay) {
    json.Object()
        .Int("threads", p.threads)
        .Num("seconds", p.seconds, 4)
        .Num("records_per_s", p.records_per_s, 0)
        .Num("speedup", p.speedup, 2)
        .End();
  }
  bench::EmitJson(json);
  return 0;
}
