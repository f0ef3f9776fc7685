// BENCH exec: parallel fleet cleaning throughput (serial vs. FleetRunner).
//
// Two honest workloads over the same synthetic 10k-trajectory fleet:
//
//   cpu_bound      pure cleaning arithmetic (jitter -> speed-outlier repair
//                  -> Kalman smoothing -> DP-SED simplification). Speedup
//                  here tracks physical cores; on a 1-core container it is
//                  ~1x by construction.
//   latency_bound  each trajectory first pays a simulated sensor-gateway
//                  fetch (50 us sleep) before the same smoothing step --
//                  the IoT regime where cleaning stalls on ingest I/O. The
//                  workers overlap the stalls, so speedup survives even a
//                  single core.
//
// Every parallel configuration is checked bit-identical to the serial
// reference; a mismatch is a hard failure (exit 1), so this bench doubles
// as a determinism gate. The instrumented run's metrics snapshot rides in
// the BENCH_JSON payload under obs.metrics; scripts/bench_json.py records
// that line as BENCH_exec.json.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <string>
#include <thread>  // std::this_thread::sleep_for models gateway fetch
#include <vector>

#include "bench/bench_util.h"
#include "core/hash.h"
#include "core/pipeline.h"
#include "core/random.h"
#include "core/trajectory.h"
#include "exec/fleet_runner.h"
#include "obs/export.h"
#include "obs/observer.h"
#include "outlier/trajectory_outliers.h"
#include "reduce/simplify.h"
#include "refine/kalman.h"

namespace sidq {
namespace {

constexpr size_t kFleetSize = 10'000;
constexpr size_t kPointsEach = 64;
constexpr uint64_t kSeed = 4242;

std::vector<Trajectory> MakeFleet() {
  Rng rng(kSeed);
  std::vector<Trajectory> fleet;
  fleet.reserve(kFleetSize);
  for (size_t i = 0; i < kFleetSize; ++i) {
    Trajectory t(static_cast<ObjectId>(i));
    double x = rng.Uniform(0.0, 5000.0);
    double y = rng.Uniform(0.0, 5000.0);
    double vx = rng.Gaussian(0.0, 8.0);
    double vy = rng.Gaussian(0.0, 8.0);
    for (size_t k = 0; k < kPointsEach; ++k) {
      t.AppendUnordered(TrajectoryPoint(static_cast<Timestamp>(k) * 1000,
                                        geometry::Point(x, y), 8.0));
      vx += rng.Gaussian(0.0, 1.0);
      vy += rng.Gaussian(0.0, 1.0);
      x += vx;
      y += vy;
    }
    fleet.push_back(std::move(t));
  }
  return fleet;
}

TrajectoryPipeline MakeCpuPipeline() {
  TrajectoryPipeline pipeline;
  pipeline.AddSeeded("gps_jitter",
                     [](const Trajectory& in, Rng& rng) -> StatusOr<Trajectory> {
                       Trajectory out(in.object_id());
                       for (const TrajectoryPoint& pt : in.points()) {
                         TrajectoryPoint moved = pt;
                         moved.p.x += rng.Gaussian(0.0, 6.0);
                         moved.p.y += rng.Gaussian(0.0, 6.0);
                         out.AppendUnordered(moved);
                       }
                       return out;
                     });
  pipeline.Add(std::make_unique<outlier::SpeedOutlierRepairStage>());
  pipeline.Add("kalman_smooth",
               [](const Trajectory& in) -> StatusOr<Trajectory> {
                 return refine::KalmanFilter2D().Smooth(in);
               });
  pipeline.Add("dp_sed_simplify",
               [](const Trajectory& in) -> StatusOr<Trajectory> {
                 return reduce::DouglasPeuckerSed(in, 3.0);
               });
  return pipeline;
}

TrajectoryPipeline MakeLatencyPipeline() {
  TrajectoryPipeline pipeline;
  pipeline.Add("gateway_fetch",
               [](const Trajectory& in) -> StatusOr<Trajectory> {
                 // Stand-in for the per-device ingest round trip.
                 // sidq: allow-wallclock(bench measures real latency hiding)
                 std::this_thread::sleep_for(std::chrono::microseconds(50));
                 return in;
               });
  pipeline.Add("kalman_smooth",
               [](const Trajectory& in) -> StatusOr<Trajectory> {
                 return refine::KalmanFilter2D().Smooth(in);
               });
  return pipeline;
}

// Process CPU seconds (all threads). The observability overhead compares
// CPU cost, not wall time: determinism makes plain and instrumented runs do
// identical pipeline work, and CPU time is robust to co-tenant preemption
// that makes a ~5% wall-clock effect unmeasurable on a shared box.
double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

// FNV-1a over the raw bit patterns: any single-bit divergence shows.
uint64_t FleetChecksum(const std::vector<Trajectory>& fleet) {
  uint64_t h = kFnvOffset;
  for (const Trajectory& t : fleet) {
    h = FnvMix(h, static_cast<uint64_t>(t.object_id()));
    for (const TrajectoryPoint& pt : t.points()) {
      h = FnvMix(h, static_cast<uint64_t>(pt.t));
      h = FnvMix(h, DoubleBits(pt.p.x));
      h = FnvMix(h, DoubleBits(pt.p.y));
    }
  }
  return h;
}

struct RunPoint {
  int threads = 0;  // 0 = serial reference
  double seconds = 0.0;
  double traj_per_s = 0.0;
  double speedup = 1.0;
};

// Benchmarks one pipeline serial vs. parallel; exits on nondeterminism.
std::vector<RunPoint> BenchPipeline(const std::string& label,
                                    const TrajectoryPipeline& pipeline,
                                    const std::vector<Trajectory>& fleet,
                                    size_t shard_size) {
  std::vector<RunPoint> points;

  auto t0 = std::chrono::steady_clock::now();
  auto serial = pipeline.RunBatch(fleet, kSeed);
  const double serial_s = bench::SecondsSince(t0);
  if (!serial.ok()) bench::Die(label + ": serial run", serial.status());
  const uint64_t golden = FleetChecksum(*serial);
  points.push_back(
      {0, serial_s, static_cast<double>(fleet.size()) / serial_s, 1.0});

  for (const int threads : {1, 2, 4, 8}) {
    exec::FleetRunner::Options options;
    options.num_threads = threads;
    options.shard_size = shard_size;
    options.base_seed = kSeed;
    const exec::FleetRunner runner(&pipeline, options);
    t0 = std::chrono::steady_clock::now();
    const exec::FleetResult result = runner.Run(fleet);
    const double secs = bench::SecondsSince(t0);
    const std::string run = label + ": " + std::to_string(threads) + "-thread";
    if (!result.ok()) bench::Die(run + " run", result.first_error);
    bench::RequireEqual(run + " output vs serial", golden,
                        FleetChecksum(result.cleaned));
    points.push_back({threads, secs,
                      static_cast<double>(fleet.size()) / secs,
                      serial_s / secs});
  }

  // Resilience-disarmed gate: with the full resilience machinery switched
  // on (best-effort quarantine, retries, per-object virtual-clock
  // deadlines) but no FailPoint armed, the output must STILL be
  // bit-identical to the plain serial reference -- the machinery may cost
  // nothing when idle.
  {
    exec::FleetRunner::Options options;
    options.num_threads = 8;
    options.shard_size = shard_size;
    options.base_seed = kSeed;
    options.max_quarantine_fraction = 1.0;  // quarantine, never stop
    options.retry.max_retries = 2;
    options.virtual_time = true;
    options.deadline_ms = 60'000;
    const exec::FleetRunner runner(&pipeline, options);
    const exec::FleetResult result = runner.Run(fleet);
    if (!result.ok()) bench::Die(label + ": resilient run", result.first_error);
    bench::RequireEqual(label + ": resilient run annotations", 0,
                        result.annotations.size());
    bench::RequireEqual(label + ": resilient run output vs serial", golden,
                        FleetChecksum(result.cleaned));
  }
  return points;
}

struct ObsOverhead {
  double plain_s = 0.0;
  double instrumented_s = 0.0;
  double slowdown = 1.0;
  size_t spans = 0;
  std::string metrics_json;  // the last instrumented run's snapshot
};

// Instrumentation overhead: the same resilient run (best-effort, retries
// armed, virtual-time deadlines) with and without obs sinks attached,
// best-of-8 each. The instrumented output must stay bit-identical to the
// plain run (exit 1 otherwise): observation may cost time but must never
// perturb results. The cost itself, obs_slowdown, is recorded, not gated
// here; scripts/bench_compare.py bounds only its drift against the
// committed artifact. The absolute <= 5% ceiling is ROADMAP.md item 1.
ObsOverhead BenchObsOverhead(const TrajectoryPipeline& pipeline,
                             const std::vector<Trajectory>& fleet) {
  auto make_options = [] {
    exec::FleetRunner::Options options;
    options.num_threads = 4;
    options.shard_size = 64;
    options.base_seed = kSeed;
    options.max_quarantine_fraction = 1.0;  // quarantine, never stop
    options.retry.max_retries = 2;
    options.virtual_time = true;
    options.deadline_ms = 60'000;
    return options;
  };

  // Interleaved plain/instrumented reps with best-of on each side: noise
  // on a shared box is additive, so the minimum of enough reps converges
  // to the true cost of each configuration. The pair order alternates each
  // rep so drifting background load cannot systematically hand one side
  // the quiet windows.
  constexpr int kObsReps = 8;
  ObsOverhead o;
  o.plain_s = 1e300;
  o.instrumented_s = 1e300;
  uint64_t plain_checksum = 0;
  uint64_t instrumented_checksum = 0;

  auto run_plain = [&] {
    const exec::FleetRunner runner(&pipeline, make_options());
    const double cpu0 = CpuSeconds();
    const exec::FleetResult result = runner.Run(fleet);
    o.plain_s = std::min(o.plain_s, CpuSeconds() - cpu0);
    if (!result.ok()) bench::Die("obs_overhead: plain run", result.first_error);
    plain_checksum = FleetChecksum(result.cleaned);
  };
  auto run_instrumented = [&] {
    // Fresh sinks per rep so the exported snapshot covers exactly one run.
    obs::MetricsRegistry registry;
    obs::Tracer tracer;
    obs::ObsSinks sinks;
    sinks.metrics = &registry;
    sinks.tracer = &tracer;
    auto options = make_options();
    options.obs = &sinks;
    const exec::FleetRunner runner(&pipeline, options);
    const double cpu0 = CpuSeconds();
    const exec::FleetResult result = runner.Run(fleet);
    o.instrumented_s = std::min(o.instrumented_s, CpuSeconds() - cpu0);
    if (!result.ok()) {
      bench::Die("obs_overhead: instrumented run", result.first_error);
    }
    instrumented_checksum = FleetChecksum(result.cleaned);
    o.spans = tracer.num_spans();
    StatusOr<std::string> json = obs::MetricsToJson(registry.Snapshot());
    if (!json.ok()) bench::Die("obs_overhead: metrics export", json.status());
    o.metrics_json = std::move(*json);
  };

  for (int rep = 0; rep < kObsReps; ++rep) {
    if (rep % 2 == 0) {
      run_plain();
      run_instrumented();
    } else {
      run_instrumented();
      run_plain();
    }
  }
  bench::RequireEqual("obs_overhead: instrumented output vs plain",
                      plain_checksum, instrumented_checksum);
  o.slowdown = o.instrumented_s / o.plain_s;
  return o;
}

void PrintTable(const char* label, const std::vector<RunPoint>& points) {
  std::printf("workload: %s\n", label);
  bench::Table table({"config", "seconds", "traj/s", "speedup"});
  for (const RunPoint& p : points) {
    table.AddRow({p.threads == 0 ? "serial" : std::to_string(p.threads) + " threads",
                  bench::F3(p.seconds), bench::FInt(p.traj_per_s),
                  bench::F2(p.speedup)});
  }
  table.Print();
}

void JsonPoints(bench::JsonWriter& json, const char* key,
                const std::vector<RunPoint>& points) {
  json.Array(key);
  for (const RunPoint& p : points) {
    json.Object()
        .Int("threads", p.threads)
        .Num("seconds", p.seconds, 4)
        .Num("traj_per_s", p.traj_per_s, 0)
        .Num("speedup", p.speedup, 2)
        .End();
  }
  json.End();
}

}  // namespace
}  // namespace sidq

int main(int argc, char** argv) {
  using namespace sidq;

  if (argc > 1) {
    std::fprintf(stderr, "usage: %s\n", argv[0]);
    return 2;
  }

  bench::Banner("BENCH exec", "parallel fleet cleaning",
                "DQ management must keep up with high-velocity multi-source "
                "IoT streams (Zubair et al.; Karkouch et al.); sharded "
                "parallel cleaning with deterministic replay");

  const auto fleet = MakeFleet();
  std::printf("fleet: %zu trajectories x %zu points, %u hardware threads\n\n",
              fleet.size(), static_cast<size_t>(kPointsEach),
              std::thread::hardware_concurrency());

  const auto cpu_pipeline = MakeCpuPipeline();
  const auto cpu =
      BenchPipeline("cpu_bound", cpu_pipeline, fleet, /*shard_size=*/64);
  PrintTable("cpu_bound (jitter -> outlier repair -> Kalman -> DP-SED)", cpu);

  const auto io = BenchPipeline("latency_bound", MakeLatencyPipeline(), fleet,
                                /*shard_size=*/16);
  PrintTable("latency_bound (50us gateway fetch -> Kalman)", io);

  const ObsOverhead obs = BenchObsOverhead(cpu_pipeline, fleet);
  std::printf(
      "observability: %.4fs plain -> %.4fs instrumented "
      "(CPU, %.2fx slowdown, %zu spans), output bit-identical\n",
      obs.plain_s, obs.instrumented_s, obs.slowdown, obs.spans);

  std::printf(
      "determinism: all parallel configurations bit-identical to serial, "
      "including disarmed best-effort resilience options and the fully "
      "instrumented run\n\n");

  bench::JsonWriter json;
  json.Str("bench", "exec_fleet")
      .Int("fleet_size", fleet.size())
      .Int("points_per_trajectory", kPointsEach)
      .Int("hardware_threads", std::thread::hardware_concurrency())
      .Str("determinism", "bit-identical")
      .Object("workloads");
  JsonPoints(json, "cpu_bound", cpu);
  JsonPoints(json, "latency_bound", io);
  json.End()
      .Object("obs")
      .Num("plain_s", obs.plain_s, 4)
      .Num("instrumented_s", obs.instrumented_s, 4)
      .Num("obs_slowdown", obs.slowdown, 3)
      .Int("spans", obs.spans)
      .Raw("metrics", obs.metrics_json);
  bench::EmitJson(json);
  return 0;
}
