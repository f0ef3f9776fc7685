// Fleet telematics end-to-end, now executed by the parallel fleet engine:
// raw GPS from many vehicles is degraded per-vehicle (seeded substreams),
// then cleaned by a TrajectoryPipeline -- HMM map matching (Location
// Refinement), road-constrained gap completion (Uncertainty Elimination),
// DP-SED simplification (Data Reduction) -- run over the whole fleet by
// exec::FleetRunner's fork-join workers. A dispatcher's continuous
// range query consumes the cleaned streams (Exploitation).
//
//   fleet_cleaning [--threads N]       (default 0 = all hardware threads)
//                  [--deadline-ms D]   per-vehicle cleaning budget
//                  [--max-retries R]   retries for transient stage failures
//                  [--best-effort]     quarantine failing vehicles instead of
//                                      stopping the fleet at the first one
//                                      (max_quarantine_fraction 1.0)
//                  [--metrics-out F]   write the run's metrics snapshot to F
//                                      (canonical JSON)
//                  [--trace-out F]     write the run's span trace to F
//                                      (Chrome trace_event JSON -- load it
//                                      in chrome://tracing or Perfetto)
//
// The determinism contract means --threads changes only the wall clock:
// every vehicle's cleaned trajectory is bit-identical for any N. Map
// matching is a degradation ladder: when the HMM Viterbi rung misses the
// deadline, the vehicle falls to a geometric nearest-road snap and the
// result is annotated degraded rather than lost.
//
// --metrics-out / --trace-out switch the run to virtual time so the
// exported files are themselves deterministic: two invocations with the
// same flags produce byte-identical JSON, for any --threads value.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "core/quality.h"
#include "core/random.h"
#include "exec/fleet_runner.h"
#include "geometry/bbox.h"
#include "obs/export.h"
#include "obs/observer.h"
#include "query/continuous.h"
#include "reduce/simplify.h"
#include "refine/hmm_map_matcher.h"
#include "sim/noise.h"
#include "sim/trajectory_sim.h"
#include "uncertainty/completion.h"

int main(int argc, char** argv) {
  using namespace sidq;

  int threads = 0;
  long deadline_ms = -1;
  int max_retries = 0;
  bool best_effort = false;
  std::string metrics_out;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--deadline-ms") == 0 && i + 1 < argc) {
      deadline_ms = std::atol(argv[++i]);
    } else if (std::strcmp(argv[i], "--max-retries") == 0 && i + 1 < argc) {
      max_retries = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--best-effort") == 0) {
      best_effort = true;
    } else if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
      metrics_out = argv[++i];
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--threads N] [--deadline-ms D] "
                   "[--max-retries R] [--best-effort] "
                   "[--metrics-out FILE] [--trace-out FILE]\n",
                   argv[0]);
      return 2;
    }
  }
  const bool observed_run = !metrics_out.empty() || !trace_out.empty();

  Rng rng(7);
  const int kVehicles = 24;
  const uint64_t kDegradeSeed = 99;
  sim::Fleet fleet = sim::MakeFleet(12, 12, 180.0, kVehicles, 24, &rng);
  std::printf("fleet_cleaning: %d vehicles on a %zu-edge road network, "
              "--threads %d\n\n",
              kVehicles, fleet.network.num_edges(), threads);

  // Degrade: GPS noise plus sparse reporting to save battery. Each vehicle
  // degrades under its own substream so the input fleet is reproducible
  // regardless of iteration or thread count.
  std::vector<Trajectory> observed;
  observed.reserve(fleet.trajectories.size());
  for (const Trajectory& truth : fleet.trajectories) {
    Rng vehicle_rng = Rng::ForKey(kDegradeSeed, truth.object_id());
    observed.push_back(
        sim::Resample(sim::AddGpsNoise(truth, 14.0, &vehicle_rng), 5000));
  }

  // The cleaning pipeline. Stages are shared read-only across workers, so
  // each map-match call builds its own matcher: HmmMapMatcher keeps a
  // per-instance Dijkstra cache that is not safe to share between threads.
  const sim::RoadNetwork* network = &fleet.network;
  TrajectoryPipeline pipeline;
  // Map matching is a degradation ladder: the HMM Viterbi rung observes the
  // per-vehicle deadline; a vehicle whose budget runs out falls to a cheap
  // geometric nearest-road snap instead of failing the fleet.
  auto map_match = std::make_unique<LadderStage>("map_match");
  map_match->AddRungCtx(
      "hmm_viterbi",
      [network](const Trajectory& in,
                const StageContext& ctx) -> StatusOr<Trajectory> {
        refine::HmmMapMatcher matcher(network);
        SIDQ_ASSIGN_OR_RETURN(auto match, matcher.Match(in, ctx.exec));
        return match.matched;
      });
  map_match->AddRung(
      "nearest_road_snap",
      [network](const Trajectory& in) -> StatusOr<Trajectory> {
        Trajectory out(in.object_id());
        for (const TrajectoryPoint& pt : in.points()) {
          SIDQ_ASSIGN_OR_RETURN(EdgeId e, network->NearestEdge(pt.p));
          TrajectoryPoint snapped = pt;
          snapped.p = network->ProjectToEdge(e, pt.p);
          out.AppendUnordered(snapped);
        }
        return out;
      });
  pipeline.Add(std::move(map_match));
  pipeline.Add("complete",
               [network](const Trajectory& in) -> StatusOr<Trajectory> {
                 return uncertainty::RoadCompleter(network).Complete(in);
               });
  pipeline.Add("simplify", [](const Trajectory& in) -> StatusOr<Trajectory> {
    return reduce::DouglasPeuckerSed(in, 2.0);
  });

  exec::FleetRunner::Options options;
  options.num_threads = threads;
  options.shard_size = 4;
  options.base_seed = kDegradeSeed;
  options.deadline_ms = deadline_ms;
  options.retry.max_retries = max_retries;
  if (best_effort) options.max_quarantine_fraction = 1.0;

  // Observability sinks. An observed run switches to virtual time so the
  // exported metrics/trace JSON is a pure function of the inputs --
  // byte-identical across invocations and thread counts.
  obs::MetricsRegistry registry;
  obs::Tracer tracer;
  obs::ObsSinks sinks;
  if (observed_run) {
    sinks.metrics = &registry;
    sinks.tracer = &tracer;
    options.obs = &sinks;
    options.virtual_time = true;
  }
  // Record any chaos faults (none armed here, but the hook is part of the
  // workflow this example demonstrates).
  obs::ScopedFailPointObservation failpoint_observation(sinks);

  const exec::FleetRunner runner(&pipeline, options);

  const auto t0 = std::chrono::steady_clock::now();
  const exec::FleetResult result =
      runner.RunProfiled(observed, &fleet.trajectories, TrajectoryProfiler());
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  if (!result.ok() && !(best_effort && result.partial_ok())) {
    std::fprintf(stderr, "fleet run failed: %s\n",
                 result.first_error.ToString().c_str());
    return 1;
  }
  std::printf("cleaned %zu vehicles in %.3f s (%zu shards of %zu)\n",
              observed.size(), wall_s, result.shards_total,
              options.shard_size);
  std::printf("%s\n", result.ResilienceSummary().c_str());
  for (const exec::ObjectAnnotation& a : result.annotations) {
    std::printf("  vehicle %llu: %s", static_cast<unsigned long long>(a.id),
                ExecQualityName(a.quality));
    if (a.retries > 0) std::printf(", %d retries", a.retries);
    for (const DegradeEvent& d : a.degraded) {
      std::printf(", %s fell to rung %d (%s): %s", d.stage.c_str(), d.rung,
                  d.rung_name.c_str(), d.cause.ToString().c_str());
    }
    if (!a.status.ok()) std::printf(": %s", a.status.ToString().c_str());
    std::printf("\n");
  }
  std::printf("\n");

  // Fleet-level DQ report: accuracy RMSE per stage, aggregated over the
  // whole fleet (the per-stage mean/p50/p99 merge of every StageReport).
  std::printf("fleet accuracy (m, vs. ground truth)   mean    p50    p99\n");
  for (const exec::FleetStageStats& stats : result.stage_stats) {
    const auto it = stats.metrics.find(DqDimension::kAccuracy);
    if (it == stats.metrics.end()) continue;
    std::printf("  %-36s %6.1f %6.1f %6.1f\n", stats.stage_name.c_str(),
                it->second.mean, it->second.p50, it->second.p99);
  }
  std::printf("\n");

  // Data reduction across the fleet.
  size_t observed_points = 0, cleaned_points = 0;
  for (size_t i = 0; i < observed.size(); ++i) {
    observed_points += observed[i].size();
    cleaned_points += result.cleaned[i].size();
  }
  std::printf("gap completion + simplification\n");
  std::printf("  sparse points:   %zu\n", observed_points);
  std::printf("  cleaned points:  %zu (%.1fx densification after DP-SED)\n\n",
              cleaned_points,
              static_cast<double>(cleaned_points) / observed_points);

  // Exploitation: feed the cleaned streams to the dispatcher's continuous
  // range query with safe regions.
  query::SafeRegionMonitor monitor(
      geometry::BBox(500, 500, 1400, 1400));  // dispatcher watches downtown
  for (size_t i = 0; i < result.cleaned.size(); ++i) {
    for (const auto& pt : result.cleaned[i].points()) {
      monitor.ProcessUpdate(result.cleaned[i].object_id(), pt.p);
    }
  }
  std::printf("continuous range monitoring (safe regions)\n");
  std::printf("  updates: %zu, messages: %zu (%.0f%% saved), %zu vehicles "
              "currently downtown\n",
              monitor.updates_processed(), monitor.messages_sent(),
              100.0 * monitor.MessageSavings(), monitor.inside().size());

  if (!metrics_out.empty()) {
    auto json = obs::MetricsToJson(registry.Snapshot());
    if (!json.ok()) {
      std::fprintf(stderr, "metrics export failed: %s\n",
                   json.status().ToString().c_str());
      return 1;
    }
    Status st = obs::WriteTextFile(metrics_out, json.value());
    if (!st.ok()) {
      std::fprintf(stderr, "metrics write failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    std::printf("\nmetrics snapshot -> %s\n", metrics_out.c_str());
  }
  if (!trace_out.empty()) {
    auto json = obs::TraceToChromeJson(tracer.CanonicalSpans());
    if (!json.ok()) {
      std::fprintf(stderr, "trace export failed: %s\n",
                   json.status().ToString().c_str());
      return 1;
    }
    Status st = obs::WriteTextFile(trace_out, json.value());
    if (!st.ok()) {
      std::fprintf(stderr, "trace write failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("trace (%zu spans, chrome://tracing) -> %s\n",
                tracer.num_spans(), trace_out.c_str());
  }
  return 0;
}
