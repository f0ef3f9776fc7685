#include "stream/replay.h"

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "exec/parallel_for.h"
#include "obs/trace.h"

namespace sidq {
namespace stream {

StatusOr<StreamOutput> Replay(const EventLog& log, const StreamConfig& config,
                              const ReplayOptions& options) {
  const int threads = std::max(1, options.num_threads);
  obs::TraceSpan replay_span;
  if (options.sinks.tracer != nullptr) {
    replay_span = obs::TraceSpan(options.sinks.tracer, options.clock,
                                 obs::kProcessKey, "stream.replay", "stream");
    replay_span.set_note("threads=" + std::to_string(threads) +
                         " events=" + std::to_string(log.size()));
  }
  const auto replay = [&](const EventLog& part) -> StatusOr<StreamOutput> {
    StreamEngine engine(config, options.sinks, options.clock, options.ctx);
    SIDQ_RETURN_IF_ERROR(ReplayInto(&engine, part));
    return engine.TakeOutput();
  };
  if (threads == 1) return replay(log);

  // Shard by sensor: each sub-log keeps arrival order (ascending seq), and
  // every decision the engine makes is per-sensor, so shard outputs are
  // the serial outputs of their sensors.
  std::vector<EventLog> shards(static_cast<size_t>(threads));
  for (EventLog& shard : shards) shard.field_name = log.field_name;
  for (const StreamEvent& ev : log.events) {
    shards[ev.record.sensor % static_cast<uint64_t>(threads)].events.push_back(
        ev);
  }

  std::vector<StatusOr<StreamOutput>> outputs(
      shards.size(), Status::Internal("replay shard did not run"));
  exec::ParallelFor(shards.size(), shards.size(),
                    [&](size_t i) { outputs[i] = replay(shards[i]); });

  // Merge in shard order; the lowest-index failure wins, so the reported
  // Status does not depend on which shard finished first.
  StreamOutput merged;
  merged.cleaned = StDataset(log.field_name);
  for (StatusOr<StreamOutput>& shard_output : outputs) {
    SIDQ_RETURN_IF_ERROR(shard_output.status());
    merged.Merge(std::move(shard_output).value());
  }
  merged.Canonicalize();
  return merged;
}

StreamOutput BatchReference(const EventLog& log, const StreamConfig& config) {
  AdmissionFilter filter(&config.rules, config.window_ms,
                         config.window_capacity);
  StreamOutput out;
  out.cleaned = StDataset(log.field_name);
  out.ingested = static_cast<int64_t>(log.size());

  // Admission and windows are per sensor, so the batch admits one sensor's
  // events (in arrival order) and closes all its windows before the next
  // sensor: only one sensor's windows are open at a time.
  std::map<SensorId, std::vector<const StreamEvent*>> by_sensor;
  for (const StreamEvent& ev : log.events) {
    by_sensor[ev.record.sensor].push_back(&ev);
  }
  for (const auto& [sensor, events] : by_sensor) {
    SensorSummary summary;
    summary.sensor = sensor;
    for (const StreamEvent* ev : events) {
      const AdmissionDecision d = filter.Observe(*ev);
      if (!d.admitted) {
        out.ledger.Add(ev->seq, ev->record, d.reason);
        ++summary.quarantined;
        continue;
      }
      ++summary.admitted;
    }
    SensorPipeline pipeline(config.kalman, config.robust_z, config.drift);
    std::vector<StRecord> cleaned;
    while (const std::optional<int64_t> window_index =
               filter.ReadyWindow(sensor, /*end_of_stream=*/true)) {
      const WindowKpis kpis = ProcessWindow(
          sensor, *window_index, config.window_ms,
          filter.ReleaseWindow(sensor, *window_index),
          *config.rules.Find(sensor), config.thresholds, &pipeline, &cleaned,
          &out.ledger, &out.alerts);
      out.kpis.push_back(kpis);
      summary.quarantined += kpis.outliers;
      ++summary.windows_closed;
    }
    if (!cleaned.empty()) {
      StSeries series(sensor, cleaned.front().loc);
      series.mutable_records() = std::move(cleaned);
      out.cleaned.AddSeries(std::move(series));
    }
    summary.watermark = filter.Watermark(sensor);
    out.sensors.push_back(summary);
  }
  out.Canonicalize();
  return out;
}

}  // namespace stream
}  // namespace sidq
