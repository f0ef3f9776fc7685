#include "stream/engine.h"

#include <algorithm>
#include <optional>
#include <sstream>
#include <tuple>
#include <utility>

#include "core/failpoint.h"
#include "core/hash.h"
#include "core/retry.h"
#include "obs/export.h"

namespace sidq {
namespace stream {

// Additional attempts when a chaos site injects a transient fault.
constexpr int kMaxFaultRetries = 3;

void StreamOutput::Canonicalize() {
  std::sort(cleaned.mutable_series().begin(), cleaned.mutable_series().end(),
            [](const StSeries& a, const StSeries& b) {
              return a.sensor() < b.sensor();
            });
  ledger.Canonicalize();
  std::sort(kpis.begin(), kpis.end(),
            [](const WindowKpis& a, const WindowKpis& b) {
              return std::tie(a.sensor, a.window_start) <
                     std::tie(b.sensor, b.window_start);
            });
  std::sort(alerts.begin(), alerts.end(),
            [](const KpiAlert& a, const KpiAlert& b) {
              return std::tie(a.sensor, a.window_start, a.dimension) <
                     std::tie(b.sensor, b.window_start, b.dimension);
            });
  std::sort(sensors.begin(), sensors.end(),
            [](const SensorSummary& a, const SensorSummary& b) {
              return a.sensor < b.sensor;
            });
}

void StreamOutput::Merge(StreamOutput&& other) {
  if (cleaned.field_name().empty() && !other.cleaned.field_name().empty()) {
    StDataset renamed(other.cleaned.field_name());
    renamed.mutable_series() = std::move(cleaned.mutable_series());
    cleaned = std::move(renamed);
  }
  for (StSeries& s : other.cleaned.mutable_series()) {
    cleaned.AddSeries(std::move(s));
  }
  ledger.Merge(other.ledger);
  kpis.insert(kpis.end(), other.kpis.begin(), other.kpis.end());
  alerts.insert(alerts.end(), other.alerts.begin(), other.alerts.end());
  sensors.insert(sensors.end(), other.sensors.begin(), other.sensors.end());
  ingested += other.ingested;
}

std::string StreamOutputToJson(const StreamOutput& output) {
  using obs::internal_json::EscapeString;
  using obs::internal_json::FormatDouble;
  std::ostringstream out;
  out << "{\n\"field\":\"" << EscapeString(output.cleaned.field_name())
      << "\",\n\"ingested\":" << output.ingested << ",\n\"cleaned\":[";
  bool first = true;
  for (const StSeries& series : output.cleaned.series()) {
    for (const StRecord& rec : series.records()) {
      out << (first ? "" : ",") << "\n  {\"sensor\":" << rec.sensor
          << ",\"t\":" << rec.t << ",\"x\":" << FormatDouble(rec.loc.x)
          << ",\"y\":" << FormatDouble(rec.loc.y)
          << ",\"value\":" << FormatDouble(rec.value)
          << ",\"stddev\":" << FormatDouble(rec.stddev) << "}";
      first = false;
    }
  }
  out << (first ? "" : "\n") << "],\n\"quarantine\":" << output.ledger.ToJson()
      << ",\n\"kpis\":[";
  for (size_t i = 0; i < output.kpis.size(); ++i) {
    out << (i == 0 ? "" : ",") << "\n  " << WindowKpisToJson(output.kpis[i]);
  }
  out << (output.kpis.empty() ? "" : "\n") << "],\n\"alerts\":[";
  for (size_t i = 0; i < output.alerts.size(); ++i) {
    out << (i == 0 ? "" : ",") << "\n  " << KpiAlertToJson(output.alerts[i]);
  }
  out << (output.alerts.empty() ? "" : "\n") << "],\n\"sensors\":[";
  for (size_t i = 0; i < output.sensors.size(); ++i) {
    const SensorSummary& s = output.sensors[i];
    out << (i == 0 ? "" : ",") << "\n  {\"sensor\":" << s.sensor
        << ",\"admitted\":" << s.admitted
        << ",\"quarantined\":" << s.quarantined
        << ",\"windows_closed\":" << s.windows_closed
        << ",\"watermark\":" << s.watermark << "}";
  }
  out << (output.sensors.empty() ? "" : "\n") << "]\n}\n";
  return out.str();
}

uint64_t OutputChecksum(const StreamOutput& output) {
  const std::string json = StreamOutputToJson(output);
  return FnvBytes(kFnvOffset, json.data(), json.size());
}

StreamEngine::StreamEngine(const StreamConfig& config,
                           const obs::ObsSinks& sinks, const Clock* clock,
                           const ExecContext* ctx)
    : config_(config),
      sinks_(sinks),
      clock_(clock),
      ctx_(ctx != nullptr ? ctx : &default_ctx_),
      filter_(&config_.rules, config_.window_ms, config_.window_capacity) {
  if (sinks_.metrics != nullptr) {
    ingested_counter_ = sinks_.metrics->counter("stream.ingested");
    admitted_counter_ = sinks_.metrics->counter("stream.admitted");
    late_counter_ = sinks_.metrics->counter("stream.late");
    quarantined_counter_ = sinks_.metrics->counter("stream.quarantined");
    windows_counter_ = sinks_.metrics->counter("stream.windows.closed");
    outliers_counter_ = sinks_.metrics->counter("stream.outliers");
  }
}

StreamEngine::SensorState& StreamEngine::GetState(SensorId sensor) {
  auto [it, inserted] = sensors_.try_emplace(sensor);
  if (inserted) {
    it->second.pipeline =
        SensorPipeline(config_.kalman, config_.robust_z, config_.drift);
  }
  return it->second;
}

Status StreamEngine::EvaluateSite(const char* site, SensorId sensor,
                                  bool* corrupt) {
  Status s = Status::OK();
  for (int attempt = 0;; ++attempt) {
    s = MaybeInjectFailPoint(site, sensor, ctx_, corrupt);
    if (s.ok() || !IsTransient(s.code()) || attempt >= kMaxFaultRetries) {
      return s;
    }
    // Deterministic backoff on the context clock: instant under
    // VirtualClock, so retried runs stay virtual-time reproducible.
    ctx_->Stall(int64_t{1} << attempt);
  }
}

void StreamEngine::Quarantine(uint64_t seq, const StRecord& rec,
                              QuarantineReason reason, SensorState* state) {
  ledger_.Add(seq, rec, reason);
  CountQuarantined(reason, 1, state);
}

void StreamEngine::CountQuarantined(QuarantineReason reason, int64_t n,
                                    SensorState* state) {
  state->quarantined += n;
  quarantined_counter_.Increment(n);
  if (sinks_.metrics != nullptr) {
    const std::string name = QuarantineReasonName(reason);
    auto [it, inserted] = reason_counters_.try_emplace(name);
    if (inserted) {
      it->second = sinks_.metrics->counter("stream.quarantined." + name);
    }
    it->second.Increment(n);
  }
}

Status StreamEngine::Push(const StreamEvent& ev) {
  SIDQ_RETURN_IF_ERROR(ctx_->Check());
  ++ingested_;
  ingested_counter_.Increment();

  StreamEvent event = ev;
  bool corrupt = false;
  const Status fault =
      EvaluateSite(kIngestFailPoint, event.record.sensor, &corrupt);
  SensorState& state = GetState(event.record.sensor);
  if (!fault.ok()) {
    Quarantine(event.seq, event.record, QuarantineReason::kIngestFault,
               &state);
    return Status::OK();
  }
  if (corrupt) {
    // A corrupted reading: garbage value that the declarative range gate
    // downstream is expected to catch (the chaos test pins exactly this).
    event.record.value = 4e30;
  }

  const AdmissionDecision d = filter_.Observe(event);
  if (!d.admitted) {
    if (d.reason == QuarantineReason::kLate) late_counter_.Increment();
    Quarantine(event.seq, event.record, d.reason, &state);
    return Status::OK();
  }
  ++state.admitted;
  admitted_counter_.Increment();
  return CloseWindows(event.record.sensor, /*end_of_stream=*/false, &state);
}

Status StreamEngine::CloseWindows(SensorId sensor, bool end_of_stream,
                                  SensorState* state) {
  while (const std::optional<int64_t> window_index =
             filter_.ReadyWindow(sensor, end_of_stream)) {
    SIDQ_RETURN_IF_ERROR(ctx_->Check());
    CloseWindow(sensor, *window_index,
                filter_.ReleaseWindow(sensor, *window_index), state);
  }
  return Status::OK();
}

void StreamEngine::CloseWindow(SensorId sensor, int64_t window_index,
                               const OpenWindow& window, SensorState* state) {
  const Status fault = EvaluateSite(kWindowCloseFailPoint, sensor, nullptr);
  if (!fault.ok()) {
    // The whole window is lost: divert its records so nothing vanishes
    // silently, but emit no KPIs -- the window never "happened".
    for (const StreamEvent& ev : window.events) {
      Quarantine(ev.seq, ev.record, QuarantineReason::kWindowFault, state);
    }
    return;
  }

  const WindowKpis kpis = ProcessWindow(
      sensor, window_index, config_.window_ms, window,
      *config_.rules.Find(sensor), config_.thresholds, &state->pipeline,
      &state->cleaned, &ledger_, &alerts_);
  if (kpis.outliers > 0) {
    CountQuarantined(QuarantineReason::kOutlier, kpis.outliers, state);
  }
  kpis_.push_back(kpis);
  ++state->windows_closed;
  windows_counter_.Increment();
  outliers_counter_.Increment(kpis.outliers);

  if (sinks_.metrics != nullptr) {
    auto [cit, cin] = completeness_gauges_.try_emplace(sensor);
    if (cin) {
      cit->second = sinks_.metrics->gauge("stream.kpi.completeness.s" +
                                          std::to_string(sensor));
    }
    cit->second.Set(static_cast<int64_t>(kpis.completeness * 1000.0));
    auto [rit, rin] = redundancy_gauges_.try_emplace(sensor);
    if (rin) {
      rit->second = sinks_.metrics->gauge("stream.kpi.redundancy.s" +
                                          std::to_string(sensor));
    }
    rit->second.Set(static_cast<int64_t>(kpis.redundancy * 1000.0));
  }
  if (sinks_.tracer != nullptr) {
    sinks_.tracer->Instant(sensor, "window", "stream.window_close", clock_,
                           "start=" + std::to_string(kpis.window_start) +
                               " count=" + std::to_string(kpis.count));
  }
}

Status StreamEngine::Flush() {
  for (auto& [sensor, state] : sensors_) {
    SIDQ_RETURN_IF_ERROR(CloseWindows(sensor, /*end_of_stream=*/true, &state));
  }
  return Status::OK();
}

StreamOutput StreamEngine::TakeOutput() {
  StreamOutput out;
  out.cleaned = StDataset(field_name_);
  out.ingested = ingested_;
  for (auto& [sensor, state] : sensors_) {
    if (!state.cleaned.empty()) {
      StSeries series(sensor, state.cleaned.front().loc);
      series.mutable_records() = std::move(state.cleaned);
      out.cleaned.AddSeries(std::move(series));
    }
    SensorSummary summary;
    summary.sensor = sensor;
    summary.admitted = state.admitted;
    summary.quarantined = state.quarantined;
    summary.windows_closed = state.windows_closed;
    summary.watermark = filter_.Watermark(sensor);
    out.sensors.push_back(summary);
  }
  out.ledger = std::move(ledger_);
  out.kpis = std::move(kpis_);
  out.alerts = std::move(alerts_);
  out.Canonicalize();
  return out;
}

Status ReplayInto(StreamEngine* engine, const EventLog& log) {
  engine->set_field_name(log.field_name);
  for (const StreamEvent& ev : log.events) {
    SIDQ_RETURN_IF_ERROR(engine->Push(ev));
  }
  return engine->Flush();
}

}  // namespace stream
}  // namespace sidq
