#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/exec_context.h"
#include "core/stid.h"
#include "core/types.h"
#include "obs/observer.h"
#include "outlier/online_detectors.h"
#include "refine/online_kalman.h"
#include "stream/admission.h"
#include "stream/event_log.h"
#include "stream/quarantine.h"
#include "stream/rules.h"
#include "stream/window.h"

namespace sidq {
namespace stream {

// Chaos sites compiled into the ingestion path (core/failpoint.h). Both are
// keyed by sensor id; transient faults are absorbed by the engine's bounded
// deterministic retries, permanent faults quarantine the affected records.
inline constexpr char kIngestFailPoint[] = "stream.ingest";
inline constexpr char kWindowCloseFailPoint[] = "stream.window_close";

struct StreamConfig {
  RuleSet rules;
  // Tumbling event-time window width; KPIs and cleaning run per window.
  Timestamp window_ms = 300'000;
  // Hard per-(sensor, window) record bound; overflow records quarantine.
  size_t window_capacity = 256;
  KpiThresholds thresholds;
  refine::OnlineKalman1D::Options kalman;
  outlier::RollingRobustZ::Options robust_z;
  outlier::PageHinkley::Options drift;
};

// Per-sensor roll-up of one replay, for summaries and quick assertions.
struct SensorSummary {
  SensorId sensor = kInvalidSensorId;
  int64_t admitted = 0;
  int64_t quarantined = 0;
  int64_t windows_closed = 0;
  Timestamp watermark = kMinTimestamp;
};

// Everything a replay produces. After Canonicalize(), the representation
// is a pure function of (event log, config): series sorted by sensor,
// ledger by seq, KPIs by (sensor, window), alerts by (sensor, window,
// dimension) -- so serial and sharded replays compare byte-identically.
struct StreamOutput {
  StDataset cleaned;
  QuarantineLedger ledger;
  std::vector<WindowKpis> kpis;
  std::vector<KpiAlert> alerts;
  std::vector<SensorSummary> sensors;
  int64_t ingested = 0;

  void Canonicalize();
  // Merges `other` (disjoint sensors) into this output; Canonicalize()
  // afterwards to restore canonical order.
  void Merge(StreamOutput&& other);
};

// Canonical JSON document for a StreamOutput (stable key order, canonical
// float formatting). The differential and golden tests compare these
// strings; equality here IS the stream == batch contract.
[[nodiscard]] std::string StreamOutputToJson(const StreamOutput& output);

// FNV-1a over StreamOutputToJson: the one-number replay fingerprint used
// by the bench checksum gate and the example's parity check.
[[nodiscard]] uint64_t OutputChecksum(const StreamOutput& output);

// Record-at-a-time ingestion engine: per-sensor declarative admission,
// event-time watermarks, bounded tumbling windows (held by the admission
// filter until the watermark closes them), and online cleaning at window
// close. Single-threaded by design -- parallel replay shards
// *sensors* across engines (stream/replay.h), because every piece of
// engine state is per-sensor, so sharding by sensor preserves the serial
// decision sequence exactly.
//
// Determinism: outputs depend only on (event log, config). Watermarks are
// pure event-time arithmetic; arrival wall time never enters any decision
// (lint rule R8). With chaos armed, fault decisions are deterministic per
// (site, sensor, evaluation#), so chaos runs are reproducible too.
class StreamEngine {
 public:
  // `sinks` / `clock` / `ctx` are borrowed and nullable: metrics and spans
  // drop without sinks, Push never cancels without a context.
  explicit StreamEngine(const StreamConfig& config,
                        const obs::ObsSinks& sinks = {},
                        const Clock* clock = nullptr,
                        const ExecContext* ctx = nullptr);

  // Ingests one event (arrival order = ascending seq). Closes every window
  // the advancing watermark retires. Returns non-OK only for cooperative
  // cancellation / deadline exceeded -- data problems quarantine instead.
  [[nodiscard]] Status Push(const StreamEvent& ev);

  // End of stream: closes all still-open windows (ascending per sensor).
  [[nodiscard]] Status Flush();

  // Takes the canonicalized output; the engine is spent afterwards.
  [[nodiscard]] StreamOutput TakeOutput();

  [[nodiscard]] Timestamp Watermark(SensorId sensor) const {
    return filter_.Watermark(sensor);
  }

  // Thematic field name stamped onto the cleaned dataset.
  void set_field_name(std::string name) { field_name_ = std::move(name); }

 private:
  // The engine's per-sensor state; the sensor's open windows live in
  // `filter_` until they close.
  struct SensorState {
    SensorPipeline pipeline;
    std::vector<StRecord> cleaned;
    int64_t admitted = 0;
    int64_t quarantined = 0;
    int64_t windows_closed = 0;
  };

  // Evaluates a chaos site with bounded deterministic retries; transient
  // faults within budget are absorbed, so armed-with-retryable-chaos runs
  // produce bit-identical output to disarmed runs.
  Status EvaluateSite(const char* site, SensorId sensor, bool* corrupt);

  // Per-sensor state, created on first sight with the config's online
  // operator options.
  SensorState& GetState(SensorId sensor);

  void Quarantine(uint64_t seq, const StRecord& rec, QuarantineReason reason,
                  SensorState* state);
  // Counts `n` records quarantined for `reason` (their ledger entries are
  // written by the caller).
  void CountQuarantined(QuarantineReason reason, int64_t n,
                        SensorState* state);
  // Closes `sensor`'s windows oldest-first while the filter reports one
  // ready (every open one with `end_of_stream`), checking the context
  // before each release.
  Status CloseWindows(SensorId sensor, bool end_of_stream, SensorState* state);
  void CloseWindow(SensorId sensor, int64_t window_index,
                   const OpenWindow& window, SensorState* state);

  StreamConfig config_;
  obs::ObsSinks sinks_;
  const Clock* clock_;
  ExecContext default_ctx_;
  const ExecContext* ctx_;

  AdmissionFilter filter_;
  std::map<SensorId, SensorState> sensors_;
  std::string field_name_;
  int64_t ingested_ = 0;
  QuarantineLedger ledger_;
  std::vector<WindowKpis> kpis_;
  std::vector<KpiAlert> alerts_;

  obs::Counter ingested_counter_;
  obs::Counter admitted_counter_;
  obs::Counter late_counter_;
  obs::Counter quarantined_counter_;
  obs::Counter windows_counter_;
  obs::Counter outliers_counter_;
  std::map<std::string, obs::Counter> reason_counters_;
  std::map<SensorId, obs::Gauge> completeness_gauges_;
  std::map<SensorId, obs::Gauge> redundancy_gauges_;
};

// Convenience: pushes every event of `log` then flushes.
[[nodiscard]] Status ReplayInto(StreamEngine* engine, const EventLog& log);

}  // namespace stream
}  // namespace sidq
