#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/random.h"
#include "core/status.h"
#include "core/statusor.h"
#include "core/stid.h"
#include "core/types.h"
#include "obs/metrics.h"

namespace sidq {
namespace stream {

// One record as it *arrives* at the ingestion edge: the measurement itself
// plus its arrival metadata. `seq` is the global arrival index (unique,
// ascending within a log) and the determinism anchor of the whole stream
// layer: every quarantine-ledger entry traces back to exactly one seq, so
// outputs from differently-sharded replays merge into one canonical order.
// `arrival_ms` is when the record reached the gateway -- event time
// `record.t` plus network/battery-induced delay -- and exists only for
// latency KPIs and human inspection; all stream decisions (watermarks,
// lateness, windows) are functions of event time and arrival *order*,
// never of arrival wall time (lint rule R8).
struct StreamEvent {
  uint64_t seq = 0;
  Timestamp arrival_ms = 0;
  StRecord record;
};

// A recorded event log: the replayable unit of the streaming layer. Events
// are stored in arrival order (ascending seq). Replaying a log through the
// stream engine is deterministic by construction, which is what lets the
// differential tests pin stream output == batch output bit-for-bit.
struct EventLog {
  std::string field_name;
  std::vector<StreamEvent> events;

  [[nodiscard]] size_t size() const { return events.size(); }
  [[nodiscard]] bool empty() const { return events.empty(); }
};

// How RecordArrivals perturbs event-time order into a realistic (and
// adversarial) arrival order: exponential network delay on every record,
// occasional heavy straggler delay, and occasional gateway-side duplicate
// deliveries. All draws come from the caller's seeded Rng, so the same
// (dataset, options, seed) always produces the same log.
struct ArrivalOptions {
  // Mean of the exponential per-record network delay (ms); <= 0 disables
  // jitter entirely (arrival == event time, order-preserving).
  double mean_delay_ms = 2000.0;
  // Probability that a record is a straggler, adding Uniform(0, heavy)
  // extra delay on top of the exponential draw.
  double straggler_probability = 0.05;
  double straggler_delay_ms = 60'000.0;
  // Probability that a delivered record is delivered again later
  // (duplicate with the same sensor/t/value, its own seq).
  double duplicate_probability = 0.0;
  double duplicate_delay_ms = 10'000.0;
};

// Flattens `data` into an arrival-ordered event log under the delay model
// above. Ties in arrival time break by (sensor, t, value) so the produced
// log -- and everything replayed from it -- is a pure function of
// (data, options, rng seed).
EventLog RecordArrivals(const StDataset& data, const ArrivalOptions& options,
                        Rng* rng);

// Text serialization, one event per line, canonical float formatting:
// rewriting a freshly-read log reproduces the file byte-for-byte. The
// writer publishes atomically (tmp + fsync + rename) and appends a
// trailer line recording the event count, so the reader can tell a torn
// tail (truncation at any byte -- mid-line or at a line boundary) apart
// from a clean end-of-file.
[[nodiscard]] Status WriteEventLogFile(const EventLog& log,
                                       const std::string& path);

// Reads a log back. Failure modes are reason-coded:
//   - NotFound: the file does not exist.
//   - DataLoss("torn tail ..."): the file is a strict prefix of a valid
//     log -- a partial final line, or a missing/incomplete trailer. A
//     replay MUST NOT treat such a log as complete (silently dropping the
//     tail is the exact failure mode sidq exists to prevent).
//   - InvalidArgument: interior garbling -- bad header, unparseable
//     non-final line, seq gap, data after the trailer, count mismatch.
// When `metrics` is non-null, a torn tail increments the
// `stream.log.torn_tail` counter before the error returns.
[[nodiscard]] StatusOr<EventLog> ReadEventLogFile(
    const std::string& path, obs::MetricsRegistry* metrics = nullptr);

}  // namespace stream
}  // namespace sidq
