#pragma once

#include <cstdint>
#include <map>
#include <optional>

#include "core/stid.h"
#include "core/types.h"
#include "stream/event_log.h"
#include "stream/quarantine.h"
#include "stream/rules.h"
#include "stream/window.h"

namespace sidq {
namespace stream {

// Event-time window index of `t` for `window_ms`-wide tumbling windows
// aligned at epoch 0. Floor division, correct for negative timestamps.
[[nodiscard]] inline int64_t WindowIndexOf(Timestamp t, Timestamp window_ms) {
  int64_t q = t / window_ms;
  if (t % window_ms != 0 && t < 0) --q;
  return q;
}

// The verdict AdmissionFilter renders on one arriving event.
struct AdmissionDecision {
  bool admitted = false;
  QuarantineReason reason = QuarantineReason::kUnknownSensor;  // if !admitted
};

// Stateful per-sensor admission control, evaluated in arrival (seq) order,
// and the one owner of every open window: an admitted event lives in its
// window here until the window closes.
//
// This class is the determinism keystone of the stream layer: the engine
// and the batch reference both run their event logs through an
// AdmissionFilter with identical configuration and process the windows it
// releases, so "which records survive, in which window" is decided by one
// shared code path and the differential contract reduces to the downstream
// processing being order-insensitive.
//
// Check order (first failure wins, mirrors QuarantineReason numbering):
//   unknown sensor -> non-finite -> late -> duplicate -> out-of-range ->
//   window overflow -> admit.
// Only an admit opens a window; no rejection leaves state behind except a
// duplicate's count in the (already open) window it repeats.
//
// Watermark semantics: per sensor, W = max admitted event time minus the
// rule's max_lateness_ms; an event with t <= W is late. The watermark
// advances only on *admitted* records, so a single record with a garbage
// future timestamp cannot blind a sensor (it is rejected by range or
// finiteness first, or -- if it slips through -- at least later data is
// judged against data that passed the same gauntlet).
//
// Dedup: a duplicate is an event time already admitted to that event's own
// open window. A window becomes ready to close only once its last
// millisecond is at or before W, so a repeat of a released window's time
// is late before the duplicate check runs: per-window dedup equals dedup
// against every time the sensor ever admitted.
class AdmissionFilter {
 public:
  AdmissionFilter(const RuleSet* rules, Timestamp window_ms,
                  size_t window_capacity)
      : rules_(rules), window_ms_(window_ms), capacity_(window_capacity) {}

  // Judges one event; on admit, inserts it into its window (opening the
  // window, with room for `window_capacity` events, if it is new) and
  // advances the watermark. On duplicate, counts it in its window.
  AdmissionDecision Observe(const StreamEvent& ev);

  // Current watermark for `sensor`: kMinTimestamp until the first admit.
  [[nodiscard]] Timestamp Watermark(SensorId sensor) const;

  // The index of `sensor`'s oldest open window if it is ready to close --
  // its last millisecond is at or before the watermark, so every record it
  // could still receive is late -- or, with `end_of_stream`, whatever the
  // watermark. nullopt when no window is ready. Windows of one sensor are
  // ready in ascending event-time order (determinism contract).
  [[nodiscard]] std::optional<int64_t> ReadyWindow(SensorId sensor,
                                                   bool end_of_stream) const;

  // Removes window `window_index` of `sensor` and returns it: its events in
  // event-time order and its duplicate count (feeds the redundancy KPI).
  // Empty when that window is not open.
  OpenWindow ReleaseWindow(SensorId sensor, int64_t window_index);

 private:
  struct SensorState {
    Timestamp max_admitted_t = kMinTimestamp;
    // Open windows by window index; std::map keeps the oldest first.
    std::map<int64_t, OpenWindow> windows;
  };

  const RuleSet* rules_;
  Timestamp window_ms_;
  size_t capacity_;
  std::map<SensorId, SensorState> sensors_;
};

}  // namespace stream
}  // namespace sidq
