#include "stream/admission.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

namespace sidq {
namespace stream {

AdmissionDecision AdmissionFilter::Observe(const StreamEvent& ev) {
  const StRecord& rec = ev.record;
  AdmissionDecision d;
  const SensorRule* rule = rules_->Find(rec.sensor);
  if (rule == nullptr) {
    d.reason = QuarantineReason::kUnknownSensor;
    return d;
  }
  if (!std::isfinite(rec.value) || !std::isfinite(rec.loc.x) ||
      !std::isfinite(rec.loc.y) || !std::isfinite(rec.stddev)) {
    d.reason = QuarantineReason::kNonFinite;
    return d;
  }
  SensorState& state = sensors_[rec.sensor];
  if (state.max_admitted_t != kMinTimestamp &&
      rec.t <= state.max_admitted_t - rule->max_lateness_ms) {
    d.reason = QuarantineReason::kLate;
    return d;
  }
  // `slot` is where `ev` belongs in its window's event-time order; an equal
  // time there is a duplicate.
  const int64_t window_index = WindowIndexOf(rec.t, window_ms_);
  auto window = state.windows.find(window_index);
  const bool open = window != state.windows.end();
  size_t slot = 0;
  if (open) {
    std::vector<StreamEvent>& events = window->second.events;
    slot = static_cast<size_t>(
        std::lower_bound(events.begin(), events.end(), rec.t,
                         [](const StreamEvent& e, Timestamp t) {
                           return e.record.t < t;
                         }) -
        events.begin());
    if (slot < events.size() && events[slot].record.t == rec.t) {
      ++window->second.duplicates;
      d.reason = QuarantineReason::kDuplicate;
      return d;
    }
  }
  if (rec.value < rule->min_value || rec.value > rule->max_value) {
    d.reason = QuarantineReason::kOutOfRange;
    return d;
  }
  if ((open ? window->second.events.size() : 0) >= capacity_) {
    d.reason = QuarantineReason::kWindowOverflow;
    return d;
  }
  if (!open) {
    window = state.windows.try_emplace(window_index).first;
    window->second.events.reserve(capacity_);
  }
  window->second.events.insert(window->second.events.begin() + slot, ev);
  if (rec.t > state.max_admitted_t) state.max_admitted_t = rec.t;
  d.admitted = true;
  return d;
}

Timestamp AdmissionFilter::Watermark(SensorId sensor) const {
  auto it = sensors_.find(sensor);
  if (it == sensors_.end() || it->second.max_admitted_t == kMinTimestamp) {
    return kMinTimestamp;
  }
  const SensorRule* rule = rules_->Find(sensor);
  const Timestamp lateness = rule != nullptr ? rule->max_lateness_ms : 0;
  return it->second.max_admitted_t - lateness;
}

std::optional<int64_t> AdmissionFilter::ReadyWindow(SensorId sensor,
                                                    bool end_of_stream) const {
  auto it = sensors_.find(sensor);
  if (it == sensors_.end() || it->second.windows.empty()) return std::nullopt;
  const int64_t oldest = it->second.windows.begin()->first;
  const Timestamp window_end =
      (static_cast<Timestamp>(oldest) + 1) * window_ms_;
  if (!end_of_stream && window_end - 1 > Watermark(sensor)) {
    return std::nullopt;  // records could still arrive
  }
  return oldest;
}

OpenWindow AdmissionFilter::ReleaseWindow(SensorId sensor,
                                          int64_t window_index) {
  auto it = sensors_.find(sensor);
  if (it == sensors_.end()) return {};
  auto window = it->second.windows.find(window_index);
  if (window == it->second.windows.end()) return {};
  OpenWindow released = std::move(window->second);
  it->second.windows.erase(window);
  return released;
}

}  // namespace stream
}  // namespace sidq
