#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/quality.h"
#include "core/stid.h"
#include "core/types.h"
#include "outlier/online_detectors.h"
#include "refine/online_kalman.h"
#include "stream/event_log.h"
#include "stream/quarantine.h"
#include "stream/rules.h"

namespace sidq {
namespace stream {

// One sensor's one open event-time window, owned by the AdmissionFilter
// from its first admitted event until the window closes: the admitted
// events in event-time order (times are unique, since a repeated time is a
// duplicate) and the duplicate deliveries suppressed in it. Admission holds
// `events` to the configured capacity (overflow records quarantine), so
// memory per open window is bounded whatever a sensor sends.
struct OpenWindow {
  std::vector<StreamEvent> events;
  int64_t duplicates = 0;
};

// Windowed data-quality KPIs for one (sensor, window), the streaming
// counterpart of StidProfiler's dataset-level dimensions: completeness,
// redundancy, time sparsity (max gap), precision, and consistency, plus
// window aggregates and the online detectors' verdicts.
struct WindowKpis {
  SensorId sensor = kInvalidSensorId;
  Timestamp window_start = 0;
  Timestamp window_end = 0;
  int64_t count = 0;       // admitted records surviving the outlier gate
  int64_t outliers = 0;    // robust-z rejections at window close
  int64_t duplicates = 0;  // suppressed duplicate deliveries
  double completeness = 0.0;   // count / expected records per window
  double redundancy = 0.0;     // duplicates / (duplicates + count)
  Timestamp max_gap_ms = 0;    // time sparsity within the window
  double precision_stddev = 0.0;  // mean posterior stddev of the estimates
  int64_t consistency_violations = 0;  // |dv/dt| beyond the rule's rate
  double mean_value = 0.0;
  double min_value = 0.0;
  double max_value = 0.0;
  bool drift = false;  // Page-Hinkley signalled inside this window
};

// Alert thresholds on the windowed KPIs; a window tripping one emits a
// KpiAlert tagged with the DqDimension it degrades.
struct KpiThresholds {
  double min_completeness = 0.5;
  double max_redundancy = 0.25;
  Timestamp max_gap_ms = 300'000;
  int64_t max_consistency_violations = 0;
};

struct KpiAlert {
  SensorId sensor = kInvalidSensorId;
  Timestamp window_start = 0;
  DqDimension dimension = DqDimension::kCompleteness;
  double observed = 0.0;
  double threshold = 0.0;
};

// Per-sensor online cleaning state threaded across that sensor's windows:
// the incremental Kalman level/trend filter, the rolling robust-z outlier
// gate, and the Page-Hinkley drift detector. Windows of one sensor close
// in event-time order, so this state sees records in event-time order too.
struct SensorPipeline {
  SensorPipeline() = default;
  SensorPipeline(const refine::OnlineKalman1D::Options& kalman_options,
                 const outlier::RollingRobustZ::Options& robust_z_options,
                 const outlier::PageHinkley::Options& drift_options)
      : kalman(kalman_options),
        robust_z(robust_z_options),
        drift(drift_options) {}

  refine::OnlineKalman1D kalman;
  outlier::RollingRobustZ robust_z;
  outlier::PageHinkley drift;
};

// Processes one closed window: `window`'s events run, in event-time order,
// through the outlier gate and the Kalman update; survivors append to
// `cleaned` with the filtered value and posterior stddev, rejects go to
// `ledger` as kOutlier. Computes the window KPIs and any threshold alerts.
// Shared verbatim by the stream engine and the batch reference -- the
// differential contract holds because both sides call exactly this
// function on the identical windows their AdmissionFilter releases.
WindowKpis ProcessWindow(SensorId sensor, int64_t window_index,
                         Timestamp window_ms, const OpenWindow& window,
                         const SensorRule& rule,
                         const KpiThresholds& thresholds,
                         SensorPipeline* pipeline,
                         std::vector<StRecord>* cleaned,
                         QuarantineLedger* ledger,
                         std::vector<KpiAlert>* alerts);

// Canonical JSON object for one window's KPIs (keys in fixed order).
[[nodiscard]] std::string WindowKpisToJson(const WindowKpis& kpis);

// Canonical JSON object for one alert.
[[nodiscard]] std::string KpiAlertToJson(const KpiAlert& alert);

}  // namespace stream
}  // namespace sidq
