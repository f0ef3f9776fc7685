#include "stream/window.h"

#include <algorithm>
#include <sstream>

#include "obs/export.h"

namespace sidq {
namespace stream {

WindowKpis ProcessWindow(SensorId sensor, int64_t window_index,
                         Timestamp window_ms, const OpenWindow& window,
                         const SensorRule& rule,
                         const KpiThresholds& thresholds,
                         SensorPipeline* pipeline,
                         std::vector<StRecord>* cleaned,
                         QuarantineLedger* ledger,
                         std::vector<KpiAlert>* alerts) {
  WindowKpis kpis;
  kpis.sensor = sensor;
  kpis.window_start = static_cast<Timestamp>(window_index) * window_ms;
  kpis.window_end = kpis.window_start + window_ms;
  kpis.duplicates = window.duplicates;

  double sum_value = 0.0;
  double sum_stddev = 0.0;
  bool has_prev = false;
  Timestamp prev_t = kpis.window_start;
  double prev_value = 0.0;
  for (const StreamEvent& ev : window.events) {
    const StRecord& rec = ev.record;
    if (pipeline->robust_z.Observe(rec.value)) {
      ledger->Add(ev.seq, rec, QuarantineReason::kOutlier);
      ++kpis.outliers;
      continue;
    }
    const refine::OnlineKalman1D::Estimate est =
        pipeline->kalman.Update(rec.t, rec.value, rec.stddev);
    StRecord out = rec;
    out.value = est.value;
    out.stddev = est.stddev;
    cleaned->push_back(out);
    if (pipeline->drift.Observe(rec.value)) kpis.drift = true;

    ++kpis.count;
    sum_value += rec.value;
    sum_stddev += est.stddev;
    kpis.min_value = kpis.count == 1 ? rec.value
                                     : std::min(kpis.min_value, rec.value);
    kpis.max_value = kpis.count == 1 ? rec.value
                                     : std::max(kpis.max_value, rec.value);
    kpis.max_gap_ms = std::max(kpis.max_gap_ms, rec.t - prev_t);
    if (has_prev && rec.t > prev_t) {
      const double rate =
          std::abs(rec.value - prev_value) / TimestampToSeconds(rec.t - prev_t);
      if (rate > rule.max_rate_per_s) ++kpis.consistency_violations;
    }
    has_prev = true;
    prev_t = rec.t;
    prev_value = rec.value;
  }
  kpis.max_gap_ms = std::max(kpis.max_gap_ms, kpis.window_end - prev_t);

  const double expected = static_cast<double>(window_ms) /
                          static_cast<double>(rule.expected_interval_ms);
  kpis.completeness =
      expected > 0.0 ? static_cast<double>(kpis.count) / expected : 0.0;
  const double delivered = static_cast<double>(kpis.duplicates + kpis.count);
  kpis.redundancy =
      delivered > 0.0 ? static_cast<double>(kpis.duplicates) / delivered : 0.0;
  if (kpis.count > 0) {
    kpis.mean_value = sum_value / static_cast<double>(kpis.count);
    kpis.precision_stddev = sum_stddev / static_cast<double>(kpis.count);
  }

  if (kpis.completeness < thresholds.min_completeness) {
    alerts->push_back({sensor, kpis.window_start, DqDimension::kCompleteness,
                       kpis.completeness, thresholds.min_completeness});
  }
  if (kpis.redundancy > thresholds.max_redundancy) {
    alerts->push_back({sensor, kpis.window_start, DqDimension::kRedundancy,
                       kpis.redundancy, thresholds.max_redundancy});
  }
  if (kpis.max_gap_ms > thresholds.max_gap_ms) {
    alerts->push_back({sensor, kpis.window_start, DqDimension::kTimeSparsity,
                       static_cast<double>(kpis.max_gap_ms),
                       static_cast<double>(thresholds.max_gap_ms)});
  }
  if (kpis.consistency_violations > thresholds.max_consistency_violations) {
    alerts->push_back(
        {sensor, kpis.window_start, DqDimension::kConsistency,
         static_cast<double>(kpis.consistency_violations),
         static_cast<double>(thresholds.max_consistency_violations)});
  }
  return kpis;
}

std::string WindowKpisToJson(const WindowKpis& kpis) {
  using obs::internal_json::FormatDouble;
  std::ostringstream out;
  out << "{\"sensor\":" << kpis.sensor
      << ",\"window_start\":" << kpis.window_start
      << ",\"window_end\":" << kpis.window_end << ",\"count\":" << kpis.count
      << ",\"outliers\":" << kpis.outliers
      << ",\"duplicates\":" << kpis.duplicates
      << ",\"completeness\":" << FormatDouble(kpis.completeness)
      << ",\"redundancy\":" << FormatDouble(kpis.redundancy)
      << ",\"max_gap_ms\":" << kpis.max_gap_ms
      << ",\"precision_stddev\":" << FormatDouble(kpis.precision_stddev)
      << ",\"consistency_violations\":" << kpis.consistency_violations
      << ",\"mean_value\":" << FormatDouble(kpis.mean_value)
      << ",\"min_value\":" << FormatDouble(kpis.min_value)
      << ",\"max_value\":" << FormatDouble(kpis.max_value)
      << ",\"drift\":" << (kpis.drift ? "true" : "false") << "}";
  return out.str();
}

std::string KpiAlertToJson(const KpiAlert& alert) {
  using obs::internal_json::FormatDouble;
  std::ostringstream out;
  out << "{\"sensor\":" << alert.sensor
      << ",\"window_start\":" << alert.window_start << ",\"dimension\":\""
      << DqDimensionName(alert.dimension) << "\""
      << ",\"observed\":" << FormatDouble(alert.observed)
      << ",\"threshold\":" << FormatDouble(alert.threshold) << "}";
  return out.str();
}

}  // namespace stream
}  // namespace sidq
