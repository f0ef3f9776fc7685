#include "outlier/trajectory_outliers.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/arena.h"
#include "kernels/dispatch.h"
#include "kernels/soa.h"

namespace sidq {
namespace outlier {

namespace {

// Exact order statistic of v[0..n): partially sorts in place, so callers
// pass scratch copies. Same selection as the former by-value overload.
double MedianInPlace(double* v, size_t n) {
  if (n == 0) return 0.0;
  std::nth_element(v, v + n / 2, v + n);
  return v[n / 2];
}

// Per-segment speeds (n-1 entries) in arena scratch: one vectorized
// distance sweep over columns copied into the same scratch instead of
// 2(n-2) scalar Distance calls, and no heap round trip per trajectory.
double* SegmentSpeeds(const Trajectory& input, ArenaScope* scope) {
  const size_t n = input.size();
  double* speeds = scope->AllocArray<double>(n - 1);
  const kernels::SoaView v = kernels::CopyColumns(input, scope);
  kernels::KernelDispatch::Get().consecutive_dist(v.x, v.y, n, speeds);
  for (size_t i = 0; i + 1 < n; ++i) {
    const Timestamp dt = v.t[i + 1] - v.t[i];
    speeds[i] = dt <= 0 ? 0.0 : speeds[i] / TimestampToSeconds(dt);
  }
  return speeds;
}

}  // namespace

StatusOr<std::vector<bool>> SpeedConstraintDetector::Detect(
    const Trajectory& input) const {
  if (!input.IsTimeOrdered()) {
    return Status::FailedPrecondition("trajectory must be time-ordered");
  }
  const size_t n = input.size();
  std::vector<bool> flags(n, false);
  if (n < 2) return flags;
  const double vmax = options_.max_speed_mps;
  ArenaScope scope(ScratchArena());
  const double* speeds = SegmentSpeeds(input, &scope);
  for (size_t i = 0; i < n; ++i) {
    const bool fast_in = i > 0 && speeds[i - 1] > vmax;
    const bool fast_out = i + 1 < n && speeds[i] > vmax;
    if (i == 0) {
      flags[i] = fast_out;
    } else if (i + 1 == n) {
      flags[i] = fast_in;
    } else {
      flags[i] = fast_in && fast_out;
    }
  }
  return flags;
}

StatusOr<std::vector<bool>> StatisticalDetector::Detect(
    const Trajectory& input) const {
  if (!input.IsTimeOrdered()) {
    return Status::FailedPrecondition("trajectory must be time-ordered");
  }
  const size_t n = input.size();
  std::vector<bool> flags(n, false);
  if (n < 3) return flags;
  // The columns and all statistics scratch (window slices, deviation
  // arrays, step lengths) live in the arena for the duration of this call.
  ArenaScope scope(ScratchArena());
  const kernels::SoaView view = kernels::CopyColumns(input, &scope);
  const size_t wcap = 2 * options_.half_window + 1;
  double* xs = scope.AllocArray<double>(wcap);
  double* ys = scope.AllocArray<double>(wcap);
  // Deviation of each point from its window median position. The window
  // coordinate copies are contiguous column slices.
  double* deviations = scope.AllocArray<double>(n);
  for (size_t i = 0; i < n; ++i) {
    const size_t lo = i >= options_.half_window ? i - options_.half_window : 0;
    const size_t hi = std::min(n - 1, i + options_.half_window);
    const size_t w = hi - lo + 1;
    // The window includes the point itself: the median is robust to it,
    // and excluding it would bias the window centre off the path.
    std::memcpy(xs, view.x + lo, w * sizeof(double));
    std::memcpy(ys, view.y + lo, w * sizeof(double));
    const geometry::Point med(MedianInPlace(xs, w), MedianInPlace(ys, w));
    deviations[i] = geometry::Distance(input[i].p, med);
  }
  // Robust scale: 1.4826 * MAD of the deviations, floored at the typical
  // step length so that a deviation of one inter-sample hop (which the
  // window median can introduce near a genuine outlier) never triggers.
  double* dev_copy = scope.AllocArray<double>(n);
  std::memcpy(dev_copy, deviations, n * sizeof(double));
  const double med_dev = MedianInPlace(dev_copy, n);
  double* abs_dev = scope.AllocArray<double>(n);
  for (size_t i = 0; i < n; ++i) abs_dev[i] = std::abs(deviations[i] - med_dev);
  const double mad = MedianInPlace(abs_dev, n);
  double* steps = scope.AllocArray<double>(n - 1);
  kernels::KernelDispatch::Get().consecutive_dist(view.x, view.y, n, steps);
  const double median_step = MedianInPlace(steps, n - 1);
  const double scale =
      std::max({options_.min_scale_m, 1.4826 * mad, median_step});
  for (size_t i = 0; i < n; ++i) {
    flags[i] = (deviations[i] - med_dev) / scale > options_.z_threshold;
  }
  return flags;
}

Status PredictiveDetector::Run(const Trajectory& input,
                               std::vector<bool>* flags,
                               Trajectory* repaired) const {
  if (!input.IsTimeOrdered()) {
    return Status::FailedPrecondition("trajectory must be time-ordered");
  }
  const size_t n = input.size();
  flags->assign(n, false);
  if (repaired != nullptr) {
    *repaired = Trajectory(input.object_id());
  }
  // Working copy holding repaired positions for sequential prediction.
  std::vector<geometry::Point> pos;
  pos.reserve(n);
  double scale = options_.initial_scale_m;
  for (size_t i = 0; i < n; ++i) {
    geometry::Point predicted = input[i].p;
    bool have_prediction = false;
    if (i >= 2) {
      const double dt01 =
          TimestampToSeconds(input[i - 1].t - input[i - 2].t);
      const double dt12 = TimestampToSeconds(input[i].t - input[i - 1].t);
      if (dt01 > 0.0 && dt12 > 0.0) {
        const geometry::Point vel = (pos[i - 1] - pos[i - 2]) / dt01;
        predicted = pos[i - 1] + vel * dt12;
        have_prediction = true;
      }
    }
    bool is_outlier = false;
    if (have_prediction) {
      const double innovation = geometry::Distance(input[i].p, predicted);
      if (innovation > options_.threshold_factor * scale) {
        is_outlier = true;
      } else {
        scale = (1.0 - options_.scale_alpha) * scale +
                options_.scale_alpha * std::max(innovation, 0.5);
      }
    }
    (*flags)[i] = is_outlier;
    pos.push_back(is_outlier ? predicted : input[i].p);
    if (repaired != nullptr) {
      TrajectoryPoint pt = input[i];
      pt.p = pos.back();
      repaired->AppendUnordered(pt);
    }
  }
  return Status::OK();
}

StatusOr<std::vector<bool>> PredictiveDetector::Detect(
    const Trajectory& input) const {
  std::vector<bool> flags;
  SIDQ_RETURN_IF_ERROR(Run(input, &flags, nullptr));
  return flags;
}

StatusOr<Trajectory> PredictiveDetector::Repair(
    const Trajectory& input) const {
  std::vector<bool> flags;
  Trajectory repaired;
  SIDQ_RETURN_IF_ERROR(Run(input, &flags, &repaired));
  return repaired;
}

StatusOr<Trajectory> RemoveFlagged(const Trajectory& input,
                                   const std::vector<bool>& flags) {
  if (flags.size() != input.size()) {
    return Status::InvalidArgument("flag count mismatch");
  }
  Trajectory out(input.object_id());
  out.Reserve(input.size());
  for (size_t i = 0; i < input.size(); ++i) {
    if (!flags[i]) out.AppendUnordered(input[i]);
  }
  return out;
}

StatusOr<Trajectory> RepairFlagged(const Trajectory& input,
                                   const std::vector<bool>& flags) {
  if (flags.size() != input.size()) {
    return Status::InvalidArgument("flag count mismatch");
  }
  const size_t n = input.size();
  Trajectory out(input.object_id());
  out.Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    TrajectoryPoint pt = input[i];
    if (flags[i]) {
      // Nearest unflagged neighbours on both sides.
      size_t prev = i;
      while (prev > 0 && flags[prev]) --prev;
      size_t next = i;
      while (next + 1 < n && flags[next]) ++next;
      const bool prev_ok = !flags[prev];
      const bool next_ok = !flags[next];
      if (prev_ok && next_ok && input[next].t > input[prev].t) {
        const double f = static_cast<double>(pt.t - input[prev].t) /
                         static_cast<double>(input[next].t - input[prev].t);
        pt.p = geometry::Lerp(input[prev].p, input[next].p, f);
      } else if (prev_ok) {
        pt.p = input[prev].p;
      } else if (next_ok) {
        pt.p = input[next].p;
      }
    }
    out.AppendUnordered(pt);
  }
  return out;
}

DetectionQuality EvaluateDetection(const std::vector<bool>& predicted,
                                   const std::vector<bool>& truth) {
  size_t tp = 0, fp = 0, fn = 0;
  const size_t n = std::min(predicted.size(), truth.size());
  for (size_t i = 0; i < n; ++i) {
    if (predicted[i] && truth[i]) ++tp;
    if (predicted[i] && !truth[i]) ++fp;
    if (!predicted[i] && truth[i]) ++fn;
  }
  DetectionQuality q;
  q.precision = tp + fp > 0 ? static_cast<double>(tp) / (tp + fp) : 0.0;
  q.recall = tp + fn > 0 ? static_cast<double>(tp) / (tp + fn) : 0.0;
  q.f1 = q.precision + q.recall > 0.0
             ? 2.0 * q.precision * q.recall / (q.precision + q.recall)
             : 0.0;
  return q;
}

StatusOr<Trajectory> SpeedOutlierRepairStage::Apply(
    const Trajectory& input, const StageContext&) const {
  SIDQ_ASSIGN_OR_RETURN(std::vector<bool> flags, detector_.Detect(input));
  return RepairFlagged(input, flags);
}

}  // namespace outlier
}  // namespace sidq
