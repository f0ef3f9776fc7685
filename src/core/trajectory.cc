#include "core/trajectory.h"

#include <algorithm>
#include <cmath>

namespace sidq {

Trajectory::Trajectory(ObjectId object_id, std::vector<TrajectoryPoint> points)
    : object_id_(object_id), points_(std::move(points)) {
  SortByTime();
}

Status Trajectory::Append(const TrajectoryPoint& pt) {
  if (!points_.empty() && pt.t < points_.back().t) {
    return Status::OutOfRange("Append would violate time order");
  }
  points_.push_back(pt);
  return Status::OK();
}

void Trajectory::SortByTime() {
  std::stable_sort(
      points_.begin(), points_.end(),
      [](const TrajectoryPoint& a, const TrajectoryPoint& b) {
        return a.t < b.t;
      });
}

bool Trajectory::IsTimeOrdered() const {
  for (size_t i = 1; i < points_.size(); ++i) {
    if (points_[i].t < points_[i - 1].t) return false;
  }
  return true;
}

Timestamp Trajectory::Duration() const {
  if (points_.size() < 2) return 0;
  return points_.back().t - points_.front().t;
}

double Trajectory::Length() const {
  double len = 0.0;
  for (size_t i = 1; i < points_.size(); ++i) {
    len += geometry::Distance(points_[i - 1].p, points_[i].p);
  }
  return len;
}

double Trajectory::MeanSamplingIntervalSeconds() const {
  if (points_.size() < 2) return 0.0;
  return TimestampToSeconds(Duration()) /
         static_cast<double>(points_.size() - 1);
}

double Trajectory::SpeedAt(size_t i) const {
  if (i == 0 || i >= points_.size()) return 0.0;
  const Timestamp dt = points_[i].t - points_[i - 1].t;
  if (dt <= 0) return 0.0;
  return geometry::Distance(points_[i].p, points_[i - 1].p) /
         TimestampToSeconds(dt);
}

geometry::BBox Trajectory::Bounds() const {
  geometry::BBox box;
  for (const TrajectoryPoint& pt : points_) box.Extend(pt.p);
  return box;
}

StatusOr<geometry::Point> Trajectory::InterpolateAt(Timestamp t) const {
  if (points_.empty()) {
    return Status::FailedPrecondition("empty trajectory");
  }
  if (t < points_.front().t || t > points_.back().t) {
    return Status::OutOfRange("time outside trajectory span");
  }
  const auto it = std::lower_bound(
      points_.begin(), points_.end(), t,
      [](const TrajectoryPoint& pt, Timestamp ts) { return pt.t < ts; });
  if (it == points_.begin()) return it->p;
  const TrajectoryPoint& hi = *it;
  const TrajectoryPoint& lo = *(it - 1);
  if (hi.t == lo.t) return lo.p;
  const double f =
      static_cast<double>(t - lo.t) / static_cast<double>(hi.t - lo.t);
  return geometry::Lerp(lo.p, hi.p, f);
}

StatusOr<size_t> Trajectory::NearestIndexByTime(Timestamp t) const {
  if (points_.empty()) {
    return Status::FailedPrecondition("empty trajectory");
  }
  const auto it = std::lower_bound(
      points_.begin(), points_.end(), t,
      [](const TrajectoryPoint& pt, Timestamp ts) { return pt.t < ts; });
  if (it == points_.end()) return points_.size() - 1;
  if (it == points_.begin()) return size_t{0};
  const size_t hi = static_cast<size_t>(it - points_.begin());
  const size_t lo = hi - 1;
  return (t - points_[lo].t <= points_[hi].t - t) ? lo : hi;
}

Trajectory Trajectory::Slice(Timestamp t_begin, Timestamp t_end) const {
  Trajectory out(object_id_);
  for (const TrajectoryPoint& pt : points_) {
    if (pt.t >= t_begin && pt.t <= t_end) out.AppendUnordered(pt);
  }
  return out;
}

std::vector<Trajectory> SplitByGap(const Trajectory& input,
                                   Timestamp max_gap_ms,
                                   size_t min_points) {
  std::vector<Trajectory> out;
  Trajectory current(input.object_id());
  auto flush = [&] {
    if (current.size() >= min_points) {
      out.push_back(std::move(current));
    }
    current = Trajectory(input.object_id());
  };
  for (size_t i = 0; i < input.size(); ++i) {
    if (!current.empty() &&
        input[i].t - current.back().t > max_gap_ms) {
      flush();
    }
    current.AppendUnordered(input[i]);
  }
  flush();
  return out;
}

StatusOr<double> RmseBetween(const Trajectory& a, const Trajectory& b) {
  if (a.size() != b.size()) {
    return Status::InvalidArgument("trajectory size mismatch");
  }
  if (a.empty()) return 0.0;
  double acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    acc += geometry::DistanceSq(a[i].p, b[i].p);
  }
  return std::sqrt(acc / static_cast<double>(a.size()));
}

StatusOr<double> MeanErrorBetween(const Trajectory& a, const Trajectory& b) {
  if (a.size() != b.size()) {
    return Status::InvalidArgument("trajectory size mismatch");
  }
  if (a.empty()) return 0.0;
  double acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    acc += geometry::Distance(a[i].p, b[i].p);
  }
  return acc / static_cast<double>(a.size());
}

}  // namespace sidq
