#pragma once

#include <cstddef>
#include <vector>

#include "core/status.h"
#include "core/statusor.h"
#include "core/types.h"
#include "geometry/bbox.h"
#include "geometry/point.h"

namespace sidq {

// One timestamped location sample of a moving object. `accuracy` is the
// reported 1-sigma positioning error in metres (<= 0 means unknown).
struct TrajectoryPoint {
  Timestamp t = 0;
  geometry::Point p;
  double accuracy = -1.0;

  TrajectoryPoint() = default;
  TrajectoryPoint(Timestamp ts, geometry::Point pt, double acc = -1.0)
      : t(ts), p(pt), accuracy(acc) {}
};

// A time series of location samples for one object. Points are kept sorted
// by timestamp; Append enforces monotonicity, AppendUnordered + SortByTime
// supports out-of-order IoT delivery.
class Trajectory {
 public:
  Trajectory() = default;
  explicit Trajectory(ObjectId object_id) : object_id_(object_id) {}
  Trajectory(ObjectId object_id, std::vector<TrajectoryPoint> points);

  ObjectId object_id() const { return object_id_; }
  void set_object_id(ObjectId id) { object_id_ = id; }

  const std::vector<TrajectoryPoint>& points() const { return points_; }
  std::vector<TrajectoryPoint>& mutable_points() { return points_; }
  // Pre-allocates capacity for `n` samples.
  void Reserve(size_t n) { points_.reserve(n); }
  [[nodiscard]] size_t size() const { return points_.size(); }
  [[nodiscard]] bool empty() const { return points_.empty(); }
  const TrajectoryPoint& operator[](size_t i) const { return points_[i]; }
  const TrajectoryPoint& front() const { return points_.front(); }
  const TrajectoryPoint& back() const { return points_.back(); }

  // Appends a sample; fails if its timestamp precedes the current last one.
  [[nodiscard]] Status Append(const TrajectoryPoint& pt);
  // Appends without ordering checks (raw IoT ingestion); call SortByTime()
  // before using time-ordered algorithms.
  void AppendUnordered(const TrajectoryPoint& pt) { points_.push_back(pt); }
  // Stable-sorts samples by timestamp.
  void SortByTime();
  // True when timestamps are non-decreasing.
  [[nodiscard]] bool IsTimeOrdered() const;

  // Total elapsed time in ms (0 for <2 points).
  [[nodiscard]] Timestamp Duration() const;
  // Total path length in metres.
  [[nodiscard]] double Length() const;
  // Mean sampling interval in seconds (0 for <2 points).
  [[nodiscard]] double MeanSamplingIntervalSeconds() const;
  // Speed of segment ending at index i (metres/second); 0 for i==0 or
  // zero-duration segments.
  [[nodiscard]] double SpeedAt(size_t i) const;
  [[nodiscard]] geometry::BBox Bounds() const;

  // Location linearly interpolated at time t; fails when the trajectory is
  // empty or t is outside [front().t, back().t].
  [[nodiscard]] StatusOr<geometry::Point> InterpolateAt(Timestamp t) const;
  // Index of the sample whose timestamp is closest to t; fails when empty.
  [[nodiscard]] StatusOr<size_t> NearestIndexByTime(Timestamp t) const;

  // Sub-trajectory of samples with t in [t_begin, t_end].
  Trajectory Slice(Timestamp t_begin, Timestamp t_end) const;

 private:
  ObjectId object_id_ = kInvalidObjectId;
  std::vector<TrajectoryPoint> points_;
};

// Splits a trajectory into sub-trajectories wherever the time gap between
// consecutive samples exceeds `max_gap_ms` (trip segmentation). Pieces
// keep the source object id; pieces shorter than `min_points` are dropped.
std::vector<Trajectory> SplitByGap(const Trajectory& input,
                                   Timestamp max_gap_ms,
                                   size_t min_points = 2);

// Root-mean-square distance between matching samples of two equally-sized
// trajectories; the standard accuracy metric against ground truth.
[[nodiscard]] StatusOr<double> RmseBetween(const Trajectory& a, const Trajectory& b);
// Mean distance between matching samples of two equally-sized trajectories.
[[nodiscard]] StatusOr<double> MeanErrorBetween(const Trajectory& a, const Trajectory& b);

}  // namespace sidq
