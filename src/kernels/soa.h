#pragma once

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "core/trajectory.h"
#include "core/types.h"

namespace sidq {
namespace kernels {

// Non-owning columnar (structure-of-arrays) view over trajectory samples.
// The hot loops in similarity, outlier detection, and map matching stream
// x/y/t columns; a 32-byte AoS TrajectoryPoint wastes three quarters of
// every cache line on fields those loops never read, and its layout defeats
// auto-vectorization. The dispatched kernels (dispatch.h) all take raw
// column pointers from this view.
struct SoaView {
  const double* x = nullptr;
  const double* y = nullptr;
  const Timestamp* t = nullptr;
  size_t size = 0;

  [[nodiscard]] bool empty() const { return size == 0; }
};

// Owning columnar buffer: contiguous x, y, and timestamp columns copied out
// of an AoS sample sequence. Immutable after construction, so a single
// buffer can be shared (via shared_ptr) between trajectory copies and
// across threads once materialized.
class SoaBuffer {
 public:
  SoaBuffer() = default;

  // Copies the planar coordinates and timestamps of `tr` into columns.
  static SoaBuffer FromTrajectory(const Trajectory& tr);

  [[nodiscard]] SoaView view() const {
    return SoaView{xs_.data(), ys_.data(), ts_.data(), xs_.size()};
  }
  [[nodiscard]] size_t size() const { return xs_.size(); }

 private:
  std::vector<double> xs_;
  std::vector<double> ys_;
  std::vector<Timestamp> ts_;
};

// Lazily materialized columnar view of a Trajectory, memoized on the
// trajectory object itself (Trajectory::derived_cache()).
//
// Contract:
//   - The first Of() call for a given revision copies the points into a
//     SoaBuffer and stamps the cache; later calls (same revision) reuse the
//     buffer without touching the points.
//   - Any mutation of the trajectory (Append*/SortByTime/mutable_points())
//     bumps Trajectory::revision(), so the next Of() rebuilds.
//   - The returned view keeps the buffer alive via shared_ptr: it stays
//     valid even if the trajectory mutates or dies afterwards (the view
//     then describes the snapshot it was built from).
//   - Of() serializes cache access through a striped lock, so concurrent
//     Of() calls on the same trajectory are safe; mutating a trajectory
//     concurrently with Of() is a data race, exactly as for points().
class TrajectoryView {
 public:
  static TrajectoryView Of(const Trajectory& tr);

  [[nodiscard]] const SoaView& view() const { return view_; }
  [[nodiscard]] const double* x() const { return view_.x; }
  [[nodiscard]] const double* y() const { return view_.y; }
  [[nodiscard]] const Timestamp* t() const { return view_.t; }
  [[nodiscard]] size_t size() const { return view_.size; }

  // The shared buffer backing this view (exposed for cache tests).
  [[nodiscard]] const std::shared_ptr<const SoaBuffer>& buffer() const {
    return buffer_;
  }

 private:
  TrajectoryView(std::shared_ptr<const SoaBuffer> buffer, SoaView view)
      : buffer_(std::move(buffer)), view_(view) {}

  std::shared_ptr<const SoaBuffer> buffer_;
  SoaView view_;
};

}  // namespace kernels
}  // namespace sidq
