#pragma once

#include <vector>

#include "core/statusor.h"
#include "core/trajectory.h"
#include "kernels/packed_rtree.h"

namespace sidq {
namespace uncertainty {

// Calibration-based trajectory uncertainty elimination (Su et al.,
// SIGMOD 2013 family): noisy trajectories are aligned to a set of stable
// reference (anchor) points mined from a historical trajectory corpus.
class TrajectoryCalibrator {
 public:
  struct Options {
    // Anchor extraction: corpus points are bucketed on a grid of this cell
    // size; each sufficiently-popular cell contributes its centroid.
    double anchor_cell_m = 40.0;
    size_t min_points_per_anchor = 3;
    // Calibration: a point snaps to its nearest anchor when one lies within
    // this radius; otherwise it is kept as-is.
    double snap_radius_m = 50.0;
  };

  explicit TrajectoryCalibrator(Options options) : options_(options) {}
  TrajectoryCalibrator() : TrajectoryCalibrator(Options{}) {}

  // Mines anchors from a reference corpus (typically historical, denser or
  // cleaner trajectories). Must be called before Calibrate.
  void BuildAnchors(const std::vector<Trajectory>& corpus);
  // Direct anchor injection (e.g. from a map's lane midpoints).
  void SetAnchors(std::vector<geometry::Point> anchors);

  size_t num_anchors() const { return anchors_.size(); }
  const std::vector<geometry::Point>& anchors() const { return anchors_; }

  // Snaps every input point to its nearest anchor within snap_radius_m.
  // Fails when no anchors have been built. Not safe to call concurrently
  // on one calibrator: each lookup updates the index's pruning counter.
  [[nodiscard]] StatusOr<Trajectory> Calibrate(const Trajectory& noisy) const;

 private:
  Options options_;
  std::vector<geometry::Point> anchors_;
  kernels::PackedRTree anchor_index_;  // point boxes, id = anchors_ index
};

}  // namespace uncertainty
}  // namespace sidq
