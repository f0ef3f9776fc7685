#include "uncertainty/calibration.h"

#include <cmath>
#include <map>
#include <utility>

namespace sidq {
namespace uncertainty {

void TrajectoryCalibrator::BuildAnchors(
    const std::vector<Trajectory>& corpus) {
  struct CellAgg {
    geometry::Point sum;
    size_t count = 0;
  };
  std::map<std::pair<int64_t, int64_t>, CellAgg> cells;
  const double cell = options_.anchor_cell_m;
  for (const Trajectory& tr : corpus) {
    for (const TrajectoryPoint& pt : tr.points()) {
      const std::pair<int64_t, int64_t> key{
          static_cast<int64_t>(std::floor(pt.p.x / cell)),
          static_cast<int64_t>(std::floor(pt.p.y / cell))};
      CellAgg& agg = cells[key];
      agg.sum += pt.p;
      agg.count += 1;
    }
  }
  std::vector<geometry::Point> anchors;
  for (const auto& [key, agg] : cells) {
    if (agg.count >= options_.min_points_per_anchor) {
      anchors.push_back(agg.sum / static_cast<double>(agg.count));
    }
  }
  SetAnchors(std::move(anchors));
}

void TrajectoryCalibrator::SetAnchors(std::vector<geometry::Point> anchors) {
  anchors_ = std::move(anchors);
  std::vector<kernels::PackedRTree::Item> items;
  items.reserve(anchors_.size());
  for (size_t i = 0; i < anchors_.size(); ++i) {
    items.push_back({i, geometry::BBox(anchors_[i], anchors_[i])});
  }
  anchor_index_.BulkLoad(std::move(items));
}

StatusOr<Trajectory> TrajectoryCalibrator::Calibrate(
    const Trajectory& noisy) const {
  if (anchors_.empty()) {
    return Status::FailedPrecondition("no anchors built");
  }
  Trajectory out(noisy.object_id());
  for (const TrajectoryPoint& pt : noisy.points()) {
    TrajectoryPoint calibrated = pt;
    // The best-first scan's first item is the nearest anchor; an exact tie
    // goes to the lower anchor index.
    uint64_t nn = 0;
    double gap = 0.0;
    if (kernels::BoxGapScan(anchor_index_, geometry::BBox(pt.p, pt.p))
            .Next(&nn, &gap) &&
        geometry::Distance(anchors_[nn], pt.p) <= options_.snap_radius_m) {
      calibrated.p = anchors_[nn];
    }
    out.AppendUnordered(calibrated);
  }
  return out;
}

}  // namespace uncertainty
}  // namespace sidq
