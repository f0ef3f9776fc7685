#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "geometry/bbox.h"
#include "geometry/point.h"

namespace sidq {
namespace index {

// A uniform hash-grid index over 2-D points: insert-only, with range and
// radius queries. sim::RoadNetwork indexes its edge midpoints here for
// nearest-edge lookups. Point kNN is kernels::PackedRTree::Knn.
class GridIndex {
 public:
  explicit GridIndex(double cell_size);

  [[nodiscard]] double cell_size() const { return cell_size_; }
  [[nodiscard]] size_t size() const { return size_; }

  void Insert(uint64_t id, const geometry::Point& p);

  // Ids of points inside `box` (inclusive).
  [[nodiscard]] std::vector<uint64_t> RangeQuery(const geometry::BBox& box) const;
  // Ids of points within `radius` of `center`.
  std::vector<uint64_t> RadiusQuery(const geometry::Point& center,
                                    double radius) const;

 private:
  struct Entry {
    uint64_t id;
    geometry::Point p;
  };
  using CellKey = uint64_t;

  CellKey KeyOf(const geometry::Point& p) const;
  CellKey KeyOf(int64_t cx, int64_t cy) const;
  void CellCoords(const geometry::Point& p, int64_t* cx, int64_t* cy) const;

  double cell_size_;
  size_t size_ = 0;
  std::unordered_map<CellKey, std::vector<Entry>> cells_;
};

}  // namespace index
}  // namespace sidq
