#include "index/grid_index.h"

#include <cmath>

#include "core/logging.h"

namespace sidq {
namespace index {

GridIndex::GridIndex(double cell_size) : cell_size_(cell_size) {
  SIDQ_CHECK(cell_size > 0.0) << "cell size must be positive";
}

void GridIndex::CellCoords(const geometry::Point& p, int64_t* cx,
                           int64_t* cy) const {
  *cx = static_cast<int64_t>(std::floor(p.x / cell_size_));
  *cy = static_cast<int64_t>(std::floor(p.y / cell_size_));
}

GridIndex::CellKey GridIndex::KeyOf(int64_t cx, int64_t cy) const {
  // Interleave-free 32/32 packing; fine for |cell coord| < 2^31.
  return (static_cast<uint64_t>(static_cast<uint32_t>(cx)) << 32) |
         static_cast<uint64_t>(static_cast<uint32_t>(cy));
}

GridIndex::CellKey GridIndex::KeyOf(const geometry::Point& p) const {
  int64_t cx, cy;
  CellCoords(p, &cx, &cy);
  return KeyOf(cx, cy);
}

void GridIndex::Insert(uint64_t id, const geometry::Point& p) {
  cells_[KeyOf(p)].push_back(Entry{id, p});
  ++size_;
}

std::vector<uint64_t> GridIndex::RangeQuery(const geometry::BBox& box) const {
  std::vector<uint64_t> out;
  if (box.Empty()) return out;
  int64_t cx0, cy0, cx1, cy1;
  CellCoords(geometry::Point(box.min_x, box.min_y), &cx0, &cy0);
  CellCoords(geometry::Point(box.max_x, box.max_y), &cx1, &cy1);
  for (int64_t cx = cx0; cx <= cx1; ++cx) {
    for (int64_t cy = cy0; cy <= cy1; ++cy) {
      auto it = cells_.find(KeyOf(cx, cy));
      if (it == cells_.end()) continue;
      for (const Entry& e : it->second) {
        if (box.Contains(e.p)) out.push_back(e.id);
      }
    }
  }
  return out;
}

std::vector<uint64_t> GridIndex::RadiusQuery(const geometry::Point& center,
                                             double radius) const {
  std::vector<uint64_t> out;
  const geometry::BBox box(center.x - radius, center.y - radius,
                           center.x + radius, center.y + radius);
  int64_t cx0, cy0, cx1, cy1;
  CellCoords(geometry::Point(box.min_x, box.min_y), &cx0, &cy0);
  CellCoords(geometry::Point(box.max_x, box.max_y), &cx1, &cy1);
  const double r_sq = radius * radius;
  for (int64_t cx = cx0; cx <= cx1; ++cx) {
    for (int64_t cy = cy0; cy <= cy1; ++cy) {
      auto it = cells_.find(KeyOf(cx, cy));
      if (it == cells_.end()) continue;
      for (const Entry& e : it->second) {
        if (geometry::DistanceSq(e.p, center) <= r_sq) out.push_back(e.id);
      }
    }
  }
  return out;
}

}  // namespace index
}  // namespace sidq
