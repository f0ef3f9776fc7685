#include "index/grid_index.h"

#include <algorithm>
#include <cmath>
#include <queue>

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

bool GridIndex::Remove(uint64_t id, const geometry::Point& p) {
  auto it = cells_.find(KeyOf(p));
  if (it == cells_.end()) return false;
  auto& vec = it->second;
  for (size_t i = 0; i < vec.size(); ++i) {
    if (vec[i].id == id) {
      vec[i] = vec.back();
      vec.pop_back();
      if (vec.empty()) cells_.erase(it);
      --size_;
      return true;
    }
  }
  return false;
}

void GridIndex::Clear() {
  cells_.clear();
  size_ = 0;
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

std::vector<uint64_t> GridIndex::Knn(const geometry::Point& p,
                                     size_t k) const {
  std::vector<uint64_t> out;
  if (k == 0 || size_ == 0) return out;
  // Expanding-ring search: examine cells ring by ring; stop once the
  // current best k-th distance is below the next ring's minimum distance.
  using Cand = std::pair<double, uint64_t>;  // (dist_sq, id)
  std::priority_queue<Cand> best;            // max-heap of the k best
  int64_t pcx, pcy;
  CellCoords(p, &pcx, &pcy);
  // Rings past the farthest occupied cell are empty, so the search ends
  // there at the latest -- also when k exceeds the index size.
  int64_t max_ring = 0;
  for (const auto& [key, entries] : cells_) {
    int64_t cx, cy;
    CellCoords(entries.front().p, &cx, &cy);
    max_ring = std::max({max_ring, std::abs(cx - pcx), std::abs(cy - pcy)});
  }
  for (int64_t ring = 0; ring <= max_ring; ++ring) {
    for (int64_t dx = -ring; dx <= ring; ++dx) {
      for (int64_t dy = -ring; dy <= ring; ++dy) {
        if (std::max(std::abs(dx), std::abs(dy)) != ring) continue;
        auto it = cells_.find(KeyOf(pcx + dx, pcy + dy));
        if (it == cells_.end()) continue;
        for (const Entry& e : it->second) {
          const double d = geometry::DistanceSq(e.p, p);
          if (best.size() < k) {
            best.emplace(d, e.id);
          } else if (d < best.top().first) {
            best.pop();
            best.emplace(d, e.id);
          }
        }
      }
    }
    // Every point outside rings 0..ring lies at least ring * cell_size_
    // from `p`.
    const double ring_min = static_cast<double>(ring) * cell_size_;
    if (best.size() == k && best.top().first <= ring_min * ring_min) break;
  }
  out.resize(best.size());
  for (size_t i = out.size(); i-- > 0;) {
    out[i] = best.top().second;
    best.pop();
  }
  return out;
}

}  // namespace index
}  // namespace sidq
