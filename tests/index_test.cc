#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "core/random.h"
#include "index/grid_index.h"
#include "index/rtree.h"
#include "kernels/packed_rtree.h"

namespace sidq {
namespace index {
namespace {

using geometry::BBox;
using geometry::Point;

std::vector<Point> RandomPoints(size_t n, double extent, uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.emplace_back(rng.Uniform(0, extent), rng.Uniform(0, extent));
  }
  return out;
}

std::vector<uint64_t> BruteRange(const std::vector<Point>& pts,
                                 const BBox& box) {
  std::vector<uint64_t> out;
  for (size_t i = 0; i < pts.size(); ++i) {
    if (box.Contains(pts[i])) out.push_back(i);
  }
  return out;
}

std::vector<uint64_t> BruteKnn(const std::vector<Point>& pts, const Point& q,
                               size_t k) {
  std::vector<std::pair<double, uint64_t>> d;
  for (size_t i = 0; i < pts.size(); ++i) {
    d.emplace_back(geometry::DistanceSq(pts[i], q), i);
  }
  std::sort(d.begin(), d.end());
  std::vector<uint64_t> out;
  for (size_t i = 0; i < std::min(k, d.size()); ++i) out.push_back(d[i].second);
  return out;
}

// ------------------------------------------------------------- GridIndex

TEST(GridIndexTest, RangeMatchesBruteForce) {
  const auto pts = RandomPoints(500, 1000.0, 5);
  GridIndex idx(50.0);
  for (size_t i = 0; i < pts.size(); ++i) idx.Insert(i, pts[i]);
  EXPECT_EQ(idx.size(), pts.size());
  for (int trial = 0; trial < 20; ++trial) {
    Rng rng(100 + trial);
    const double x = rng.Uniform(0, 900), y = rng.Uniform(0, 900);
    const BBox box(x, y, x + rng.Uniform(10, 300), y + rng.Uniform(10, 300));
    auto got = idx.RangeQuery(box);
    auto want = BruteRange(pts, box);
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want);
  }
}

TEST(GridIndexTest, RadiusMatchesBruteForce) {
  const auto pts = RandomPoints(400, 800.0, 6);
  GridIndex idx(40.0);
  for (size_t i = 0; i < pts.size(); ++i) idx.Insert(i, pts[i]);
  const Point q(400, 400);
  auto got = idx.RadiusQuery(q, 120.0);
  std::set<uint64_t> got_set(got.begin(), got.end());
  for (size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(got_set.count(i) > 0,
              geometry::Distance(pts[i], q) <= 120.0)
        << "point " << i;
  }
}

TEST(GridIndexTest, EmptyQueries) {
  GridIndex idx(10.0);
  EXPECT_EQ(idx.size(), 0u);
  EXPECT_TRUE(idx.RangeQuery(BBox(0, 0, 100, 100)).empty());
  EXPECT_TRUE(idx.RadiusQuery(Point(0, 0), 50).empty());
}

// ------------------------------------------------------------------ RTree

TEST(RTreeTest, BulkLoadRange) {
  const auto pts = RandomPoints(800, 1500.0, 12);
  std::vector<RTree::Item> items;
  for (size_t i = 0; i < pts.size(); ++i) {
    items.push_back({i, BBox(pts[i], pts[i])});
  }
  RTree tree;
  tree.BulkLoad(items);
  EXPECT_EQ(tree.size(), 800u);
  EXPECT_GE(tree.height(), 2);
  const BBox box(100, 100, 700, 900);
  auto got = tree.RangeQuery(box);
  auto want = BruteRange(pts, box);
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, want);
  EXPECT_GT(tree.last_nodes_visited, 0u);
}

TEST(RTreeTest, RectangleItems) {
  RTree tree;
  tree.BulkLoad({{1, BBox(0, 0, 10, 10)},
                 {2, BBox(20, 20, 30, 30)},
                 {3, BBox(5, 5, 25, 25)}});
  auto got = tree.RangeQuery(BBox(8, 8, 12, 12));
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, (std::vector<uint64_t>{1, 3}));
}

TEST(RTreeTest, EmptyTree) {
  RTree tree;
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.height(), 0);
  EXPECT_TRUE(tree.RangeQuery(BBox(0, 0, 1, 1)).empty());
}

// Integer-lattice layout: coordinates are multiples of `step` on a
// side x side grid, so many points share x, y or both and query edges land
// exactly on point coordinates -- where a strict-vs-inclusive comparison
// in a split test drops points that continuous random data never hits.
std::vector<Point> LatticePoints(size_t n, int64_t side, double step,
                                 uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.emplace_back(step * static_cast<double>(rng.UniformInt(0, side - 1)),
                     step * static_cast<double>(rng.UniformInt(0, side - 1)));
  }
  return out;
}

std::vector<double> SortedDistances(const std::vector<Point>& pts,
                                    const std::vector<uint64_t>& ids,
                                    const Point& q) {
  std::vector<double> out;
  for (uint64_t id : ids) out.push_back(geometry::Distance(pts[id], q));
  std::sort(out.begin(), out.end());
  return out;
}

// Parameterised consistency sweep: the grid index and both R-trees agree
// with brute force on range queries (and PackedRTree on kNN) across sizes,
// on continuous random points and on an integer lattice full of duplicate
// coordinates.
class IndexConsistencyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(IndexConsistencyTest, AllIndexesAgree) {
  const size_t n = GetParam();
  for (const bool lattice : {false, true}) {
    SCOPED_TRACE(lattice ? "lattice" : "random");
    const auto pts = lattice ? LatticePoints(n, 10, 50.0, 42 + n)
                             : RandomPoints(n, 500.0, 42 + n);
    GridIndex grid(20.0);
    std::vector<RTree::Item> rt_items;
    std::vector<kernels::PackedRTree::Item> packed_items;
    for (size_t i = 0; i < n; ++i) {
      grid.Insert(i, pts[i]);
      rt_items.push_back({i, BBox(pts[i], pts[i])});
      packed_items.push_back({i, BBox(pts[i], pts[i])});
    }
    RTree rt;
    rt.BulkLoad(rt_items);
    kernels::PackedRTree packed;
    packed.BulkLoad(packed_items);
    Rng rng(7 + n);
    for (int trial = 0; trial < 20; ++trial) {
      // Lattice-aligned boxes (every edge on a multiple of 50), including
      // degenerate zero-width and zero-height ones.
      const double x0 = 50.0 * static_cast<double>(rng.UniformInt(0, 9));
      const double y0 = 50.0 * static_cast<double>(rng.UniformInt(0, 9));
      const BBox box(x0, y0,
                     x0 + 50.0 * static_cast<double>(rng.UniformInt(0, 5)),
                     y0 + 50.0 * static_cast<double>(rng.UniformInt(0, 5)));
      auto want = BruteRange(pts, box);
      auto g = grid.RangeQuery(box);
      auto r = rt.RangeQuery(box);
      auto p = packed.RangeQuery(box);
      std::sort(g.begin(), g.end());
      std::sort(r.begin(), r.end());
      std::sort(p.begin(), p.end());
      EXPECT_EQ(g, want) << "trial " << trial;
      EXPECT_EQ(r, want) << "trial " << trial;
      EXPECT_EQ(p, want) << "trial " << trial;

      // PackedRTree kNN: equal-distance ties may resolve to different ids,
      // so compare the distance sequences.
      const Point q(x0, y0);
      const size_t k = std::min<size_t>(5, n);
      const auto want_d = SortedDistances(pts, BruteKnn(pts, q, k), q);
      EXPECT_EQ(SortedDistances(pts, packed.Knn(q, k), q), want_d)
          << "trial " << trial;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, IndexConsistencyTest,
                         ::testing::Values(1, 10, 64, 256, 1000));

}  // namespace
}  // namespace index
}  // namespace sidq
