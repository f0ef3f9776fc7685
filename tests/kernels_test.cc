// Property tests for the kernel layer: every vectorized primitive must be
// BIT-IDENTICAL (not merely close) to its scalar reference over randomized
// trajectories including empty, single-point, and degenerate inputs, and
// PackedRTree must return the same result sets as a brute-force scan.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/arena.h"
#include "core/clock.h"
#include "core/exec_context.h"
#include "core/random.h"
#include "kernels/dispatch.h"
#include "kernels/packed_rtree.h"
#include "kernels/scalar_ref.h"
#include "kernels/soa.h"
#include "query/similarity.h"
#include "sim/trajectory_sim.h"

namespace sidq {
namespace kernels {
namespace {

using geometry::BBox;
using geometry::Point;

// Random trajectory with degenerate features: duplicate points (zero-length
// segments), repeated timestamps, collinear runs.
Trajectory RandomTrajectory(Rng* rng, size_t n, ObjectId id = 1) {
  Trajectory tr(id);
  Timestamp t = 0;
  Point p(rng->Uniform(-500.0, 500.0), rng->Uniform(-500.0, 500.0));
  for (size_t i = 0; i < n; ++i) {
    const double roll = rng->Uniform(0.0, 1.0);
    if (roll < 0.15 && i > 0) {
      // duplicate the previous point (zero-length segment)
    } else if (roll < 0.25 && i > 0) {
      p += Point(rng->Uniform(0.0, 5.0), 0.0);  // axis-aligned step
    } else {
      p += Point(rng->Uniform(-20.0, 20.0), rng->Uniform(-20.0, 20.0));
    }
    tr.AppendUnordered(TrajectoryPoint(t, p));
    t += rng->Bernoulli(0.1) ? 0 : rng->UniformInt(100, 2000);
  }
  return tr;
}

std::vector<size_t> InterestingSizes() { return {0, 1, 2, 3, 7, 33, 64}; }

// ------------------------------------------------------- measure identity

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(KernelEquivalenceTest, DtwMatchesScalarBitForBit) {
  // The wavefront DTW, as one kernel call (no context) and one call per
  // anti-diagonal (live context), against the row-serial reference: every
  // shape from empty to 240 points, every band from unbanded to narrower
  // than the length ratio, with a NaN coordinate in neither, the first or
  // the second input.
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  const size_t sizes[] = {0, 1, 2, 3, 17, 64, 240};
  Rng rng(7);
  VirtualClock clock;
  const ExecContext live = ExecContext::After(&clock, 1000);
  for (size_t n : sizes) {
    for (size_t m : sizes) {
      for (int nan_case = 0; nan_case < 3; ++nan_case) {
        Trajectory a = RandomTrajectory(&rng, n, 1);
        Trajectory b = RandomTrajectory(&rng, m, 2);
        if (nan_case == 1 && n > 0) a.mutable_points()[n / 2].p.x = kNan;
        if (nan_case == 2 && m > 0) b.mutable_points()[m - 1].p.y = kNan;
        for (int band : {-1, 0, 1, 4, 32}) {
          const double want = scalar::DtwDistance(a, b, band);
          const auto plain = query::DtwDistanceBounded(a, b, band, nullptr);
          const auto bounded = query::DtwDistanceBounded(a, b, band, &live);
          ASSERT_TRUE(plain.ok());
          ASSERT_TRUE(bounded.ok());
          EXPECT_TRUE(SameBits(*plain, want))
              << "n=" << n << " m=" << m << " band=" << band
              << " nan_case=" << nan_case;
          EXPECT_TRUE(SameBits(*bounded, want))
              << "n=" << n << " m=" << m << " band=" << band
              << " nan_case=" << nan_case;
        }
      }
    }
  }
}

TEST(KernelEquivalenceTest, FrechetMatchesScalarBitForBit) {
  Rng rng(11);
  for (size_t n : InterestingSizes()) {
    for (size_t m : InterestingSizes()) {
      const Trajectory a = RandomTrajectory(&rng, n, 1);
      const Trajectory b = RandomTrajectory(&rng, m, 2);
      EXPECT_EQ(query::DiscreteFrechetDistance(a, b),
                scalar::FrechetDistance(a, b))
          << "n=" << n << " m=" << m;
    }
  }
}

TEST(KernelEquivalenceTest, EdrMatchesScalarBitForBit) {
  Rng rng(13);
  for (size_t n : InterestingSizes()) {
    for (size_t m : InterestingSizes()) {
      const Trajectory a = RandomTrajectory(&rng, n, 1);
      const Trajectory b = RandomTrajectory(&rng, m, 2);
      for (double eps : {0.0, 5.0, 50.0}) {
        EXPECT_EQ(query::EdrDistance(a, b, eps),
                  scalar::EdrDistance(a, b, eps))
            << "n=" << n << " m=" << m << " eps=" << eps;
      }
    }
  }
}

TEST(KernelEquivalenceTest, LcssMatchesScalarBitForBit) {
  Rng rng(17);
  for (size_t n : InterestingSizes()) {
    for (size_t m : InterestingSizes()) {
      const Trajectory a = RandomTrajectory(&rng, n, 1);
      const Trajectory b = RandomTrajectory(&rng, m, 2);
      EXPECT_EQ(query::LcssSimilarity(a, b, 25.0, 5000),
                scalar::LcssSimilarity(a, b, 25.0, 5000))
          << "n=" << n << " m=" << m;
    }
  }
}

// ----------------------------------------------------- primitive identity

TEST(KernelEquivalenceTest, ConsecutiveDistMatchesScalar) {
  Rng rng(23);
  for (size_t n : InterestingSizes()) {
    const Trajectory tr = RandomTrajectory(&rng, n);
    ArenaScope scope(ScratchArena());
    const SoaView v = CopyColumns(tr, &scope);
    std::vector<double> got(n > 1 ? n - 1 : 0), want(n > 1 ? n - 1 : 0);
    KernelDispatch::Get().consecutive_dist(v.x, v.y, n, got.data());
    scalar::ConsecutiveDist(tr, want.data());
    EXPECT_EQ(got, want) << "n=" << n;
  }
}

TEST(KernelEquivalenceTest, PointToManyDistMatchesScalar) {
  Rng rng(29);
  for (size_t n : InterestingSizes()) {
    const Trajectory tr = RandomTrajectory(&rng, n);
    ArenaScope scope(ScratchArena());
    const SoaView v = CopyColumns(tr, &scope);
    const Point p(rng.Uniform(-500.0, 500.0), rng.Uniform(-500.0, 500.0));
    std::vector<double> got(n), want(n);
    KernelDispatch::Get().point_to_many_dist(p.x, p.y, v.x, v.y, n,
                                             got.data());
    scalar::PointToManyDist(p, tr, want.data());
    EXPECT_EQ(got, want) << "n=" << n;
  }
}

// ------------------------------------------------------------ SoA columns

TEST(CopyColumnsTest, ColumnsMatchPoints) {
  Rng rng(41);
  const Trajectory tr = RandomTrajectory(&rng, 33);
  ArenaScope scope(ScratchArena());
  const SoaView v = CopyColumns(tr, &scope);
  ASSERT_EQ(v.size, tr.size());
  for (size_t i = 0; i < tr.size(); ++i) {
    EXPECT_EQ(v.x[i], tr[i].p.x);
    EXPECT_EQ(v.y[i], tr[i].p.y);
    EXPECT_EQ(v.t[i], tr[i].t);
  }
}

// ------------------------------------------------------------ PackedRTree

std::vector<PackedRTree::Item> RandomBoxes(Rng* rng, size_t n) {
  std::vector<PackedRTree::Item> items;
  items.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const double x = rng->Uniform(0.0, 1000.0);
    const double y = rng->Uniform(0.0, 1000.0);
    const double w = rng->Uniform(0.0, 30.0);
    const double h = rng->Uniform(0.0, 30.0);
    items.push_back({i, BBox(x, y, x + w, y + h)});
  }
  return items;
}

// Brute-force oracles: sorted ids of every item intersecting `query`, and
// the sorted MinDistance of every item to `p`.
std::vector<uint64_t> BruteRange(const std::vector<PackedRTree::Item>& items,
                                 const BBox& query) {
  std::vector<uint64_t> out;
  for (const auto& it : items) {
    if (it.box.Intersects(query)) out.push_back(it.id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<double> BruteDistances(const std::vector<PackedRTree::Item>& items,
                                   const Point& p) {
  std::vector<double> out;
  for (const auto& it : items) out.push_back(it.box.MinDistance(p));
  std::sort(out.begin(), out.end());
  return out;
}

// kNN through the best-first walk: the first k items a BoxGapScan from the
// point box of `p` streams.
std::vector<uint64_t> NearestK(const PackedRTree& tree, const Point& p,
                               size_t k) {
  std::vector<uint64_t> out;
  BoxGapScan scan(tree, BBox(p, p));
  uint64_t id = 0;
  double gap = 0.0;
  while (out.size() < k && scan.Next(&id, &gap)) out.push_back(id);
  return out;
}

TEST(PackedRTreeTest, RangeQueryMatchesRTree) {
  Rng rng(47);
  for (size_t n : {0ul, 1ul, 5ul, 16ul, 17ul, 300ul}) {
    const std::vector<PackedRTree::Item> items = RandomBoxes(&rng, n);
    PackedRTree packed;
    packed.BulkLoad(items);
    for (int q = 0; q < 20; ++q) {
      const double x = rng.Uniform(-50.0, 1050.0);
      const double y = rng.Uniform(-50.0, 1050.0);
      const BBox query(x, y, x + rng.Uniform(0.0, 200.0),
                       y + rng.Uniform(0.0, 200.0));
      std::vector<uint64_t> got = packed.RangeQuery(query);
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, BruteRange(items, query)) << "n=" << n;
    }
    // Empty query boxes match nothing.
    EXPECT_TRUE(packed.RangeQuery(BBox()).empty());
  }
}

// Wide leaves take the SIMD leaf sweep through full blocks, ragged tails,
// and the contains-whole-subtree span emit; the result sets must still
// match brute force exactly.
TEST(PackedRTreeTest, WideLeavesMatchRTree) {
  Rng rng(67);
  for (size_t max_entries : {32ul, 64ul}) {
    for (size_t n : {63ul, 64ul, 65ul, 1000ul}) {
      const std::vector<PackedRTree::Item> items = RandomBoxes(&rng, n);
      PackedRTree packed(max_entries);
      packed.BulkLoad(items);
      for (int q = 0; q < 20; ++q) {
        const double x = rng.Uniform(-50.0, 1050.0);
        const double y = rng.Uniform(-50.0, 1050.0);
        // Mix small boxes with huge ones that contain whole subtrees.
        const double side = (q % 3 == 0) ? 600.0 : rng.Uniform(0.0, 120.0);
        const BBox query(x, y, x + side, y + side);
        std::vector<uint64_t> got = packed.RangeQuery(query);
        std::sort(got.begin(), got.end());
        EXPECT_EQ(got, BruteRange(items, query))
            << "max_entries=" << max_entries << " n=" << n;
      }
    }
  }
}

TEST(PackedRTreeTest, RangeQueryManyReusesCallerBuffers) {
  Rng rng(71);
  PackedRTree packed(64);
  packed.BulkLoad(RandomBoxes(&rng, 500));
  std::vector<BBox> queries;
  for (int q = 0; q < 40; ++q) {
    const double x = rng.Uniform(0.0, 1000.0);
    const double y = rng.Uniform(0.0, 1000.0);
    queries.emplace_back(x, y, x + 150.0, y + 150.0);
  }
  // A batch into buffers that already hold another batch's results
  // replaces them entirely: it equals the same batch into fresh buffers.
  std::vector<BBox> one_query{queries.front()};
  PackedRTree::BatchResults reused;
  packed.RangeQueryMany(one_query, &reused);
  packed.RangeQueryMany(queries, &reused);
  PackedRTree::BatchResults fresh;
  packed.RangeQueryMany(queries, &fresh);
  EXPECT_EQ(reused.ids, fresh.ids);
  EXPECT_EQ(reused.offsets, fresh.offsets);
  // And back to the single query.
  packed.RangeQueryMany(one_query, &reused);
  ASSERT_EQ(reused.queries(), 1u);
  EXPECT_EQ(std::vector<uint64_t>(reused.begin_of(0), reused.end_of(0)),
            packed.RangeQuery(queries.front()));
}

// Every box of a batch gets exactly the brute-force result set, including
// the boxes a batch must not trip over: an inverted box, one disjoint from
// the root, one containing the root and a zero-area point box.
TEST(PackedRTreeTest, RangeQueryManyMatchesBruteForce) {
  Rng rng(53);
  const std::vector<PackedRTree::Item> items = RandomBoxes(&rng, 1000);
  const BBox& corner = items[7].box;
  std::vector<BBox> queries{
      BBox(600.0, 600.0, 400.0, 400.0),
      BBox(2000.0, 2000.0, 2100.0, 2100.0),
      BBox(-10.0, -10.0, 1100.0, 1100.0),
      BBox(corner.min_x, corner.min_y, corner.min_x, corner.min_y),
  };
  for (int q = 0; q < 30; ++q) {
    const double x = rng.Uniform(0.0, 1000.0);
    const double y = rng.Uniform(0.0, 1000.0);
    queries.emplace_back(x, y, x + 100.0, y + 100.0);
  }
  for (size_t max_entries : {size_t{4}, size_t{16}, size_t{64}}) {
    PackedRTree packed(max_entries);
    packed.BulkLoad(items);
    PackedRTree::BatchResults batch;
    packed.RangeQueryMany(queries, &batch);
    ASSERT_EQ(batch.queries(), queries.size());
    for (size_t q = 0; q < queries.size(); ++q) {
      std::vector<uint64_t> got(batch.begin_of(q), batch.end_of(q));
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, BruteRange(items, queries[q]))
          << "max_entries=" << max_entries << " q=" << q;
    }
    EXPECT_EQ(batch.count_of(0), 0u);
    EXPECT_EQ(batch.count_of(1), 0u);
    EXPECT_EQ(batch.count_of(2), items.size());
    EXPECT_GE(batch.count_of(3), 1u);
  }
}

TEST(PackedRTreeTest, KnnMatchesRTreeDistances) {
  Rng rng(59);
  const std::vector<PackedRTree::Item> items = RandomBoxes(&rng, 150);
  PackedRTree packed;
  packed.BulkLoad(items);
  for (int q = 0; q < 20; ++q) {
    const Point p(rng.Uniform(0.0, 1000.0), rng.Uniform(0.0, 1000.0));
    const std::vector<double> all = BruteDistances(items, p);
    for (size_t k : {1ul, 5ul, 151ul}) {
      const std::vector<uint64_t> got = NearestK(packed, p, k);
      ASSERT_EQ(got.size(), std::min(k, items.size()));
      // Ties at equal MinDistance may pick either id; the distance
      // sequence must equal the k smallest brute-force distances, sorted.
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(items[got[i]].box.MinDistance(p), all[i]) << "i=" << i;
      }
    }
  }
}

// Queries are const and keep no member state, so threads sharing one tree
// (e.g. two threads calibrating through one TrajectoryCalibrator, whose
// anchor index answers a BoxGapScan) must each get exactly the serial
// answers. Run under TSan this also proves the queries write nothing
// shared.
TEST(PackedRTreeTest, ConcurrentQueriesMatchSerial) {
  Rng rng(73);
  PackedRTree packed;
  packed.BulkLoad(RandomBoxes(&rng, 400));
  std::vector<Point> points;
  std::vector<BBox> boxes;
  for (int q = 0; q < 24; ++q) {
    const double x = rng.Uniform(0.0, 1000.0);
    const double y = rng.Uniform(0.0, 1000.0);
    points.emplace_back(x, y);
    boxes.emplace_back(x, y, x + 80.0, y + 80.0);
  }
  std::vector<std::vector<uint64_t>> serial_knn;
  for (const Point& p : points) serial_knn.push_back(NearestK(packed, p, 7));
  PackedRTree::BatchResults serial_range;
  packed.RangeQueryMany(boxes, &serial_range);

  constexpr int kThreads = 4;
  std::vector<std::vector<std::vector<uint64_t>>> knn(kThreads);
  std::vector<PackedRTree::BatchResults> range(kThreads);
  // sidq: allow-stray-thread(raw threads share one const tree without pool scheduling)
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < 20; ++rep) {
        knn[t].clear();
        for (const Point& p : points) knn[t].push_back(NearestK(packed, p, 7));
        packed.RangeQueryMany(boxes, &range[t]);
      }
    });
  }
  // sidq: allow-stray-thread(joining the query threads spawned above)
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(knn[t], serial_knn) << "thread " << t;
    EXPECT_EQ(range[t].ids, serial_range.ids) << "thread " << t;
    EXPECT_EQ(range[t].offsets, serial_range.offsets) << "thread " << t;
  }
}

TEST(PackedRTreeTest, BoxGapScanStreamsSortedOrder) {
  Rng rng(61);
  const std::vector<PackedRTree::Item> items = RandomBoxes(&rng, 173);
  PackedRTree packed;
  packed.BulkLoad(items);
  for (int q = 0; q < 10; ++q) {
    const double x = rng.Uniform(0.0, 1000.0);
    const double y = rng.Uniform(0.0, 1000.0);
    const BBox qbox(x, y, x + 40.0, y + 40.0);
    // Brute-force expected order: stable (gap, id) sort of all items.
    std::vector<std::pair<double, uint64_t>> expect;
    for (const auto& it : items) {
      expect.emplace_back(BoxGap(qbox, it.box), it.id);
    }
    std::sort(expect.begin(), expect.end());
    BoxGapScan scan(packed, qbox);
    uint64_t id = 0;
    double gap = 0.0;
    size_t i = 0;
    while (scan.Next(&id, &gap)) {
      ASSERT_LT(i, expect.size());
      EXPECT_EQ(gap, expect[i].first) << "i=" << i;
      EXPECT_EQ(id, expect[i].second) << "i=" << i;
      ++i;
    }
    EXPECT_EQ(i, expect.size()) << "scan must be exhaustive";
  }
}

TEST(PackedRTreeTest, EmptyTree) {
  PackedRTree packed;
  packed.BulkLoad({});
  EXPECT_TRUE(packed.empty());
  EXPECT_EQ(packed.height(), 0);
  EXPECT_TRUE(packed.RangeQuery(BBox(0, 0, 1, 1)).empty());
  BoxGapScan scan(packed, BBox(0, 0, 1, 1));
  uint64_t id;
  double gap;
  EXPECT_FALSE(scan.Next(&id, &gap));
}

// -------------------------------------------- similarity search parity

// Expects DtwMbrLowerBound(q, c) never above DtwDistance(q, c, band) for
// any band. NaN on either side passes: a NaN bound never prunes, and a
// candidate whose DTW is NaN never enters a full heap.
void ExpectBoundBelowDtw(const Trajectory& q, const Trajectory& c,
                         const char* what) {
  const double lb = query::DtwMbrLowerBound(q, q.Bounds(), c, c.Bounds());
  for (int band : {-1, 1, 4, 32}) {
    const double dtw = query::DtwDistance(q, c, band);
    EXPECT_FALSE(dtw < lb) << what << ": bound " << lb << " above DTW "
                           << dtw << " (|q|=" << q.size()
                           << " |c|=" << c.size() << " band=" << band << ")";
  }
}

// Straight line of `n` points along x with spacing `dx`, at height `y`.
Trajectory Line(size_t n, double dx, double y, ObjectId id = 1) {
  Trajectory tr(id);
  for (size_t i = 0; i < n; ++i) {
    tr.AppendUnordered(TrajectoryPoint(static_cast<Timestamp>(i) * 1000,
                                       Point(static_cast<double>(i) * dx, y)));
  }
  return tr;
}

TEST(SimilaritySearchKernelTest, MbrLowerBoundNeverExceedsDtw) {
  Rng rng(61);
  for (int trial = 0; trial < 40; ++trial) {
    const Trajectory q =
        RandomTrajectory(&rng, static_cast<size_t>(rng.UniformInt(1, 80)), 1);
    const Trajectory c =
        RandomTrajectory(&rng, static_cast<size_t>(rng.UniformInt(0, 80)), 2);
    ExpectBoundBelowDtw(q, c, "random");
    ExpectBoundBelowDtw(c, q, "random, swapped");
  }
  // Parallel lines at sub-metre offsets: each point's distance to the
  // other line's MBR is the offset itself, so with equal lengths the bound
  // equals the DTW before its rounding margin, and any upward slip of the
  // bound fails here.
  for (const double offset : {1e-9, 1e-3, 0.1, 0.3, 0.7}) {
    for (const size_t n : {size_t{1}, size_t{7}, size_t{64}, size_t{240}}) {
      for (const size_t m : {n, n + 3, 2 * n}) {
        const Trajectory q = Line(n, 1.0, 0.0);
        const Trajectory c = Line(m, static_cast<double>(n) / m, offset, 2);
        ExpectBoundBelowDtw(q, c, "parallel lines");
        ExpectBoundBelowDtw(c, q, "parallel lines, swapped");
      }
    }
  }
  // A candidate identical to the query: DTW and bound are both 0.
  const Trajectory q = RandomTrajectory(&rng, 50, 1);
  EXPECT_EQ(query::DtwMbrLowerBound(q, q.Bounds(), q, q.Bounds()), 0.0);
  ExpectBoundBelowDtw(q, q, "identical");
  // Length 1 against 240: the narrow bands leave no finite path (DTW is
  // +inf), the unbanded DTW is finite.
  const Trajectory one = RandomTrajectory(&rng, 1, 2);
  const Trajectory long_tr = RandomTrajectory(&rng, 240, 3);
  ExpectBoundBelowDtw(one, long_tr, "1 vs 240");
  ExpectBoundBelowDtw(long_tr, one, "240 vs 1");
  // NaN coordinates in either input.
  Trajectory nan_x = RandomTrajectory(&rng, 30, 4);
  nan_x.mutable_points()[10].p.x = std::numeric_limits<double>::quiet_NaN();
  Trajectory nan_y = RandomTrajectory(&rng, 30, 5);
  nan_y.mutable_points()[29].p.y = std::numeric_limits<double>::quiet_NaN();
  ExpectBoundBelowDtw(q, nan_x, "NaN in candidate");
  ExpectBoundBelowDtw(nan_x, q, "NaN in query");
  ExpectBoundBelowDtw(nan_x, nan_y, "NaN in both");
  // Empty candidates: DTW is +inf against a non-empty query, 0 against an
  // empty one.
  const Trajectory empty(6);
  ExpectBoundBelowDtw(q, empty, "empty candidate");
  ExpectBoundBelowDtw(empty, empty, "both empty");
}

TEST(SimilaritySearchKernelTest, KnnMatchesBruteForceDtwOrder) {
  // The pruning cascade must return exactly the brute-force ranking by
  // (DTW, index) over seeds, with duplicate trajectories (equal DTW and
  // equal MBR gap, so ties break by index on both sides), an exact copy of
  // the query, an empty candidate, and k from 1 past the collection size.
  for (uint64_t seed = 67; seed < 67 + 12; ++seed) {
    Rng rng(seed);
    std::vector<Trajectory> collection;
    for (size_t i = 0; i < 40; ++i) {
      collection.push_back(
          RandomTrajectory(&rng, 20 + (i % 13), static_cast<ObjectId>(i)));
    }
    const Trajectory q = RandomTrajectory(&rng, 25, 1000);
    collection.push_back(collection[3]);
    collection.push_back(collection[17]);
    collection.push_back(q);
    collection.push_back(Trajectory(99));  // empty candidate
    const size_t size = collection.size();

    query::TrajectorySimilaritySearch search;
    search.Build(&collection);
    // Brute force: DTW against everything, same band.
    std::vector<std::pair<double, size_t>> all;
    for (size_t i = 0; i < size; ++i) {
      all.emplace_back(query::DtwDistance(q, collection[i], 32), i);
    }
    std::sort(all.begin(), all.end());
    for (const size_t k : {size_t{1}, size_t{5}, size - 1, size, size + 3}) {
      query::TrajectorySimilaritySearch::SearchStats stats;
      const auto got = search.Knn(q, k, &stats);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(stats.candidates, size);
      EXPECT_EQ(stats.pruned + stats.dtw_computed, stats.candidates);
      ASSERT_EQ(got.value().size(), std::min(k, size));
      for (size_t i = 0; i < got.value().size(); ++i) {
        EXPECT_EQ(got.value()[i], all[i].second)
            << "seed " << seed << " k " << k << " rank " << i;
      }
    }
  }
}

TEST(SimilaritySearchKernelTest, EmptyCollectionAndEmptyQuery) {
  std::vector<Trajectory> empty_collection;
  query::TrajectorySimilaritySearch search;
  search.Build(&empty_collection);
  Rng rng(71);
  const Trajectory q = RandomTrajectory(&rng, 5);
  const auto got = search.Knn(q, 3);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got.value().empty());
  EXPECT_FALSE(search.Knn(Trajectory(1), 3).ok()) << "empty query rejected";
}

}  // namespace
}  // namespace kernels
}  // namespace sidq
