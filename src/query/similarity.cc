#include "query/similarity.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/arena.h"
#include "kernels/dispatch.h"
#include "kernels/soa.h"

namespace sidq {
namespace query {

// The O(n*m) measures below run on x/y/t columns copied per call into the
// scratch arena (kernels::CopyColumns) and the dispatched kernels
// (kernels/dispatch.h): EDR and LCSS run a vectorized distance pass per DP
// row while the carried recurrence stays sequential; DTW and discrete
// Frechet run as anti-diagonal wavefronts. The kernels execute the same
// operations in the same order as the original AoS loops (kept verbatim in
// kernels/scalar_ref.cc), so every result is bit-identical to the
// pre-kernel implementation -- asserted by tests/kernels_test.cc and the
// bench_kernels checksum gate. Columns, DP
// rows, diagonals and distance scratch live in the thread-local scratch
// arena (core/arena.h): a distance call performs zero heap allocations,
// which matters when the similarity search evaluates thousands of
// candidates per query.

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Every pruning bound is a floating-point sum (or product) of per-point
// costs, each no larger than the float distance the DTW adds for the same
// match; rounding the sum can still lift it a few ulps per term above the
// exact value. Shrinking by 2^-30 relative covers the rounding of both
// the bound's and the DTW's sums for trajectories under ~4 M points, so a
// shrunk bound never exceeds a float DTW it bounds in exact arithmetic.
constexpr double kLowerBoundMargin = 1.0 - 0x1p-30;

double Shrunk(double bound) { return bound * kLowerBoundMargin; }

// Sum over the points of `tr` of their distance to `box`.
double SumDistanceToBox(const Trajectory& tr, const geometry::BBox& box) {
  double sum = 0.0;
  for (const TrajectoryPoint& pt : tr.points()) sum += box.MinDistance(pt.p);
  return sum;
}

// The one DTW entry point: banded DTW over columns. Without a context the
// whole table is one wavefront call. With one, the anti-diagonal is the
// unit of work a deadline can interrupt: one call per diagonal, each
// resuming from the scratch diagonals the previous call left, so the
// result is bit-identical either way.
StatusOr<double> DtwColumns(const kernels::SoaView& a,
                            const kernels::SoaView& b, int band,
                            const ExecContext* exec) {
  const size_t n = a.size;
  const size_t m = b.size;
  if (n == 0 || m == 0) return n == m ? 0.0 : kInf;
  const kernels::KernelOps& k = kernels::KernelDispatch::Get();
  ArenaScope scope(ScratchArena());
  double* scratch = scope.AllocArray<double>(3 * (m + 2));
  const size_t diagonals = n + m - 1;
  const size_t step = exec == nullptr ? diagonals : 1;
  double result = 0.0;
  for (size_t d = 0; d < diagonals; d += step) {
    if (exec != nullptr) SIDQ_RETURN_IF_ERROR(exec->Check());
    result = k.dtw_full(a.x, a.y, n, b.x, b.y, m, band, d, d + step, scratch);
  }
  return result;
}

}  // namespace

StatusOr<double> DtwDistanceBounded(const Trajectory& a, const Trajectory& b,
                                    int band, const ExecContext* exec) {
  ArenaScope scope(ScratchArena());
  return DtwColumns(kernels::CopyColumns(a, &scope),
                    kernels::CopyColumns(b, &scope), band, exec);
}

double DtwDistance(const Trajectory& a, const Trajectory& b, int band) {
  // Without a context the bounded variant cannot fail.
  return *DtwDistanceBounded(a, b, band, nullptr);
}

double DtwMbrLowerBound(const Trajectory& q, const geometry::BBox& q_mbr,
                        const Trajectory& c, const geometry::BBox& c_mbr) {
  return Shrunk(std::max(SumDistanceToBox(q, c_mbr),
                         SumDistanceToBox(c, q_mbr)));
}

StatusOr<double> DiscreteFrechetDistanceBounded(const Trajectory& a,
                                                const Trajectory& b,
                                                const ExecContext* exec) {
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0 || m == 0) return n == m ? 0.0 : kInf;
  const kernels::KernelOps& k = kernels::KernelDispatch::Get();
  ArenaScope scope(ScratchArena());
  const kernels::SoaView va = kernels::CopyColumns(a, &scope);
  const kernels::SoaView vb = kernels::CopyColumns(b, &scope);
  double* scratch = scope.AllocArray<double>(3 * m);
  // One wavefront call, or one per anti-diagonal with a context (as for
  // DTW above).
  const size_t diagonals = n + m - 1;
  const size_t step = exec == nullptr ? diagonals : 1;
  double result = 0.0;
  for (size_t d = 0; d < diagonals; d += step) {
    if (exec != nullptr) SIDQ_RETURN_IF_ERROR(exec->Check());
    result =
        k.frechet_full(va.x, va.y, n, vb.x, vb.y, m, d, d + step, scratch);
  }
  return result;
}

double DiscreteFrechetDistance(const Trajectory& a, const Trajectory& b) {
  return *DiscreteFrechetDistanceBounded(a, b, nullptr);
}

double EdrDistance(const Trajectory& a, const Trajectory& b,
                   double epsilon_m) {
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0 && m == 0) return 0.0;
  if (n == 0 || m == 0) return 1.0;
  const kernels::KernelOps& k = kernels::KernelDispatch::Get();
  ArenaScope scope(ScratchArena());
  const kernels::SoaView va = kernels::CopyColumns(a, &scope);
  const kernels::SoaView vb = kernels::CopyColumns(b, &scope);
  double* prev = scope.AllocArray<double>(m + 1);
  double* cur = scope.AllocArray<double>(m + 1);
  double* dist = scope.AllocArray<double>(m);
  for (size_t j = 0; j <= m; ++j) prev[j] = static_cast<double>(j);
  for (size_t i = 1; i <= n; ++i) {
    cur[0] = static_cast<double>(i);
    k.point_to_many_dist(va.x[i - 1], va.y[i - 1], vb.x, vb.y, m, dist);
    for (size_t j = 1; j <= m; ++j) {
      const bool match = dist[j - 1] <= epsilon_m;
      const double sub = prev[j - 1] + (match ? 0.0 : 1.0);
      cur[j] = std::min({sub, prev[j] + 1.0, cur[j - 1] + 1.0});
    }
    std::swap(prev, cur);
  }
  return prev[m] / static_cast<double>(std::max(n, m));
}

double LcssSimilarity(const Trajectory& a, const Trajectory& b,
                      double epsilon_m, Timestamp delta_ms) {
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0 || m == 0) return 0.0;
  const kernels::KernelOps& k = kernels::KernelDispatch::Get();
  ArenaScope scope(ScratchArena());
  const kernels::SoaView va = kernels::CopyColumns(a, &scope);
  const kernels::SoaView vb = kernels::CopyColumns(b, &scope);
  // cur[0] is never written by the row loop and must stay 0 across swaps,
  // so both DP rows start zero-filled.
  double* prev = scope.AllocFilled<double>(m + 1, 0.0);
  double* cur = scope.AllocFilled<double>(m + 1, 0.0);
  double* dist = scope.AllocArray<double>(m);
  for (size_t i = 1; i <= n; ++i) {
    k.point_to_many_dist(va.x[i - 1], va.y[i - 1], vb.x, vb.y, m, dist);
    const Timestamp ta = va.t[i - 1];
    for (size_t j = 1; j <= m; ++j) {
      const bool match = dist[j - 1] <= epsilon_m &&
                         std::abs(ta - vb.t[j - 1]) <= delta_ms;
      if (match) {
        cur[j] = prev[j - 1] + 1.0;
      } else {
        cur[j] = std::max(prev[j], cur[j - 1]);
      }
    }
    std::swap(prev, cur);
  }
  return prev[m] / static_cast<double>(std::min(n, m));
}

void TrajectorySimilaritySearch::Build(
    const std::vector<Trajectory>* collection) {
  collection_ = collection;
  mbrs_.clear();
  mbrs_.reserve(collection->size());
  empty_mbrs_.clear();
  std::vector<kernels::PackedRTree::Item> items;
  items.reserve(collection->size());
  for (size_t i = 0; i < collection->size(); ++i) {
    mbrs_.push_back((*collection)[i].Bounds());
    if (mbrs_.back().Empty()) {
      empty_mbrs_.push_back(i);
    } else {
      items.push_back({static_cast<uint64_t>(i), mbrs_.back()});
    }
  }
  tree_.BulkLoad(std::move(items));
}

StatusOr<std::vector<size_t>> TrajectorySimilaritySearch::Knn(
    const Trajectory& queried, size_t k, SearchStats* stats) const {
  if (collection_ == nullptr) {
    return Status::FailedPrecondition("Build() not called");
  }
  if (queried.empty()) {
    return Status::InvalidArgument("empty query trajectory");
  }
  SearchStats local;
  local.candidates = collection_->size();
  if (k == 0) {
    local.pruned = local.candidates;
    if (stats != nullptr) *stats = local;
    return std::vector<size_t>{};
  }
  const geometry::BBox qbox = queried.Bounds();
  const double qn = static_cast<double>(queried.size());
  // The query's columns are copied once; each DTW copies its candidate's.
  ArenaScope scope(ScratchArena());
  const kernels::SoaView qv = kernels::CopyColumns(queried, &scope);

  // Max-heap of the best k (dtw, index). Candidates arrive in increasing
  // (MBR-gap, index) order -- BoxGapScan streams the tree in exactly the
  // order the former sort-all-candidates implementation produced -- so the
  // k-th best tightens as early as possible. Once the heap is full, each
  // candidate meets a cascade of lower bounds, cheapest first, and is
  // pruned as soon as one reaches the k-th best (a candidate whose DTW
  // only ties it would not enter the heap either):
  //   1. gap * |q|: no later candidate can beat it, so the scan stops;
  //   2. gap * max(|q|, |c|): every alignment has that many matched
  //      pairs, each costing at least the MBR gap;
  //   3. DtwMbrLowerBound, O(|q| + |c|);
  // and only then the banded DTW. Every bound goes through Shrunk (the
  // third inside DtwMbrLowerBound).
  std::vector<std::pair<double, size_t>> best;
  const auto prunes = [&](double bound) {
    return best.size() == k && Shrunk(bound) >= best.front().first;
  };
  // Returns false when the scan can stop: all remaining candidates (gap at
  // least as large) are prunable.
  const auto consider = [&](size_t i, double gap) {
    if (prunes(gap * qn)) return false;
    const Trajectory& cand = (*collection_)[i];
    const double matched =
        static_cast<double>(std::max(queried.size(), cand.size()));
    if (prunes(gap * matched)) return true;
    if (best.size() == k &&
        DtwMbrLowerBound(queried, qbox, cand, mbrs_[i]) >=
            best.front().first) {
      return true;
    }
    ++local.dtw_computed;
    ArenaScope cand_scope(ScratchArena());
    // Without a context the DTW cannot fail.
    const double d = *DtwColumns(qv, kernels::CopyColumns(cand, &cand_scope),
                                 options_.dtw_band, nullptr);
    if (best.size() < k) {
      best.emplace_back(d, i);
      std::push_heap(best.begin(), best.end());
    } else if (d < best.front().first) {
      std::pop_heap(best.begin(), best.end());
      best.back() = {d, i};
      std::push_heap(best.begin(), best.end());
    }
    return true;
  };

  kernels::BoxGapScan scan(tree_, qbox);
  uint64_t id = 0;
  double gap = 0.0;
  bool stopped = false;
  while (scan.Next(&id, &gap)) {
    if (!consider(static_cast<size_t>(id), gap)) {
      stopped = true;
      break;
    }
  }
  // Point-free trajectories have inverted MBRs (infinite gap): they sort
  // after every tree item, in index order.
  if (!stopped) {
    for (size_t i : empty_mbrs_) {
      if (!consider(i, kernels::BoxGap(qbox, mbrs_[i]))) break;
    }
  }

  // Every candidate not reached by the scan was pruned by the bound that
  // stopped it.
  local.pruned = local.candidates - local.dtw_computed;
  std::sort_heap(best.begin(), best.end());
  std::vector<size_t> out;
  out.reserve(best.size());
  for (const auto& [d, i] : best) out.push_back(i);
  if (stats != nullptr) *stats = local;
  return out;
}

}  // namespace query
}  // namespace sidq
