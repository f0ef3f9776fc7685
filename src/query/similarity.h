#pragma once

#include <vector>

#include "core/exec_context.h"
#include "core/statusor.h"
#include "core/trajectory.h"
#include "core/types.h"
#include "geometry/bbox.h"
#include "kernels/packed_rtree.h"

namespace sidq {
namespace query {

// Trajectory similarity measures and similarity search over large
// collections (Section 2.3.1, "queries over massive SID"; Xie et al.
// PVLDB 2017 / Yuan & Li ICDE 2019 families). The robust measures (DTW,
// EDR, LCSS) are exactly the tools used to query *low-quality* trajectory
// data: they tolerate noise, differing sampling rates, and gaps that break
// naive pointwise distances.

// Dynamic time warping distance with an optional Sakoe-Chiba band
// (band <= 0 disables the constraint). O(n*m) time (O((n+m)*band) with a
// band), O(m) memory from the scratch arena. Runs as an anti-diagonal
// wavefront (kernels::KernelOps::dtw_full), bit-identical to the row-serial
// reference kernels::scalar::DtwDistance.
double DtwDistance(const Trajectory& a, const Trajectory& b, int band = -1);

// DtwDistance with a cooperative ExecContext check per DP anti-diagonal
// (n + m - 1 checks): a deadline or fleet cancellation aborts the O(n*m)
// recursion between diagonals with kDeadlineExceeded / kCancelled instead
// of running to completion. exec == nullptr never fails and computes
// exactly DtwDistance.
[[nodiscard]] StatusOr<double> DtwDistanceBounded(const Trajectory& a,
                                                  const Trajectory& b,
                                                  int band,
                                                  const ExecContext* exec);

// Lower bound of DtwDistance(q, c, band) for every band, given the MBRs of
// both trajectories: max(sum_i dist(q_i, c_mbr), sum_j dist(c_j, q_mbr)).
// Every warping path matches each point of either trajectory at least
// once, and a match costs at least that point's distance to the other
// trajectory's MBR; a band only removes paths (and yields +inf when it
// leaves none). Shrunk by a 2^-30 relative margin so floating-point
// rounding never lifts it above the DTW it bounds (trajectories under
// ~4 M points). O(|q| + |c|). This is the second stage of the pruning
// cascade in TrajectorySimilaritySearch::Knn (the UCR-suite scheme,
// Rakthanmanon et al. KDD 2012).
double DtwMbrLowerBound(const Trajectory& q, const geometry::BBox& q_mbr,
                        const Trajectory& c, const geometry::BBox& c_mbr);

// Discrete Frechet distance. O(n*m).
double DiscreteFrechetDistance(const Trajectory& a, const Trajectory& b);

// DiscreteFrechetDistance with a cooperative ExecContext check per DP
// anti-diagonal (the same contract as DtwDistanceBounded).
[[nodiscard]] StatusOr<double> DiscreteFrechetDistanceBounded(
    const Trajectory& a, const Trajectory& b, const ExecContext* exec);

// Edit distance on real sequences (EDR): edit cost with a match tolerance
// `epsilon_m`; insertions/deletions/substitutions cost 1. Normalised by
// max(|a|, |b|) so 0 = identical (within tolerance) and 1 = nothing
// matches.
double EdrDistance(const Trajectory& a, const Trajectory& b,
                   double epsilon_m);

// Longest common subsequence similarity with spatial tolerance `epsilon_m`
// and temporal tolerance `delta_ms`; returned as a fraction of
// min(|a|, |b|), so 1 = fully matching.
double LcssSimilarity(const Trajectory& a, const Trajectory& b,
                      double epsilon_m, Timestamp delta_ms);

// k-nearest-trajectory search under DTW with a lower-bound cascade.
// Candidates stream from a packed R-tree in ascending MBR gap to the
// query's MBR; once k results are held, a candidate is skipped without its
// DTW when a bound reaches the current k-th best: first gap * |q| (which
// also ends the scan), then gap * max(|q|, |c|) -- every alignment has at
// least that many matched pairs, each at least the gap apart -- then
// DtwMbrLowerBound. The cascade never changes the result: it skips only
// candidates whose DTW could not enter the k best.
class TrajectorySimilaritySearch {
 public:
  struct Options {
    int dtw_band = 32;
  };

  explicit TrajectorySimilaritySearch(Options options)
      : options_(options) {}
  TrajectorySimilaritySearch() : TrajectorySimilaritySearch(Options{}) {}

  // Indexes the collection (kept by reference; must outlive the search).
  void Build(const std::vector<Trajectory>* collection);

  struct SearchStats {
    size_t candidates = 0;
    size_t pruned = 0;
    size_t dtw_computed = 0;
  };

  // Indices of the k most similar trajectories by DTW, most similar first.
  [[nodiscard]] StatusOr<std::vector<size_t>> Knn(const Trajectory& queried, size_t k,
                                    SearchStats* stats = nullptr) const;

 private:
  Options options_;
  const std::vector<Trajectory>* collection_ = nullptr;
  std::vector<geometry::BBox> mbrs_;
  // Packed R-tree over the non-empty MBRs (item id = collection index);
  // BoxGapScan streams candidates gap-ascending so Knn can stop as soon as
  // the pruning bound closes instead of sorting every candidate. Empty
  // MBRs (point-free trajectories) cannot live in the tree -- their boxes
  // are inverted -- and trail the scan at infinite gap, in index order.
  kernels::PackedRTree tree_;
  std::vector<size_t> empty_mbrs_;
};

}  // namespace query
}  // namespace sidq
