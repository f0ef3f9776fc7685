#pragma once

#include <cstdint>
#include <vector>

#include "core/statusor.h"
#include "core/types.h"
#include "geometry/bbox.h"
#include "core/random.h"
#include "geometry/point.h"

namespace sidq {
namespace query {

// An object location under uncertainty (Section 2.3.1, "uncertainty caused
// by location inaccuracy"). Two pdf flavours are supported: a continuous
// isotropic Gaussian and a discrete sample set with occurrence
// probabilities.
class UncertainPoint {
 public:
  struct Sample {
    geometry::Point p;
    double prob = 0.0;
  };

  // Gaussian pdf centred at `mean` with per-axis sigma.
  static UncertainPoint MakeGaussian(ObjectId id, const geometry::Point& mean,
                                     double sigma);
  // Discrete pdf; probabilities are normalised internally.
  static StatusOr<UncertainPoint> MakeDiscrete(ObjectId id,
                                               std::vector<Sample> samples);

  ObjectId id() const { return id_; }
  bool is_gaussian() const { return gaussian_; }
  const geometry::Point& mean() const { return mean_; }
  double sigma() const { return sigma_; }
  const std::vector<Sample>& samples() const { return samples_; }

  // Probability that the true location lies inside `box` (exact closed form
  // for the Gaussian via erf; exact sum for the discrete case).
  double ProbInBox(const geometry::BBox& box) const;

  // Expected Euclidean distance to `q` (closed form for discrete; accurate
  // series approximation of the Rice distribution mean for the Gaussian).
  double ExpectedDistance(const geometry::Point& q) const;

  // A conservative bounding region: mean +/- `k` sigma for Gaussians
  // (prob mass outside is < 1e-5 for k >= 4.5), sample extent for discrete.
  geometry::BBox BoundingRegion(double k = 4.5) const;

 private:
  ObjectId id_ = kInvalidObjectId;
  bool gaussian_ = true;
  geometry::Point mean_;
  double sigma_ = 1.0;
  std::vector<Sample> samples_;
};

// Result statistics exposing how effective bound-based pruning was -- the
// "priority-oriented processing and object pruning" the tutorial highlights.
struct PruningStats {
  size_t total_objects = 0;
  size_t pruned_out = 0;      // bounding region misses the query
  size_t accepted_cheap = 0;  // bounding region fully inside (tau <= 1)
  size_t evaluated_exact = 0; // needed the exact probability

  double PrunedFraction() const {
    return total_objects == 0
               ? 0.0
               : 1.0 - static_cast<double>(evaluated_exact) /
                           static_cast<double>(total_objects);
  }
};

// Probabilistic range query: ids of objects with P(inside box) >= tau.
// Uses bounding-region pruning before exact evaluation.
std::vector<ObjectId> ProbabilisticRangeQuery(
    const std::vector<UncertainPoint>& objects, const geometry::BBox& box,
    double tau, PruningStats* stats = nullptr);

// Batched form for a fleet of boxes: bulk-loads a packed R-tree over the
// objects' bounding regions once and answers each box with one tree probe
// (kernels::PackedRTree::RangeQueryMany), replacing B full linear scans.
// Per box, the returned ids and the stats are IDENTICAL to
// ProbabilisticRangeQuery on that box -- candidates are re-ordered to
// object order before the exact evaluation, and the pruning predicates are
// the same box tests.
// `stats`, when non-null, is resized to one entry per box.
std::vector<std::vector<ObjectId>> ProbabilisticRangeQueryMany(
    const std::vector<UncertainPoint>& objects,
    const std::vector<geometry::BBox>& boxes, double tau,
    std::vector<PruningStats>* stats = nullptr);

// Expected-distance k-nearest-neighbours with lower-bound pruning: objects
// whose bounding-region MinDistance exceeds the current k-th expected
// distance are skipped without exact evaluation.
std::vector<ObjectId> ExpectedDistanceKnn(
    const std::vector<UncertainPoint>& objects, const geometry::Point& q,
    size_t k, PruningStats* stats = nullptr);

// Range aggregates against uncertain objects (Zhang et al., TKDE 2011
// family): the number of objects inside `box` is Poisson-binomial
// distributed with per-object inclusion probabilities p_i = P(o_i in box).
struct RangeCountDistribution {
  double expected = 0.0;
  double variance = 0.0;
  // tail[m] = P(count >= m); size = #objects with p_i > 0, plus one.
  std::vector<double> tail;

  // P(count >= m); 0 beyond the support.
  double ProbAtLeast(size_t m) const {
    if (m == 0) return 1.0;
    return m < tail.size() ? tail[m] : 0.0;
  }
};

// Exact count distribution via the Poisson-binomial dynamic program
// (objects with negligible probability are skipped; bounding regions prune
// the exact pdf evaluations just like the range query).
RangeCountDistribution RangeCount(const std::vector<UncertainPoint>& objects,
                                  const geometry::BBox& box);

// Probabilistic nearest neighbour: P(o_i is the NN of q) for every object,
// estimated by Monte Carlo over the location pdfs (`samples` draws).
// Returns (id, probability) pairs sorted by decreasing probability;
// objects with zero hits are omitted.
std::vector<std::pair<ObjectId, double>> ProbabilisticNearestNeighbor(
    const std::vector<UncertainPoint>& objects, const geometry::Point& q,
    int samples, Rng* rng);

}  // namespace query
}  // namespace sidq
