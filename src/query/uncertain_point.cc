#include "query/uncertain_point.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "kernels/packed_rtree.h"

namespace sidq {
namespace query {

UncertainPoint UncertainPoint::MakeGaussian(ObjectId id,
                                            const geometry::Point& mean,
                                            double sigma) {
  UncertainPoint p;
  p.id_ = id;
  p.gaussian_ = true;
  p.mean_ = mean;
  p.sigma_ = std::max(1e-9, sigma);
  return p;
}

StatusOr<UncertainPoint> UncertainPoint::MakeDiscrete(
    ObjectId id, std::vector<Sample> samples) {
  if (samples.empty()) {
    return Status::InvalidArgument("discrete pdf needs >= 1 sample");
  }
  double total = 0.0;
  for (const Sample& s : samples) {
    if (s.prob < 0.0) {
      return Status::InvalidArgument("negative sample probability");
    }
    total += s.prob;
  }
  if (total <= 0.0) {
    return Status::InvalidArgument("zero total probability");
  }
  UncertainPoint p;
  p.id_ = id;
  p.gaussian_ = false;
  geometry::Point mean(0.0, 0.0);
  for (Sample& s : samples) {
    s.prob /= total;
    mean += s.p * s.prob;
  }
  p.mean_ = mean;
  p.samples_ = std::move(samples);
  return p;
}

namespace {

// P(lo <= X <= hi) for X ~ N(mu, sigma^2).
double GaussianIntervalProb(double mu, double sigma, double lo, double hi) {
  const double inv = 1.0 / (sigma * std::sqrt(2.0));
  return 0.5 * (std::erf((hi - mu) * inv) - std::erf((lo - mu) * inv));
}

}  // namespace

double UncertainPoint::ProbInBox(const geometry::BBox& box) const {
  if (box.Empty()) return 0.0;
  if (gaussian_) {
    return GaussianIntervalProb(mean_.x, sigma_, box.min_x, box.max_x) *
           GaussianIntervalProb(mean_.y, sigma_, box.min_y, box.max_y);
  }
  double p = 0.0;
  for (const Sample& s : samples_) {
    if (box.Contains(s.p)) p += s.prob;
  }
  return p;
}

double UncertainPoint::ExpectedDistance(const geometry::Point& q) const {
  if (!gaussian_) {
    double acc = 0.0;
    for (const Sample& s : samples_) {
      acc += s.prob * geometry::Distance(s.p, q);
    }
    return acc;
  }
  // Distance to an isotropic Gaussian is Rice-distributed with
  // nu = |q - mean| and sigma. Mean (exact):
  //   sigma * sqrt(pi/2) * e^{-x/2} [(1+x) I0(x/2) + x I1(x/2)],
  // with x = nu^2 / (2 sigma^2). Far from the mean the Bessel terms
  // overflow, so switch to the asymptotic nu + sigma^2/(2 nu).
  const double nu = geometry::Distance(mean_, q);
  if (nu > 6.0 * sigma_) {
    return nu + sigma_ * sigma_ / (2.0 * nu);
  }
  const double x = nu * nu / (2.0 * sigma_ * sigma_);
  const double half = x / 2.0;
  const double i0 = std::cyl_bessel_i(0.0, half);
  const double i1 = std::cyl_bessel_i(1.0, half);
  return sigma_ * std::sqrt(M_PI / 2.0) * std::exp(-half) *
         ((1.0 + x) * i0 + x * i1);
}

geometry::BBox UncertainPoint::BoundingRegion(double k) const {
  if (gaussian_) {
    const double r = k * sigma_;
    return geometry::BBox(mean_.x - r, mean_.y - r, mean_.x + r,
                          mean_.y + r);
  }
  geometry::BBox box;
  for (const Sample& s : samples_) box.Extend(s.p);
  return box;
}

std::vector<ObjectId> ProbabilisticRangeQuery(
    const std::vector<UncertainPoint>& objects, const geometry::BBox& box,
    double tau, PruningStats* stats) {
  std::vector<ObjectId> out;
  PruningStats local;
  local.total_objects = objects.size();
  for (const UncertainPoint& obj : objects) {
    const geometry::BBox region = obj.BoundingRegion();
    if (!region.Intersects(box)) {
      ++local.pruned_out;  // probability ~ 0 (< 1e-5): cannot reach tau
      continue;
    }
    if (box.Contains(region) && tau <= 1.0 - 1e-5) {
      ++local.accepted_cheap;  // probability ~ 1
      out.push_back(obj.id());
      continue;
    }
    ++local.evaluated_exact;
    if (obj.ProbInBox(box) >= tau) out.push_back(obj.id());
  }
  if (stats != nullptr) *stats = local;
  return out;
}

std::vector<std::vector<ObjectId>> ProbabilisticRangeQueryMany(
    const std::vector<UncertainPoint>& objects,
    const std::vector<geometry::BBox>& boxes, double tau,
    std::vector<PruningStats>* stats) {
  std::vector<std::vector<ObjectId>> out(boxes.size());
  if (stats != nullptr) stats->assign(boxes.size(), PruningStats{});
  if (boxes.empty()) return out;
  // Bulk-load the bounding regions once, keyed by object index. An empty
  // region (unreachable through the factories, but guarded: BulkLoad
  // rejects inverted boxes) can intersect nothing, so leaving it out of
  // the tree classifies it pruned_out exactly like the linear scan.
  std::vector<geometry::BBox> regions(objects.size());
  std::vector<kernels::PackedRTree::Item> items;
  items.reserve(objects.size());
  for (size_t i = 0; i < objects.size(); ++i) {
    regions[i] = objects[i].BoundingRegion();
    if (!regions[i].Empty()) items.push_back({i, regions[i]});
  }
  kernels::PackedRTree tree;
  tree.BulkLoad(std::move(items));
  // One tree probe per box; BBox::Intersects is symmetric, so the tree's
  // region-vs-box test prunes exactly the objects the solo scan's
  // region.Intersects(box) would.
  kernels::PackedRTree::BatchResults candidates;
  tree.RangeQueryMany(boxes, &candidates);
  for (size_t q = 0; q < boxes.size(); ++q) {
    PruningStats local;
    local.total_objects = objects.size();
    local.pruned_out = objects.size() - candidates.count_of(q);
    // The solo scan emits ids in object order; sort the box's DFS-order
    // candidates back to index order so the output is bit-identical.
    uint64_t* cand_begin = candidates.ids.data() + candidates.offsets[q];
    uint64_t* cand_end = candidates.ids.data() + candidates.offsets[q + 1];
    std::sort(cand_begin, cand_end);
    for (const uint64_t* c = cand_begin; c != cand_end; ++c) {
      const size_t i = static_cast<size_t>(*c);
      const UncertainPoint& obj = objects[i];
      if (boxes[q].Contains(regions[i]) && tau <= 1.0 - 1e-5) {
        ++local.accepted_cheap;  // probability ~ 1
        out[q].push_back(obj.id());
        continue;
      }
      ++local.evaluated_exact;
      if (obj.ProbInBox(boxes[q]) >= tau) out[q].push_back(obj.id());
    }
    if (stats != nullptr) (*stats)[q] = local;
  }
  return out;
}

std::vector<ObjectId> ExpectedDistanceKnn(
    const std::vector<UncertainPoint>& objects, const geometry::Point& q,
    size_t k, PruningStats* stats) {
  PruningStats local;
  local.total_objects = objects.size();
  if (k == 0 || objects.empty()) {
    if (stats != nullptr) *stats = local;
    return {};
  }
  // Process in increasing lower-bound order so pruning kicks in early.
  std::vector<std::pair<double, size_t>> order;
  order.reserve(objects.size());
  for (size_t i = 0; i < objects.size(); ++i) {
    order.emplace_back(objects[i].BoundingRegion().MinDistance(q), i);
  }
  std::sort(order.begin(), order.end());
  // Max-heap of the best k (expected distance, id).
  std::vector<std::pair<double, ObjectId>> best;
  for (const auto& [lower_bound, i] : order) {
    if (best.size() == k && lower_bound >= best.front().first) {
      ++local.pruned_out;
      continue;  // every later object has an even larger lower bound
    }
    ++local.evaluated_exact;
    const double ed = objects[i].ExpectedDistance(q);
    if (best.size() < k) {
      best.emplace_back(ed, objects[i].id());
      std::push_heap(best.begin(), best.end());
    } else if (ed < best.front().first) {
      std::pop_heap(best.begin(), best.end());
      best.back() = {ed, objects[i].id()};
      std::push_heap(best.begin(), best.end());
    }
  }
  std::sort_heap(best.begin(), best.end());
  std::vector<ObjectId> out;
  out.reserve(best.size());
  for (const auto& [ed, id] : best) out.push_back(id);
  if (stats != nullptr) *stats = local;
  return out;
}

RangeCountDistribution RangeCount(const std::vector<UncertainPoint>& objects,
                                  const geometry::BBox& box) {
  RangeCountDistribution out;
  // Inclusion probabilities, with bounding-region shortcuts.
  std::vector<double> probs;
  for (const UncertainPoint& obj : objects) {
    const geometry::BBox region = obj.BoundingRegion();
    if (!region.Intersects(box)) continue;  // p ~ 0
    double p;
    if (box.Contains(region)) {
      p = 1.0;
    } else {
      p = obj.ProbInBox(box);
    }
    if (p <= 1e-12) continue;
    probs.push_back(std::min(1.0, p));
    out.expected += p;
    out.variance += p * (1.0 - p);
  }
  // Poisson-binomial DP: pmf[c] after processing each object.
  std::vector<double> pmf(probs.size() + 1, 0.0);
  pmf[0] = 1.0;
  size_t upper = 0;
  for (const double p : probs) {
    ++upper;
    for (size_t c = upper; c-- > 0;) {
      pmf[c + 1] += pmf[c] * p;
      pmf[c] *= (1.0 - p);
    }
  }
  out.tail.assign(pmf.size(), 0.0);
  double acc = 0.0;
  for (size_t c = pmf.size(); c-- > 0;) {
    acc += pmf[c];
    out.tail[c] = std::min(1.0, acc);
  }
  return out;
}

std::vector<std::pair<ObjectId, double>> ProbabilisticNearestNeighbor(
    const std::vector<UncertainPoint>& objects, const geometry::Point& q,
    int samples, Rng* rng) {
  std::vector<std::pair<ObjectId, double>> out;
  if (objects.empty() || samples <= 0) return out;
  std::vector<size_t> wins(objects.size(), 0);
  // One location draw per object per round; the round's winner is the NN.
  auto draw = [&](const UncertainPoint& obj) {
    if (obj.is_gaussian()) {
      return geometry::Point(obj.mean().x + rng->Gaussian(0, obj.sigma()),
                             obj.mean().y + rng->Gaussian(0, obj.sigma()));
    }
    std::vector<double> weights;
    weights.reserve(obj.samples().size());
    for (const auto& s : obj.samples()) weights.push_back(s.prob);
    return obj.samples()[rng->Categorical(weights)].p;
  };
  for (int round = 0; round < samples; ++round) {
    size_t best = 0;
    double best_d = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < objects.size(); ++i) {
      const double d = geometry::DistanceSq(draw(objects[i]), q);
      if (d < best_d) {
        best_d = d;
        best = i;
      }
    }
    ++wins[best];
  }
  for (size_t i = 0; i < objects.size(); ++i) {
    if (wins[i] == 0) continue;
    out.emplace_back(objects[i].id(),
                     static_cast<double>(wins[i]) / samples);
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.second > b.second;
  });
  return out;
}

}  // namespace query
}  // namespace sidq
