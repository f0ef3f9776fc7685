#include "refine/hmm_map_matcher.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/arena.h"
#include "core/failpoint.h"
#include "kernels/dispatch.h"
#include "kernels/soa.h"

namespace sidq {
namespace refine {

std::vector<HmmMapMatcher::Candidate> HmmMapMatcher::CandidatesFor(
    const geometry::Point& p) const {
  std::vector<Candidate> out;
  double radius = options_.candidate_radius_m;
  std::vector<EdgeId> edges;
  for (int attempt = 0; attempt < 3 && edges.empty(); ++attempt) {
    edges = network_->EdgesNear(p, radius);
    radius *= 2.0;
  }
  const double inv_2s2 =
      1.0 / (2.0 * options_.gps_sigma_m * options_.gps_sigma_m);
  // Project onto every candidate edge, then score all emissions in one
  // batched distance sweep over arena-backed projection columns.
  out.reserve(edges.size());
  ArenaScope scope(ScratchArena());
  double* proj_x = scope.AllocArray<double>(edges.size());
  double* proj_y = scope.AllocArray<double>(edges.size());
  for (EdgeId e : edges) {
    Candidate c;
    c.edge = e;
    c.proj = network_->ProjectToEdge(e, p);
    proj_x[out.size()] = c.proj.x;
    proj_y[out.size()] = c.proj.y;
    out.push_back(c);
  }
  double* dists = scope.AllocArray<double>(out.size());
  kernels::KernelDispatch::Get().point_to_many_dist(p.x, p.y, proj_x, proj_y,
                                                    out.size(), dists);
  for (size_t i = 0; i < out.size(); ++i) {
    const double d = dists[i];
    out[i].emission_logp = -d * d * inv_2s2;
  }
  std::sort(out.begin(), out.end(), [](const Candidate& a, const Candidate& b) {
    return a.emission_logp > b.emission_logp;
  });
  if (out.size() > options_.max_candidates) {
    out.resize(options_.max_candidates);
  }
  return out;
}

double HmmMapMatcher::NodeDistance(NodeId u, NodeId v) const {
  if (u == v) return 0.0;
  const uint64_t key = (static_cast<uint64_t>(std::min(u, v)) << 32) |
                       static_cast<uint64_t>(std::max(u, v));
  auto it = node_dist_cache_.find(key);
  if (it != node_dist_cache_.end()) return it->second;
  const double d = network_->ShortestPathLength(u, v);
  node_dist_cache_.emplace(key, d);
  return d;
}

double HmmMapMatcher::RouteDistance(const Candidate& a,
                                    const Candidate& b) const {
  if (a.edge == b.edge) return geometry::Distance(a.proj, b.proj);
  const auto& ea = network_->edge(a.edge);
  const auto& eb = network_->edge(b.edge);
  const NodeId a_nodes[2] = {ea.u, ea.v};
  const NodeId b_nodes[2] = {eb.u, eb.v};
  double best = std::numeric_limits<double>::infinity();
  for (NodeId an : a_nodes) {
    const double da = geometry::Distance(a.proj, network_->node(an).p);
    for (NodeId bn : b_nodes) {
      const double db = geometry::Distance(b.proj, network_->node(bn).p);
      const double mid = NodeDistance(an, bn);
      best = std::min(best, da + mid + db);
    }
  }
  return best;
}

StatusOr<HmmMapMatcher::MatchResult> HmmMapMatcher::Match(
    const Trajectory& noisy, const ExecContext* exec) const {
  if (noisy.empty()) return Status::FailedPrecondition("empty trajectory");
  if (!noisy.IsTimeOrdered()) {
    return Status::FailedPrecondition("trajectory must be time-ordered");
  }
  const size_t n = noisy.size();
  std::vector<std::vector<Candidate>> layers(n);
  for (size_t i = 0; i < n; ++i) {
    // Candidate generation runs Dijkstra-backed projections; check the
    // budget before each point so a dense network cannot blow past it.
    if (exec != nullptr) SIDQ_RETURN_IF_ERROR(exec->Check());
    layers[i] = CandidatesFor(noisy[i].p);
    if (layers[i].empty()) {
      return Status::NotFound("no road candidates near point");
    }
  }

  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  // Viterbi scratch -- step lengths, the flattened score/backpointer
  // tables, and the backtracked choices -- lives in the arena. The tables
  // are ragged (one row per point, layer-sized), so they are flattened
  // over prefix-sum row offsets.
  ArenaScope vscope(ScratchArena());
  const kernels::SoaView nv = kernels::CopyColumns(noisy, &vscope);
  double* straight_dists = vscope.AllocArray<double>(n > 1 ? n - 1 : 0);
  if (n > 1) {
    kernels::KernelDispatch::Get().consecutive_dist(nv.x, nv.y, n,
                                                    straight_dists);
  }
  size_t* row = vscope.AllocArray<size_t>(n + 1);
  row[0] = 0;
  for (size_t i = 0; i < n; ++i) row[i + 1] = row[i] + layers[i].size();
  double* score = vscope.AllocArray<double>(row[n]);
  int* back = vscope.AllocFilled<int>(row[n], -1);
  for (size_t c = 0; c < layers[0].size(); ++c) {
    score[row[0] + c] = layers[0][c].emission_logp;
  }
  for (size_t i = 1; i < n; ++i) {
    // One chaos evaluation + one cooperative check per Viterbi layer: the
    // layer is the unit of work a deadline can interrupt.
    SIDQ_RETURN_IF_ERROR(MaybeInjectFailPoint("refine.hmm.viterbi_row",
                                              noisy.object_id(), exec));
    if (exec != nullptr) SIDQ_RETURN_IF_ERROR(exec->Check());
    const double straight = straight_dists[i - 1];
    double* cur = score + row[i];
    const double* prev = score + row[i - 1];
    int* cur_back = back + row[i];
    std::fill(cur, cur + layers[i].size(), kNegInf);
    for (size_t c = 0; c < layers[i].size(); ++c) {
      for (size_t p = 0; p < layers[i - 1].size(); ++p) {
        if (prev[p] == kNegInf) continue;
        const double route =
            RouteDistance(layers[i - 1][p], layers[i][c]);
        if (!std::isfinite(route)) continue;
        const double trans_logp =
            -std::abs(route - straight) / options_.beta_m;
        const double s = prev[p] + trans_logp + layers[i][c].emission_logp;
        if (s > cur[c]) {
          cur[c] = s;
          cur_back[c] = static_cast<int>(p);
        }
      }
    }
    // If everything is unreachable (disconnected network), restart the
    // chain at this layer.
    bool any = false;
    for (size_t c = 0; c < layers[i].size(); ++c) {
      any = any || cur[c] != kNegInf;
    }
    if (!any) {
      for (size_t c = 0; c < layers[i].size(); ++c) {
        cur[c] = layers[i][c].emission_logp;
        cur_back[c] = -1;
      }
    }
  }

  // Backtrack.
  int* choice = vscope.AllocFilled<int>(n, 0);
  {
    size_t best = 0;
    const double* last = score + row[n - 1];
    for (size_t c = 1; c < layers[n - 1].size(); ++c) {
      if (last[c] > last[best]) best = c;
    }
    choice[n - 1] = static_cast<int>(best);
    for (size_t i = n - 1; i-- > 0;) {
      const int b = back[row[i + 1] + choice[i + 1]];
      if (b >= 0) {
        choice[i] = b;
      } else {
        size_t loc_best = 0;
        for (size_t c = 1; c < layers[i].size(); ++c) {
          if (score[row[i] + c] > score[row[i] + loc_best]) loc_best = c;
        }
        choice[i] = static_cast<int>(loc_best);
      }
    }
  }

  MatchResult result;
  result.matched.set_object_id(noisy.object_id());
  result.matched.Reserve(n);
  result.edges.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const Candidate& c = layers[i][choice[i]];
    TrajectoryPoint pt = noisy[i];
    pt.p = c.proj;
    result.matched.AppendUnordered(pt);
    result.edges.push_back(c.edge);
  }
  return result;
}

}  // namespace refine
}  // namespace sidq
