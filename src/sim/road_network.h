#pragma once

#include <atomic>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/random.h"
#include "core/status.h"
#include "core/statusor.h"
#include "core/types.h"
#include "geometry/bbox.h"
#include "geometry/point.h"

namespace sidq {
namespace sim {

// Relaxed atomic counter that keeps value semantics: copies snapshot the
// current count, so an owning object stays copyable/movable. Used for
// const-method statistics that fleet execution may bump from many worker
// threads (data-race-free; interleaved writers make the value approximate,
// which is fine for search-effort stats). Atomics-only by design -- it
// carries no capability and needs no SIDQ_GUARDED_BY; the capability map
// in DESIGN.md ("Concurrency & locking discipline") lists it with the
// other lock-free structures, and its values are scheduling-dependent, so
// they must never feed golden-tested output (they are kVolatile-class
// stats, same rule as obs::MetricStability::kVolatile).
class RelaxedCounter {
 public:
  RelaxedCounter() = default;
  RelaxedCounter(const RelaxedCounter& other) : v_(other.load()) {}
  RelaxedCounter& operator=(const RelaxedCounter& other) {
    v_.store(other.load(), std::memory_order_relaxed);
    return *this;
  }
  RelaxedCounter& operator=(size_t v) {
    v_.store(v, std::memory_order_relaxed);
    return *this;
  }
  RelaxedCounter& operator++() {
    v_.fetch_add(1, std::memory_order_relaxed);
    return *this;
  }
  // NOLINTNEXTLINE(google-explicit-constructor)
  operator size_t() const { return load(); }
  size_t load() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<size_t> v_{0};
};

// A planar road network: undirected edges between embedded nodes. Serves as
// the spatial constraint substrate for map matching, route inference,
// network-constrained compression, and trajectory simulation.
class RoadNetwork {
 public:
  struct Node {
    geometry::Point p;
  };
  struct Edge {
    NodeId u = kInvalidNodeId;
    NodeId v = kInvalidNodeId;
    double length = 0.0;
  };

  RoadNetwork() = default;

  NodeId AddNode(const geometry::Point& p);
  // Adds an undirected edge; fails on unknown endpoints or self-loops.
  [[nodiscard]] StatusOr<EdgeId> AddEdge(NodeId u, NodeId v);

  size_t num_nodes() const { return nodes_.size(); }
  size_t num_edges() const { return edges_.size(); }
  const Node& node(NodeId id) const { return nodes_[id]; }
  const Edge& edge(EdgeId id) const { return edges_[id]; }
  const std::vector<Edge>& edges() const { return edges_; }
  // Edge ids incident to node `id`.
  const std::vector<EdgeId>& incident_edges(NodeId id) const {
    return adjacency_[id];
  }
  geometry::BBox Bounds() const;

  // Other endpoint of `e` as seen from `from`.
  NodeId Opposite(EdgeId e, NodeId from) const;

  // Dijkstra shortest path between nodes; returns node sequence (inclusive).
  [[nodiscard]] StatusOr<std::vector<NodeId>> ShortestPath(NodeId from, NodeId to) const;
  // A* shortest path with the Euclidean heuristic (admissible because edge
  // lengths are Euclidean); same result as ShortestPath, fewer expansions.
  [[nodiscard]] StatusOr<std::vector<NodeId>> ShortestPathAStar(NodeId from,
                                                  NodeId to) const;
  // Length of the shortest path, or infinity when unreachable.
  double ShortestPathLength(NodeId from, NodeId to) const;
  // Nodes expanded by the most recent ShortestPath/ShortestPathAStar call
  // (search-effort statistics for the A* ablation). Atomic because const
  // path queries update it and fleet execution issues them from many
  // worker threads; concurrent callers see *a* recent count, not their own.
  mutable RelaxedCounter last_nodes_expanded;

  // Builds (or rebuilds) the edge lookup accelerator; must be called after
  // the last AddEdge and before Nearest*() queries.
  void BuildSpatialIndex(double cell_size = 100.0);
  // Edge nearest to `p` (requires BuildSpatialIndex); NotFound when empty.
  [[nodiscard]] StatusOr<EdgeId> NearestEdge(const geometry::Point& p) const;
  // Edges within `radius` of `p` (requires BuildSpatialIndex).
  std::vector<EdgeId> EdgesNear(const geometry::Point& p,
                                double radius) const;
  // Node nearest to `p` (linear scan; networks are small).
  [[nodiscard]] StatusOr<NodeId> NearestNode(const geometry::Point& p) const;

  // Closest point of edge `e` to `p`.
  geometry::Point ProjectToEdge(EdgeId e, const geometry::Point& p) const;
  // Distance from `p` to edge `e`.
  double DistanceToEdge(EdgeId e, const geometry::Point& p) const;

 private:
  std::vector<Node> nodes_;
  std::vector<Edge> edges_;
  std::vector<std::vector<EdgeId>> adjacency_;
  // Edge midpoints bucketed on a uniform grid of `cell_size_` cells, keyed
  // by the cell's packed (x, y) coordinates; each cell keeps its edges in
  // insertion (edge id) order. Radius searches over-expand by the max edge
  // half-length to stay exact.
  struct EdgeMidpoint {
    EdgeId edge;
    geometry::Point mid;
  };
  std::unordered_map<uint64_t, std::vector<EdgeMidpoint>> edge_cells_;
  double cell_size_ = 100.0;
  double max_edge_length_ = 0.0;
  bool index_built_ = false;
};

// Generates a perturbed grid road network: `cols` x `rows` intersections
// spaced `spacing` metres apart, each jittered by `jitter` metres, with a
// fraction `drop_edge_prob` of street segments removed (keeping the network
// connected is not guaranteed for high drop rates; generator retries are the
// caller's concern -- defaults keep it connected with overwhelming
// probability).
RoadNetwork MakeGridRoadNetwork(int cols, int rows, double spacing,
                                double jitter, double drop_edge_prob,
                                Rng* rng);

// Picks a random simple route of at least `min_hops` nodes via random walk
// without immediate backtracking.
[[nodiscard]] StatusOr<std::vector<NodeId>> RandomRoute(const RoadNetwork& net,
                                          size_t min_hops, Rng* rng);

}  // namespace sim
}  // namespace sidq
