#include "kernels/packed_rtree.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/arena.h"
#include "core/logging.h"
#include "kernels/dispatch.h"

namespace sidq {
namespace kernels {

double BoxGap(const geometry::BBox& a, const geometry::BBox& b) {
  const double dx = std::max({a.min_x - b.max_x, b.min_x - a.max_x, 0.0});
  const double dy = std::max({a.min_y - b.max_y, b.min_y - a.max_y, 0.0});
  return std::sqrt(dx * dx + dy * dy);
}

PackedRTree::PackedRTree(size_t max_entries) : max_entries_(max_entries) {
  SIDQ_CHECK(max_entries >= 4) << "max_entries must be >= 4";
  SIDQ_CHECK(max_entries <= kMaxEntriesCap)
      << "max_entries must be <= " << kMaxEntriesCap;
}

void PackedRTree::BulkLoad(std::vector<Item> items) {
  items_ = std::move(items);
  nodes_.clear();
  leaf_count_ = 0;
  height_ = 0;
  leaf_min_x_.clear();
  leaf_min_y_.clear();
  leaf_max_x_.clear();
  leaf_max_y_.clear();
  leaf_ids_.clear();
  node_min_x_.clear();
  node_min_y_.clear();
  node_max_x_.clear();
  node_max_y_.clear();
  node_index_.clear();
  if (items_.empty()) return;
  const size_t n = items_.size();
  for (const Item& it : items_) {
    // An inverted box has a NaN center, which would break the strict weak
    // ordering of the STR sorts below.
    SIDQ_CHECK(!it.box.Empty()) << "PackedRTree: empty item box";
  }

  if (n > max_entries_) {
    // STR: P = ceil(n / M) leaf pages, S = ceil(sqrt(P)) vertical slices;
    // sort by center x, then each slice by center y.
    const size_t pages = (n + max_entries_ - 1) / max_entries_;
    const size_t slices = static_cast<size_t>(
        std::ceil(std::sqrt(static_cast<double>(pages))));
    const size_t slice_cap = (n + slices - 1) / slices;
    std::sort(items_.begin(), items_.end(),
              [](const Item& a, const Item& b) {
                return a.box.Center().x < b.box.Center().x;
              });
    for (size_t s = 0; s < n; s += slice_cap) {
      const size_t s_end = std::min(s + slice_cap, n);
      std::sort(items_.begin() + s, items_.begin() + s_end,
                [](const Item& a, const Item& b) {
                  return a.box.Center().y < b.box.Center().y;
                });
    }
  }

  // Columnar mirror of the (now STR-sorted) items for SIMD leaf scans.
  leaf_min_x_.reserve(n);
  leaf_min_y_.reserve(n);
  leaf_max_x_.reserve(n);
  leaf_max_y_.reserve(n);
  leaf_ids_.reserve(n);
  for (const Item& it : items_) {
    leaf_min_x_.push_back(it.box.min_x);
    leaf_min_y_.push_back(it.box.min_y);
    leaf_max_x_.push_back(it.box.max_x);
    leaf_max_y_.push_back(it.box.max_y);
    leaf_ids_.push_back(it.id);
  }

  // Exact node count across all levels, so the level packing below never
  // reallocates (node construction is cold, but iterator stability over
  // nodes_ during the parent pass matters).
  size_t total_nodes = 0;
  for (size_t level = (n + max_entries_ - 1) / max_entries_; level > 1;
       level = (level + max_entries_ - 1) / max_entries_) {
    total_nodes += level;
  }
  nodes_.reserve(total_nodes + (n > 0 ? 1 : 0));

  // Leaf level: consecutive runs of max_entries_ items.
  for (size_t p = 0; p < n; p += max_entries_) {
    const size_t p_end = std::min(p + max_entries_, n);
    Node leaf;
    leaf.begin = static_cast<uint32_t>(p);
    leaf.end = static_cast<uint32_t>(p_end);
    leaf.item_begin = leaf.begin;
    leaf.item_end = leaf.end;
    for (size_t i = p; i < p_end; ++i) leaf.box.Extend(items_[i].box);
    nodes_.push_back(leaf);
  }
  leaf_count_ = nodes_.size();
  height_ = 1;

  // Pack each level into the next until a single root remains. Children of
  // consecutive parents are consecutive nodes, so a [begin, end) span per
  // parent suffices.
  size_t level_begin = 0;
  size_t level_end = nodes_.size();
  while (level_end - level_begin > 1) {
    for (size_t i = level_begin; i < level_end; i += max_entries_) {
      const size_t i_end = std::min(i + max_entries_, level_end);
      Node parent;
      parent.begin = static_cast<uint32_t>(i);
      parent.end = static_cast<uint32_t>(i_end);
      parent.item_begin = nodes_[i].item_begin;
      parent.item_end = nodes_[i_end - 1].item_end;
      for (size_t c = i; c < i_end; ++c) parent.box.Extend(nodes_[c].box);
      nodes_.push_back(parent);
    }
    level_begin = level_end;
    level_end = nodes_.size();
    ++height_;
  }

  // Columnar mirror of every node box (and its own index), so the batched
  // walk can leaf-scan a node's contiguous child span.
  node_min_x_.resize(nodes_.size());
  node_min_y_.resize(nodes_.size());
  node_max_x_.resize(nodes_.size());
  node_max_y_.resize(nodes_.size());
  node_index_.resize(nodes_.size());
  for (size_t i = 0; i < nodes_.size(); ++i) {
    node_min_x_[i] = nodes_[i].box.min_x;
    node_min_y_[i] = nodes_[i].box.min_y;
    node_max_x_[i] = nodes_[i].box.max_x;
    node_max_y_[i] = nodes_[i].box.max_y;
    node_index_[i] = i;
  }
}

size_t PackedRTree::ScanLeafInto(const Node& node, const geometry::BBox& query,
                                 uint64_t* out) const {
  const uint32_t b = node.begin;
  return KernelDispatch::Get().leaf_scan(
      leaf_min_x_.data() + b, leaf_min_y_.data() + b, leaf_max_x_.data() + b,
      leaf_max_y_.data() + b, leaf_ids_.data() + b, node.end - b, query.min_x,
      query.min_y, query.max_x, query.max_y, out);
}

void PackedRTree::ScanLeaf(const Node& node, const geometry::BBox& query,
                           std::vector<uint64_t>* out) const {
  uint64_t tmp[kMaxEntriesCap];
  const size_t cnt = ScanLeafInto(node, query, tmp);
  out->insert(out->end(), tmp, tmp + cnt);
}

std::vector<uint64_t> PackedRTree::RangeQuery(
    const geometry::BBox& query) const {
  std::vector<uint64_t> out;
  if (nodes_.empty() || query.Empty() ||
      !nodes_[root()].box.Intersects(query)) {
    return out;
  }
  // Children are intersection-tested before they are pushed, so every
  // popped node is known to intersect. The traversal stack is arena
  // scratch: steady-state solo queries do zero heap allocations beyond
  // the result vector itself.
  ArenaScope scope(ScratchArena());
  ArenaVec<int32_t> stack(scope.arena(), 64);
  stack.push_back(root());
  while (!stack.empty()) {
    const int32_t n = stack.back();
    stack.pop_back();
    const Node& node = nodes_[n];
    if (IsLeaf(static_cast<size_t>(n))) {
      ScanLeaf(node, query, &out);
    } else if (query.Contains(node.box)) {
      // Whole subtree matches: its items are one contiguous run.
      out.insert(out.end(), leaf_ids_.data() + node.item_begin,
                 leaf_ids_.data() + node.item_end);
    } else {
      for (uint32_t c = node.begin; c < node.end; ++c) {
        if (nodes_[c].box.Intersects(query)) {
          stack.push_back(static_cast<int32_t>(c));
        }
      }
    }
  }
  return out;
}

void PackedRTree::RangeQueryMany(const std::vector<geometry::BBox>& queries,
                                 BatchResults* res) const {
  res->ids.clear();
  res->offsets.clear();
  res->offsets.reserve(queries.size() + 1);
  res->offsets.push_back(0);
  if (nodes_.empty() || queries.empty()) {
    res->offsets.resize(queries.size() + 1, 0);
    return;
  }

  // Shared walk: ONE depth-first pass over the node array; each stack
  // frame carries the subset of queries still active (= intersecting) at
  // its node. Restricted to any single query q, the popped sequence is
  // exactly q's solo DFS -- q-frames are only created while processing a
  // popped q-frame, in the same child order, under the same LIFO
  // discipline -- so per-query emission order matches RangeQuery exactly.
  // All traversal state lives in the scratch arena.
  ArenaScope scope(ScratchArena());
  Arena* arena = scope.arena();
  const uint32_t nq = static_cast<uint32_t>(queries.size());

  uint32_t* root_active = arena->AllocArray<uint32_t>(nq);
  uint32_t root_count = 0;
  const geometry::BBox& root_box = nodes_[root()].box;
  for (uint32_t q = 0; q < nq; ++q) {
    if (!queries[q].Empty() && root_box.Intersects(queries[q])) {
      root_active[root_count++] = q;
    }
  }

  struct Frame {
    int32_t node;
    const uint32_t* active;  // arena-owned query indices, ascending
    uint32_t count;
  };
  // One emission run = one contiguous slice of `pool` belonging to one
  // query (a leaf scan's hits or a contained subtree's item span). Runs
  // are recorded in emission order, which IS per-query solo order.
  struct EmitRun {
    uint32_t query;
    uint32_t pool_begin;
    uint32_t count;
  };
  ArenaVec<Frame> stack(arena, 64);
  ArenaVec<EmitRun> runs(arena, 64);
  ArenaVec<uint64_t> pool(arena, 256);
  uint64_t leaf_hits[kMaxEntriesCap];
  // One atomic dispatch load for the whole batch.
  const auto leaf_scan = KernelDispatch::Get().leaf_scan;

  if (root_count > 0) {
    stack.push_back(Frame{root(), root_active, root_count});
  }
  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    const Node& node = nodes_[f.node];
    if (IsLeaf(static_cast<size_t>(f.node))) {
      for (uint32_t a = 0; a < f.count; ++a) {
        const uint32_t q = f.active[a];
        const geometry::BBox& qb = queries[q];
        const size_t cnt = leaf_scan(
            leaf_min_x_.data() + node.begin, leaf_min_y_.data() + node.begin,
            leaf_max_x_.data() + node.begin, leaf_max_y_.data() + node.begin,
            leaf_ids_.data() + node.begin, node.end - node.begin, qb.min_x,
            qb.min_y, qb.max_x, qb.max_y, leaf_hits);
        if (cnt > 0) {
          const uint32_t begin = static_cast<uint32_t>(pool.size());
          for (size_t i = 0; i < cnt; ++i) pool.push_back(leaf_hits[i]);
          runs.push_back(EmitRun{q, begin, static_cast<uint32_t>(cnt)});
        }
      }
      continue;
    }
    // Partition the active set: queries containing the node's box emit its
    // whole contiguous item span now; the rest descend into children.
    uint32_t* descend = arena->AllocArray<uint32_t>(f.count);
    uint32_t descend_count = 0;
    for (uint32_t a = 0; a < f.count; ++a) {
      const uint32_t q = f.active[a];
      if (queries[q].Contains(node.box)) {
        const uint32_t begin = static_cast<uint32_t>(pool.size());
        for (uint32_t i = node.item_begin; i < node.item_end; ++i) {
          pool.push_back(leaf_ids_[i]);
        }
        runs.push_back(EmitRun{q, begin, node.item_end - node.item_begin});
      } else {
        descend[descend_count++] = q;
      }
    }
    if (descend_count == 0) continue;
    // SIMD child partition: each descending query runs one leaf-scan
    // sweep over the node's contiguous child span in the node SoA mirror,
    // yielding its intersecting child indices in ascending order. A
    // counting transpose then regroups the (query, child) pairs into
    // per-child active sets. Same sets, same ascending-query order, same
    // ascending-child push order as a scalar per-child loop nest -- only
    // the iteration shape changed, so the emission contract is untouched.
    const uint32_t child_n = node.end - node.begin;
    uint8_t* qc_pool = arena->AllocArray<uint8_t>(
        static_cast<size_t>(descend_count) * child_n);
    uint32_t* q_off = arena->AllocArray<uint32_t>(descend_count + 1);
    uint32_t* child_counts = arena->AllocArray<uint32_t>(child_n);
    std::memset(child_counts, 0, child_n * sizeof(uint32_t));
    uint32_t total_pairs = 0;
    for (uint32_t a = 0; a < descend_count; ++a) {
      q_off[a] = total_pairs;
      const geometry::BBox& qb = queries[descend[a]];
      const size_t cnt = leaf_scan(
          node_min_x_.data() + node.begin, node_min_y_.data() + node.begin,
          node_max_x_.data() + node.begin, node_max_y_.data() + node.begin,
          node_index_.data() + node.begin, child_n, qb.min_x, qb.min_y,
          qb.max_x, qb.max_y, leaf_hits);
      for (size_t i = 0; i < cnt; ++i) {
        // Child-relative index fits a byte: child_n <= kMaxEntriesCap.
        const uint8_t rel = static_cast<uint8_t>(leaf_hits[i] - node.begin);
        qc_pool[total_pairs + i] = rel;
        ++child_counts[rel];
      }
      total_pairs += static_cast<uint32_t>(cnt);
    }
    q_off[descend_count] = total_pairs;
    if (total_pairs == 0) continue;
    uint32_t* active_pool = arena->AllocArray<uint32_t>(total_pairs);
    uint32_t* child_off = arena->AllocArray<uint32_t>(child_n);
    uint32_t* child_cursor = arena->AllocArray<uint32_t>(child_n);
    uint32_t run_off = 0;
    for (uint32_t c = 0; c < child_n; ++c) {
      child_off[c] = run_off;
      child_cursor[c] = run_off;
      run_off += child_counts[c];
    }
    for (uint32_t a = 0; a < descend_count; ++a) {
      const uint32_t q = descend[a];
      for (uint32_t i = q_off[a]; i < q_off[a + 1]; ++i) {
        active_pool[child_cursor[qc_pool[i]]++] = q;
      }
    }
    for (uint32_t c = 0; c < child_n; ++c) {
      if (child_counts[c] > 0) {
        stack.push_back(Frame{static_cast<int32_t>(node.begin + c),
                              active_pool + child_off[c], child_counts[c]});
      }
    }
  }

  // Stable counting sort of the emission runs by query: per-query totals,
  // prefix-sum offsets, then scatter each run at its query's cursor. Runs
  // stay in emission order, so each query's ids land in solo DFS order.
  uint32_t* counts = scope.AllocFilled<uint32_t>(nq, 0u);
  for (const EmitRun& run : runs) counts[run.query] += run.count;
  size_t total = 0;
  for (uint32_t q = 0; q < nq; ++q) {
    total += counts[q];
    res->offsets.push_back(total);
  }
  res->ids.resize(total);
  size_t* cursor = arena->AllocArray<size_t>(nq);
  for (uint32_t q = 0; q < nq; ++q) cursor[q] = res->offsets[q];
  for (const EmitRun& run : runs) {
    std::memcpy(res->ids.data() + cursor[run.query],
                pool.data() + run.pool_begin, run.count * sizeof(uint64_t));
    cursor[run.query] += run.count;
  }
}

BoxGapScan::BoxGapScan(const PackedRTree& tree, const geometry::BBox& query)
    : tree_(tree), query_(query) {
  if (!tree_.nodes_.empty()) {
    pq_.push(Entry{BoxGap(query_, tree_.nodes_.back().box), false,
                   static_cast<uint64_t>(tree_.root())});
  }
}

bool BoxGapScan::Next(uint64_t* id, double* gap) {
  while (!pq_.empty()) {
    const Entry e = pq_.top();
    pq_.pop();
    if (e.is_item) {
      *id = e.key;
      *gap = e.gap;
      return true;
    }
    const PackedRTree::Node& node = tree_.nodes_[e.key];
    if (tree_.IsLeaf(static_cast<size_t>(e.key))) {
      for (uint32_t i = node.begin; i < node.end; ++i) {
        const PackedRTree::Item& it = tree_.items_[i];
        pq_.push(Entry{BoxGap(query_, it.box), true, it.id});
      }
    } else {
      for (uint32_t c = node.begin; c < node.end; ++c) {
        pq_.push(Entry{BoxGap(query_, tree_.nodes_[c].box), false,
                       static_cast<uint64_t>(c)});
      }
    }
  }
  return false;
}

}  // namespace kernels
}  // namespace sidq
