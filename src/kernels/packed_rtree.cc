#include "kernels/packed_rtree.h"

#include <algorithm>
#include <cmath>

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
}

std::vector<uint64_t> PackedRTree::RangeQuery(
    const geometry::BBox& query) const {
  std::vector<uint64_t> out;
  AppendRange(query, &out);
  return out;
}

void PackedRTree::RangeQueryMany(const std::vector<geometry::BBox>& queries,
                                 BatchResults* res) const {
  res->ids.clear();
  res->offsets.clear();
  res->offsets.reserve(queries.size() + 1);
  res->offsets.push_back(0);
  for (const geometry::BBox& query : queries) {
    AppendRange(query, &res->ids);
    res->offsets.push_back(res->ids.size());
  }
}

void PackedRTree::AppendRange(const geometry::BBox& query,
                              std::vector<uint64_t>* out) const {
  if (nodes_.empty() || query.Empty() ||
      !nodes_[root()].box.Intersects(query)) {
    return;
  }
  // Children are intersection-tested before they are pushed, so every
  // popped node is known to intersect. The traversal stack is arena
  // scratch: steady-state queries do zero heap allocations beyond the
  // result buffer itself.
  ArenaScope scope(ScratchArena());
  ArenaVec<int32_t> stack(scope.arena(), 64);
  const auto leaf_scan = KernelDispatch::Get().leaf_scan;
  stack.push_back(root());
  while (!stack.empty()) {
    const int32_t n = stack.back();
    stack.pop_back();
    const Node& node = nodes_[n];
    if (IsLeaf(static_cast<size_t>(n))) {
      // SIMD sweep over the leaf's span of the columnar item arrays.
      uint64_t hits[kMaxEntriesCap];
      const uint32_t b = node.begin;
      const size_t cnt = leaf_scan(
          leaf_min_x_.data() + b, leaf_min_y_.data() + b,
          leaf_max_x_.data() + b, leaf_max_y_.data() + b,
          leaf_ids_.data() + b, node.end - b, query.min_x, query.min_y,
          query.max_x, query.max_y, hits);
      out->insert(out->end(), hits, hits + cnt);
    } else if (query.Contains(node.box)) {
      // Whole subtree matches: its items are one contiguous run.
      out->insert(out->end(), leaf_ids_.data() + node.item_begin,
                  leaf_ids_.data() + node.item_end);
    } else {
      for (uint32_t c = node.begin; c < node.end; ++c) {
        if (nodes_[c].box.Intersects(query)) {
          stack.push_back(static_cast<int32_t>(c));
        }
      }
    }
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
