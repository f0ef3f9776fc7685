#include "index/rtree.h"

#include <algorithm>
#include <cmath>

#include "core/logging.h"

namespace sidq {
namespace index {

RTree::RTree(size_t max_entries) : max_entries_(max_entries) {
  SIDQ_CHECK(max_entries >= 4) << "max_entries must be >= 4";
}

int32_t RTree::NewNode(bool leaf) {
  Node node;
  node.leaf = leaf;
  nodes_.push_back(std::move(node));
  return static_cast<int32_t>(nodes_.size()) - 1;
}

void RTree::RecomputeBox(int32_t n) {
  Node& node = nodes_[n];
  node.box = geometry::BBox();
  if (node.leaf) {
    for (const Item& it : node.items) node.box.Extend(it.box);
  } else {
    for (int32_t c : node.children) node.box.Extend(nodes_[c].box);
  }
}

int RTree::height() const {
  if (root_ < 0) return 0;
  int h = 1;
  int32_t n = root_;
  while (!nodes_[n].leaf) {
    n = nodes_[n].children.front();
    ++h;
  }
  return h;
}

// ---------------------------------------------------------------- bulk load

int32_t RTree::BuildStr(std::vector<Item>* items, size_t begin, size_t end) {
  const size_t n = end - begin;
  if (n <= max_entries_) {
    const int32_t leaf = NewNode(true);
    nodes_[leaf].items.assign(items->begin() + begin, items->begin() + end);
    RecomputeBox(leaf);
    return leaf;
  }
  // STR: P = ceil(n / M) leaf pages, S = ceil(sqrt(P)) vertical slices.
  const size_t pages =
      (n + max_entries_ - 1) / max_entries_;
  const size_t slices = static_cast<size_t>(
      std::ceil(std::sqrt(static_cast<double>(pages))));
  const size_t slice_cap = (n + slices - 1) / slices;
  std::sort(items->begin() + begin, items->begin() + end,
            [](const Item& a, const Item& b) {
              return a.box.Center().x < b.box.Center().x;
            });
  std::vector<int32_t> children;
  for (size_t s = begin; s < end; s += slice_cap) {
    const size_t s_end = std::min(s + slice_cap, end);
    std::sort(items->begin() + s, items->begin() + s_end,
              [](const Item& a, const Item& b) {
                return a.box.Center().y < b.box.Center().y;
              });
    for (size_t p = s; p < s_end; p += max_entries_) {
      const size_t p_end = std::min(p + max_entries_, s_end);
      const int32_t leaf = NewNode(true);
      nodes_[leaf].items.assign(items->begin() + p, items->begin() + p_end);
      RecomputeBox(leaf);
      children.push_back(leaf);
    }
  }
  // Pack children upward until one root remains.
  while (children.size() > 1) {
    std::vector<int32_t> parents;
    for (size_t i = 0; i < children.size(); i += max_entries_) {
      const size_t i_end = std::min(i + max_entries_, children.size());
      const int32_t parent = NewNode(false);
      nodes_[parent].children.assign(children.begin() + i,
                                     children.begin() + i_end);
      RecomputeBox(parent);
      parents.push_back(parent);
    }
    children = std::move(parents);
  }
  return children.front();
}

void RTree::BulkLoad(std::vector<Item> items) {
  nodes_.clear();
  size_ = items.size();
  if (items.empty()) {
    root_ = -1;
    return;
  }
  root_ = BuildStr(&items, 0, items.size());
}

// ----------------------------------------------------------------- queries

std::vector<uint64_t> RTree::RangeQuery(const geometry::BBox& query) const {
  std::vector<uint64_t> out;
  last_nodes_visited = 0;
  if (root_ < 0 || query.Empty()) return out;
  std::vector<int32_t> stack{root_};
  while (!stack.empty()) {
    const int32_t n = stack.back();
    stack.pop_back();
    ++last_nodes_visited;
    const Node& node = nodes_[n];
    if (!node.box.Intersects(query)) continue;
    if (node.leaf) {
      for (const Item& it : node.items) {
        if (it.box.Intersects(query)) out.push_back(it.id);
      }
    } else {
      for (int32_t c : node.children) {
        if (nodes_[c].box.Intersects(query)) stack.push_back(c);
      }
    }
  }
  return out;
}

}  // namespace index
}  // namespace sidq
