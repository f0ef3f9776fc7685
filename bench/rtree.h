#pragma once

#include <cstdint>
#include <vector>

#include "geometry/bbox.h"

namespace sidq {
namespace bench {

// A pointer-based R-tree over rectangles, bulk-loaded with
// Sort-Tile-Recursive (STR): one heap-allocated child/item vector per node.
// It is the measured baseline for kernels::PackedRTree, which packs an STR
// tree into flat arrays: bench_kernels times per-query RangeQuery here
// against the packed batched walk (the gated `packed_range` speedup) and
// checksums both result sets. It is bench code, not library code;
// index_test compiles it to keep it checked against brute force.
class RTree {
 public:
  struct Item {
    uint64_t id;
    geometry::BBox box;
  };

  explicit RTree(size_t max_entries = 16);

  // Bulk-loads (replaces) the tree contents with STR packing.
  void BulkLoad(std::vector<Item> items);

  [[nodiscard]] size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] int height() const;

  // Ids of items whose box intersects `query`.
  [[nodiscard]] std::vector<uint64_t> RangeQuery(const geometry::BBox& query) const;

 private:
  struct Node {
    geometry::BBox box;
    std::vector<int32_t> children;  // internal nodes
    std::vector<Item> items;        // leaves
    bool leaf = true;
  };

  int32_t NewNode(bool leaf);
  void RecomputeBox(int32_t n);
  int32_t BuildStr(std::vector<Item>* items, size_t begin, size_t end);

  size_t max_entries_;
  size_t size_ = 0;
  int32_t root_ = -1;
  std::vector<Node> nodes_;
};

}  // namespace bench
}  // namespace sidq
