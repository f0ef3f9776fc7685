#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "geometry/bbox.h"
#include "geometry/point.h"

namespace sidq {
namespace kernels {

// Minimum distance between two boxes (0 when they intersect). Operation
// order matches the BoxGap helper the similarity search originally used,
// so gaps computed here are bit-identical to that path. Returns +infinity
// when either box is empty (inverted).
double BoxGap(const geometry::BBox& a, const geometry::BBox& b);

// A read-only, bulk-loaded R-tree packed into contiguous arrays: the
// items in leaf order and the nodes in level order (all leaves first,
// root last). This is the one spatial tree the library queries, with one
// range walk (a depth-first search that RangeQuery and RangeQueryMany
// both run) and one best-first walk (BoxGapScan below; trajectory
// calibration snaps through its first item). Traversal is pointer-free
// over dense arrays -- child ranges are [begin, end) index spans. Queries
// write no member state (the traversal stack lives in the thread-local
// scratch arena), so any number of threads may query one loaded tree
// concurrently. Leaf boxes are additionally stored COLUMNAR
// (min_x/min_y/max_x/max_y in separate arrays mirroring leaf order, ~40
// extra bytes per item) so the per-leaf intersection test is a
// branch-free SIMD sweep instead of a branchy AoS scan; because the
// packing is level-by-level, every subtree's items are one contiguous run,
// so a query that CONTAINS a node's box emits the whole span with a single
// linear copy. Wide leaves (max_entries 32..64) are cheap under the
// vectorized scan and cut traversal overhead for range workloads; the
// default 16 matches the fanout of the pointer-based R-tree in
// bench/rtree.h, the baseline bench_kernels measures range queries
// against. Result sets are exact (tests compare them with brute-force
// scans); range enumeration order is traversal order.
class PackedRTree {
 public:
  struct Item {
    uint64_t id;
    geometry::BBox box;
  };

  // Concatenated per-query results: ids of query q live at
  // [offsets[q], offsets[q+1]) in `ids`.
  struct BatchResults {
    std::vector<uint64_t> ids;
    std::vector<size_t> offsets;

    [[nodiscard]] size_t queries() const {
      return offsets.empty() ? 0 : offsets.size() - 1;
    }
    [[nodiscard]] const uint64_t* begin_of(size_t q) const {
      return ids.data() + offsets[q];
    }
    [[nodiscard]] const uint64_t* end_of(size_t q) const {
      return ids.data() + offsets[q + 1];
    }
    [[nodiscard]] size_t count_of(size_t q) const {
      return offsets[q + 1] - offsets[q];
    }
  };

  // Hard cap on max_entries; bounds the fixed scratch buffers of the
  // vectorized leaf scan.
  static constexpr size_t kMaxEntriesCap = 256;

  explicit PackedRTree(size_t max_entries = 16);

  // Bulk-loads (replaces) the tree contents with STR packing. Item boxes
  // must be non-empty: an inverted box has a NaN center, which would
  // poison the STR sort (checked).
  void BulkLoad(std::vector<Item> items);

  [[nodiscard]] size_t size() const { return items_.size(); }
  [[nodiscard]] bool empty() const { return items_.empty(); }
  [[nodiscard]] int height() const { return height_; }

  // Ids of items whose box intersects `query`.
  [[nodiscard]] std::vector<uint64_t> RangeQuery(
      const geometry::BBox& query) const;
  // RangeQuery over each box in turn: the ids of queries[q] go to
  // [begin_of(q), end_of(q)) in the same order RangeQuery returns them.
  // Results go into caller-owned buffers (cleared, capacity kept) so
  // repeated batches reuse their result allocations.
  void RangeQueryMany(const std::vector<geometry::BBox>& queries,
                      BatchResults* res) const;

  // Items in leaf order (for tests / bulk consumers).
  [[nodiscard]] const std::vector<Item>& items() const { return items_; }

 private:
  friend class BoxGapScan;

  // begin/end index into items_ (leaf nodes) or nodes_ (internal nodes).
  // item_begin/item_end always span the node's descendant items: because
  // packing is level-by-level over consecutive children, every subtree's
  // items form one contiguous run of items_ -- which is what makes the
  // contains-whole-subtree fast path of the range walk a linear copy.
  struct Node {
    geometry::BBox box;
    uint32_t begin = 0;
    uint32_t end = 0;
    uint32_t item_begin = 0;
    uint32_t item_end = 0;
  };

  [[nodiscard]] bool IsLeaf(size_t node) const { return node < leaf_count_; }
  [[nodiscard]] int32_t root() const {
    return nodes_.empty() ? -1 : static_cast<int32_t>(nodes_.size()) - 1;
  }

  // The range walk: appends the ids of items intersecting `query` to
  // `out` in depth-first order.
  void AppendRange(const geometry::BBox& query,
                   std::vector<uint64_t>* out) const;

  size_t max_entries_;
  size_t leaf_count_ = 0;
  int height_ = 0;
  std::vector<Item> items_;  // leaf order
  std::vector<Node> nodes_;  // level order: leaves first, root last
  // Columnar mirror of items_ (same order): leaf scans read these.
  std::vector<double> leaf_min_x_, leaf_min_y_, leaf_max_x_, leaf_max_y_;
  std::vector<uint64_t> leaf_ids_;
};

// Streams the items of a PackedRTree in non-decreasing BoxGap order from a
// query box, expanding nodes lazily (incremental nearest-neighbour search,
// Hjaltason & Samet style). At equal gap, items surface in increasing id
// order -- together with gap-ascending order this reproduces exactly the
// sequence `std::sort` over (gap, id) pairs of ALL items would give,
// without ever materializing the full sorted array, which is what lets the
// similarity search stop scanning as soon as its pruning bound closes.
class BoxGapScan {
 public:
  BoxGapScan(const PackedRTree& tree, const geometry::BBox& query);

  // Advances to the next item; false when the tree is exhausted.
  bool Next(uint64_t* id, double* gap);

 private:
  struct Entry {
    double gap;
    bool is_item;  // nodes order before items at equal gap
    uint64_t key;  // item id, or node index
    bool operator>(const Entry& o) const {
      if (gap != o.gap) return gap > o.gap;
      if (is_item != o.is_item) return is_item && !o.is_item;
      return key > o.key;
    }
  };

  const PackedRTree& tree_;
  geometry::BBox query_;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> pq_;
};

}  // namespace kernels
}  // namespace sidq
