#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>

#include "core/mutex.h"
#include "core/thread_annotations.h"
#include "obs/metrics.h"
#include "store/format.h"

namespace sidq {
namespace store {

class BlockCache;

// -------------------------------------------------------------------------
// BlockCache: one LRU over CRC-verified blocks, the RAM arm of the
// ≫-RAM scan path (DESIGN.md "Durability & recovery"). Shaped after
// rippled's TaggedCache (beast/container): a fixed byte budget, entry
// pinning so a block being scanned can never be evicted under the
// reader, and deterministic LRU order.
//
// Invariants (pinned by the model-based property test in
// tests/store_cache_test.cc):
//   - UNPINNED resident bytes never exceed capacity_bytes after any
//     operation returns. Pinned bytes may transiently exceed it -- a
//     budget of one block must still be able to pin the block currently
//     under the scan cursor.
//   - A pinned entry is never evicted; eviction only consumes the LRU
//     list, which holds exactly the unpinned entries.
//   - hits/misses count Lookup outcomes exactly; inserts/evictions count
//     entry lifecycle exactly.
//
// Thread safety: one sidq::Mutex guards the table, the LRU and the
// counters (each Store owns one cache and is externally synchronized, so
// the lock is uncontended there); entries are handed out as shared_ptrs,
// so an entry erased mid-pin (segment invalidation during compaction)
// stays alive until its last PinnedBlock drops.
// -------------------------------------------------------------------------

// A verified block as the cache keeps it: the one allocation its encoded
// bytes were read into, and the view of its columns inside those bytes.
struct CachedBlock {
  std::shared_ptr<const char[]> bytes;
  BlockView view;
};

// RAII pin on a cached block. While alive, the block cannot be evicted
// and its bytes stay valid even if the entry is invalidated under it.
class PinnedBlock {
 public:
  PinnedBlock() = default;
  PinnedBlock(PinnedBlock&& other) noexcept { *this = std::move(other); }
  PinnedBlock& operator=(PinnedBlock&& other) noexcept;
  PinnedBlock(const PinnedBlock&) = delete;
  PinnedBlock& operator=(const PinnedBlock&) = delete;
  ~PinnedBlock() { Release(); }

  explicit operator bool() const { return block_.bytes != nullptr; }
  const BlockView& operator*() const { return block_.view; }
  const BlockView* operator->() const { return &block_.view; }
  [[nodiscard]] const BlockView* get() const {
    return block_.bytes != nullptr ? &block_.view : nullptr;
  }

  // Unpins early (idempotent).
  void Release();

 private:
  friend class BlockCache;
  PinnedBlock(BlockCache* cache, uint64_t key, CachedBlock block)
      : cache_(cache), key_(key), block_(std::move(block)) {}

  BlockCache* cache_ = nullptr;
  uint64_t key_ = 0;
  CachedBlock block_;
};

class BlockCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t inserts = 0;
    uint64_t evictions = 0;
    uint64_t resident_bytes = 0;  // pinned + unpinned
    uint64_t unpinned_bytes = 0;
    uint64_t resident_blocks = 0;
    uint64_t pinned_blocks = 0;
  };

  // capacity_bytes == 0 means unbounded (nothing is ever evicted). `obs`
  // may be null -- metric handles degrade to no-ops.
  BlockCache(size_t capacity_bytes, obs::MetricsRegistry* obs);

  // (segment, offset) -> cache key. Store::Open rejects a segment shape
  // whose bytes need more than kOffsetBits, so an offset never collides
  // with the segment number.
  static constexpr int kOffsetBits = 40;
  [[nodiscard]] static uint64_t KeyOf(uint32_t segment, uint64_t offset) {
    return (static_cast<uint64_t>(segment) << kOffsetBits) | offset;
  }
  [[nodiscard]] static uint32_t SegmentOf(uint64_t key) {
    return static_cast<uint32_t>(key >> kOffsetBits);
  }
  // Fixed per-entry allowance for a block's header, the shared
  // allocation's control block and the table entry.
  static constexpr size_t kEntryOverhead = 208;
  // Bytes an entry is charged for: kRowBytes of columns per row plus the
  // fixed allowance. Exposed so tests and budget flags can reason in
  // whole blocks.
  [[nodiscard]] static size_t ChargeOf(size_t rows) {
    return kEntryOverhead + rows * kRowBytes;
  }

  // Hit: pins the entry and returns it (counts one hit). Miss: returns a
  // null handle (counts one miss).
  [[nodiscard]] PinnedBlock Lookup(uint32_t segment, uint64_t offset);

  // Inserts a verified block and returns it pinned. If the key is already
  // resident the existing entry is pinned and returned instead (neither a
  // hit nor a miss: Lookup already counted this key's miss).
  [[nodiscard]] PinnedBlock Insert(uint32_t segment, uint64_t offset,
                                   CachedBlock block);

  // Drops every resident entry of `segment` (compaction / truncation
  // invalidation). Pinned entries are unlinked immediately -- later
  // lookups miss -- and their memory is freed when the last pin drops.
  void EraseSegment(uint32_t segment);

  // Drops everything (same pinned-entry semantics as EraseSegment).
  void Clear();

  [[nodiscard]] Stats GetStats() const;
  [[nodiscard]] size_t capacity_bytes() const { return capacity_bytes_; }

 private:
  friend class PinnedBlock;

  struct Entry {
    CachedBlock block;
    size_t charge = 0;
    uint32_t pins = 0;
    bool in_lru = false;
    std::list<uint64_t>::iterator lru_it;
  };

  void Unpin(uint64_t key);
  // Evicts LRU entries until the unpinned bytes fit the budget.
  void EvictIfNeeded() SIDQ_REQUIRES(mu_);
  // Unlinks one entry from table + LRU and updates accounting/metrics.
  void EraseLocked(std::map<uint64_t, Entry>::iterator it,
                   bool count_as_eviction) SIDQ_REQUIRES(mu_);

  const size_t capacity_bytes_;
  mutable Mutex mu_;
  // std::map, not unordered: eviction order must be a pure function of
  // the operation sequence, and invalidation walks the table.
  std::map<uint64_t, Entry> table_ SIDQ_GUARDED_BY(mu_);
  // front = next eviction victim; holds exactly the unpinned entries.
  std::list<uint64_t> lru_ SIDQ_GUARDED_BY(mu_);
  size_t resident_bytes_ SIDQ_GUARDED_BY(mu_) = 0;
  size_t unpinned_bytes_ SIDQ_GUARDED_BY(mu_) = 0;
  uint64_t hits_ SIDQ_GUARDED_BY(mu_) = 0;
  uint64_t misses_ SIDQ_GUARDED_BY(mu_) = 0;
  uint64_t inserts_ SIDQ_GUARDED_BY(mu_) = 0;
  uint64_t evictions_ SIDQ_GUARDED_BY(mu_) = 0;

  obs::Counter hit_metric_;
  obs::Counter miss_metric_;
  obs::Counter insert_metric_;
  obs::Counter eviction_metric_;
  obs::Gauge resident_metric_;
};

}  // namespace store
}  // namespace sidq
