#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <vector>

#include "core/mutex.h"
#include "core/thread_annotations.h"
#include "obs/metrics.h"
#include "store/format.h"

namespace sidq {
namespace store {

// -------------------------------------------------------------------------
// BlockCache: one LRU over CRC-verified blocks, the RAM arm of the
// ≫-RAM scan path (DESIGN.md "Durability & recovery"). Shaped after
// rippled's TaggedCache (beast/container): a fixed byte budget and
// deterministic LRU order.
//
// Invariants (pinned by the model-based property test in
// tests/store_cache_test.cc):
//   - Resident bytes never exceed capacity_bytes after any operation
//     returns. Every resident entry sits in the one LRU list: a hit
//     moves it to the back, and Insert evicts from the front until the
//     budget holds.
//   - hits/misses count Lookup outcomes exactly; inserts/evictions count
//     entry lifecycle exactly.
//
// Block lifetime: entries are handed out as CachedBlock copies, whose
// shared_ptr keeps the block's bytes alive for as long as the caller
// holds it -- across its eviction and across segment invalidation during
// compaction. A held block that has left the cache is the holder's
// memory. The blocks an Insert evicts are released at the next Lookup or
// Insert, not inside it: a scan's next miss then reuses a victim's
// allocation, where a victim freed at once leaves a slot that the scan's
// row callbacks split meanwhile, so the heap grows (DESIGN.md
// "BlockCache"). A reader that holds one block at a time (the Store's
// scan and recovery) thus peaks at the budget plus one block.
//
// Thread safety: one sidq::Mutex guards the table, the LRU and the
// counters (each Store owns one cache and is externally synchronized, so
// the lock is uncontended there).
// -------------------------------------------------------------------------

// A verified block as the cache keeps it: the one allocation its encoded
// bytes were read into, and the view of its columns inside those bytes.
// Null `bytes` means no block (a Lookup miss).
struct CachedBlock {
  std::shared_ptr<const char[]> bytes;
  BlockView view;
};

class BlockCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t inserts = 0;
    uint64_t evictions = 0;
    uint64_t resident_bytes = 0;
    uint64_t resident_blocks = 0;
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

  // Hit: moves the entry to the LRU back and returns it (counts one hit).
  // Miss: returns a null block (counts one miss).
  [[nodiscard]] CachedBlock Lookup(uint32_t segment, uint64_t offset);

  // Inserts a verified block at the LRU back, evicts from the front until
  // the budget holds, and returns the block -- still valid if it was
  // evicted itself. If the key is already resident the incumbent is moved
  // to the back and returned instead (neither a hit nor a miss: Lookup
  // already counted this key's miss).
  [[nodiscard]] CachedBlock Insert(uint32_t segment, uint64_t offset,
                                   CachedBlock block);

  // Drops every resident entry of `segment` (compaction / truncation
  // invalidation). Later lookups miss; blocks a caller still holds stay
  // valid until released.
  void EraseSegment(uint32_t segment);

  [[nodiscard]] Stats GetStats() const;
  [[nodiscard]] size_t capacity_bytes() const { return capacity_bytes_; }

 private:
  struct Entry {
    CachedBlock block;
    size_t charge = 0;
    std::list<uint64_t>::iterator lru_it;
  };

  // Unlinks one entry from table + LRU and updates accounting/metrics.
  void EraseLocked(std::map<uint64_t, Entry>::iterator it,
                   bool count_as_eviction) SIDQ_REQUIRES(mu_);

  const size_t capacity_bytes_;
  mutable Mutex mu_;
  // std::map, not unordered: eviction order must be a pure function of
  // the operation sequence, and invalidation walks the table.
  std::map<uint64_t, Entry> table_ SIDQ_GUARDED_BY(mu_);
  // front = next eviction victim; holds every resident key.
  std::list<uint64_t> lru_ SIDQ_GUARDED_BY(mu_);
  size_t resident_bytes_ SIDQ_GUARDED_BY(mu_) = 0;
  // Blocks the last Insert evicted, released by the next Lookup/Insert.
  std::vector<CachedBlock> victims_ SIDQ_GUARDED_BY(mu_);
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
