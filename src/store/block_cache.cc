#include "store/block_cache.h"

#include <utility>

namespace sidq {
namespace store {

PinnedBlock& PinnedBlock::operator=(PinnedBlock&& other) noexcept {
  if (this != &other) {
    Release();
    cache_ = other.cache_;
    key_ = other.key_;
    block_ = std::move(other.block_);
    other.cache_ = nullptr;
    other.block_ = CachedBlock();
  }
  return *this;
}

void PinnedBlock::Release() {
  if (cache_ != nullptr && block_.bytes != nullptr) {
    cache_->Unpin(key_);
  }
  cache_ = nullptr;
  block_ = CachedBlock();
}

BlockCache::BlockCache(size_t capacity_bytes, obs::MetricsRegistry* obs)
    : capacity_bytes_(capacity_bytes) {
  if (obs != nullptr) {
    hit_metric_ = obs->counter("store.cache.hit");
    miss_metric_ = obs->counter("store.cache.miss");
    insert_metric_ = obs->counter("store.cache.insert");
    eviction_metric_ = obs->counter("store.cache.eviction");
    resident_metric_ = obs->gauge("store.cache.resident_bytes");
  }
}

PinnedBlock BlockCache::Lookup(uint32_t segment, uint64_t offset) {
  const uint64_t key = KeyOf(segment, offset);
  MutexLock lock(mu_);
  auto it = table_.find(key);
  if (it == table_.end()) {
    ++misses_;
    miss_metric_.Increment();
    return PinnedBlock();
  }
  ++hits_;
  hit_metric_.Increment();
  Entry& e = it->second;
  if (e.in_lru) {
    lru_.erase(e.lru_it);
    e.in_lru = false;
    unpinned_bytes_ -= e.charge;
  }
  ++e.pins;
  return PinnedBlock(this, key, e.block);
}

PinnedBlock BlockCache::Insert(uint32_t segment, uint64_t offset,
                               CachedBlock block) {
  const uint64_t key = KeyOf(segment, offset);
  MutexLock lock(mu_);
  auto it = table_.find(key);
  if (it != table_.end()) {
    // Raced with another reader decoding the same block: keep the
    // incumbent so existing pins stay coherent.
    Entry& e = it->second;
    if (e.in_lru) {
      lru_.erase(e.lru_it);
      e.in_lru = false;
      unpinned_bytes_ -= e.charge;
    }
    ++e.pins;
    return PinnedBlock(this, key, e.block);
  }
  Entry e;
  e.charge = ChargeOf(block.view.size());
  e.block = std::move(block);
  e.pins = 1;
  e.in_lru = false;
  resident_bytes_ += e.charge;
  ++inserts_;
  insert_metric_.Increment();
  resident_metric_.Add(static_cast<int64_t>(e.charge));
  auto inserted = table_.emplace(key, std::move(e)).first;
  EvictIfNeeded();
  return PinnedBlock(this, key, inserted->second.block);
}

void BlockCache::Unpin(uint64_t key) {
  MutexLock lock(mu_);
  auto it = table_.find(key);
  if (it == table_.end()) return;  // invalidated while pinned
  Entry& e = it->second;
  if (e.pins == 0) return;  // stale handle from a removed+reinserted key
  if (--e.pins == 0) {
    e.lru_it = lru_.insert(lru_.end(), key);
    e.in_lru = true;
    unpinned_bytes_ += e.charge;
    EvictIfNeeded();
  }
}

void BlockCache::EvictIfNeeded() {
  if (capacity_bytes_ == 0) return;  // unbounded
  while (unpinned_bytes_ > capacity_bytes_ && !lru_.empty()) {
    EraseLocked(table_.find(lru_.front()), /*count_as_eviction=*/true);
  }
}

void BlockCache::EraseLocked(std::map<uint64_t, Entry>::iterator it,
                             bool count_as_eviction) {
  Entry& e = it->second;
  if (e.in_lru) {
    lru_.erase(e.lru_it);
    unpinned_bytes_ -= e.charge;
  }
  resident_bytes_ -= e.charge;
  resident_metric_.Add(-static_cast<int64_t>(e.charge));
  if (count_as_eviction) {
    ++evictions_;
    eviction_metric_.Increment();
  }
  table_.erase(it);
}

void BlockCache::EraseSegment(uint32_t segment) {
  MutexLock lock(mu_);
  for (auto it = table_.begin(); it != table_.end();) {
    auto next = std::next(it);
    if (SegmentOf(it->first) == segment) {
      EraseLocked(it, /*count_as_eviction=*/false);
    }
    it = next;
  }
}

void BlockCache::Clear() {
  MutexLock lock(mu_);
  while (!table_.empty()) {
    EraseLocked(table_.begin(), /*count_as_eviction=*/false);
  }
}

BlockCache::Stats BlockCache::GetStats() const {
  MutexLock lock(mu_);
  Stats out;
  out.hits = hits_;
  out.misses = misses_;
  out.inserts = inserts_;
  out.evictions = evictions_;
  out.resident_bytes = resident_bytes_;
  out.unpinned_bytes = unpinned_bytes_;
  out.resident_blocks = table_.size();
  for (const auto& [key, e] : table_) {
    (void)key;
    if (e.pins > 0) ++out.pinned_blocks;
  }
  return out;
}

}  // namespace store
}  // namespace sidq
