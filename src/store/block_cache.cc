#include "store/block_cache.h"

#include <utility>

namespace sidq {
namespace store {

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

CachedBlock BlockCache::Lookup(uint32_t segment, uint64_t offset) {
  MutexLock lock(mu_);
  victims_.clear();
  auto it = table_.find(KeyOf(segment, offset));
  if (it == table_.end()) {
    ++misses_;
    miss_metric_.Increment();
    return CachedBlock();
  }
  ++hits_;
  hit_metric_.Increment();
  lru_.splice(lru_.end(), lru_, it->second.lru_it);
  return it->second.block;
}

CachedBlock BlockCache::Insert(uint32_t segment, uint64_t offset,
                               CachedBlock block) {
  const uint64_t key = KeyOf(segment, offset);
  MutexLock lock(mu_);
  victims_.clear();
  auto [it, inserted] = table_.try_emplace(key);
  Entry& e = it->second;
  if (!inserted) {
    // Raced with another reader decoding the same block: keep the
    // incumbent so every holder sees the same bytes.
    lru_.splice(lru_.end(), lru_, e.lru_it);
    return e.block;
  }
  e.charge = ChargeOf(block.view.size());
  e.block = std::move(block);
  e.lru_it = lru_.insert(lru_.end(), key);
  resident_bytes_ += e.charge;
  ++inserts_;
  insert_metric_.Increment();
  resident_metric_.Add(static_cast<int64_t>(e.charge));
  CachedBlock out = e.block;
  // capacity_bytes_ == 0 is unbounded.
  while (capacity_bytes_ != 0 && resident_bytes_ > capacity_bytes_) {
    auto victim = table_.find(lru_.front());
    victims_.push_back(std::move(victim->second.block));
    EraseLocked(victim, /*count_as_eviction=*/true);
  }
  return out;
}

void BlockCache::EraseLocked(std::map<uint64_t, Entry>::iterator it,
                             bool count_as_eviction) {
  Entry& e = it->second;
  lru_.erase(e.lru_it);
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

BlockCache::Stats BlockCache::GetStats() const {
  MutexLock lock(mu_);
  Stats out;
  out.hits = hits_;
  out.misses = misses_;
  out.inserts = inserts_;
  out.evictions = evictions_;
  out.resident_bytes = resident_bytes_;
  out.resident_blocks = table_.size();
  return out;
}

}  // namespace store
}  // namespace sidq
