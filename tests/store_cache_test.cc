// BlockCache property tests, the bounded-ladder defect differentials, the
// fixed-budget scan differential and held-block lifetimes.
//
// 1. Model-based randomized test: a reference model mirrors the cache's
//    documented semantics (LRU, byte budget) operation for operation;
//    after every op the real cache must match the model bit-exactly --
//    counters included -- and the core invariants must hold: resident
//    bytes never exceed the budget, and every block a reader holds still
//    reads its rows after its entry is evicted or invalidated.
//
// 2. Defect differential: the BlockReader's bounded reads reach the same
//    verdict as ParseBlockAt over the whole file for every torn length
//    and flipped byte of a small segment.
//
// 3. Budget differential: the same pocked store (one quarantined interior
//    block) scanned under budgets {one block, 1 MB, 64 MB, unbounded}
//    must produce one identical FNV-1a checksum, equal to the checksum
//    of the expected in-memory record stream -- the cache budget may
//    change eviction traffic, never bytes.
//
// 4. Corruption sweep: seeded multi-byte flips and forged length and
//    row-count fields reach the same verdicts and rows through every
//    reader as through ParseBlockAt over the whole file.
//
// 5. Held blocks outlive rewrites: a held block's rows stay readable
//    after Compact, a truncation, Invalidate and EraseSegment.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/hash.h"
#include "core/stid.h"
#include "kernels/dispatch.h"
#include "obs/metrics.h"
#include "store/block_cache.h"
#include "store/block_reader.h"
#include "store/format.h"
#include "store/store.h"
#include "store/vfs.h"

namespace sidq {
namespace store {
namespace {

uint64_t FnvRecord(uint64_t h, uint64_t row, const StRecord& r) {
  h = FnvMix(h, row);
  h = FnvMix(h, r.sensor);
  h = FnvMix(h, static_cast<uint64_t>(r.t));
  h = FnvMix(h, DoubleBits(r.loc.x));
  h = FnvMix(h, DoubleBits(r.loc.y));
  h = FnvMix(h, DoubleBits(r.value));
  h = FnvMix(h, DoubleBits(r.stddev));
  return h;
}

// Row checksum of a BlockView or a ColumnarBlock.
template <typename Block>
uint64_t FnvBlock(const Block& block) {
  uint64_t h = kFnvOffset;
  for (size_t i = 0; i < block.size(); ++i) {
    h = FnvRecord(h, i, block.Record(i));
  }
  return h;
}

// Deterministic op stream for the model test (R2 bans rand()).
uint64_t SplitMix64(uint64_t* state) {
  uint64_t x = (*state += 0x9e3779b97f4a7c15ull);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Same synthetic stream as store_test.cc (NaN row keeps bit-identity
// honest through the checksum).
StRecord MakeRecord(uint64_t i) {
  StRecord r;
  r.sensor = 1 + (i % 5);
  r.t = static_cast<Timestamp>(1000 * i);
  r.loc = geometry::Point(0.25 * static_cast<double>(i),
                          -0.5 * static_cast<double>(i));
  r.value = 20.0 + 0.125 * static_cast<double>(i);
  r.stddev = 0.5;
  if (i == 7) r.value = std::numeric_limits<double>::quiet_NaN();
  return r;
}

ColumnarBlock MakeBlock(size_t rows, uint64_t salt) {
  ColumnarBlock b;
  for (size_t i = 0; i < rows; ++i) b.Add(MakeRecord(salt * 100 + i));
  return b;
}

// `block` encoded into one shared allocation and verified there, as
// BlockReader hands it to the cache.
CachedBlock Cached(const ColumnarBlock& block) {
  const std::string encoded = EncodeBlock(block);
  std::shared_ptr<char[]> bytes =
      std::make_shared_for_overwrite<char[]>(encoded.size());
  std::memcpy(bytes.get(), encoded.data(), encoded.size());
  const ParsedBlock parsed =
      ParseBlockAt(std::string_view(bytes.get(), encoded.size()), 0);
  EXPECT_EQ(parsed.defect, BlockDefect::kNone);
  return CachedBlock{std::move(bytes), parsed.block};
}

// --- reference model -----------------------------------------------------
//
// Mirrors BlockCache semantics exactly: one table + LRU list of every
// resident key, byte accounting against the budget, and the four
// counters. Each entry remembers the checksum of the rows inserted under
// its key, so a block the cache returns can be checked against them.

struct ModelEntry {
  size_t charge = 0;
  uint64_t fnv = 0;  // FnvBlock of the rows inserted under this key
  std::list<uint64_t>::iterator lru_it;
};

class CacheModel {
 public:
  explicit CacheModel(size_t capacity) : capacity_(capacity) {}

  // Returns the resident entry a Lookup hits, or null on a miss.
  const ModelEntry* Lookup(uint64_t key) {
    auto it = table_.find(key);
    if (it == table_.end()) {
      ++misses_;
      return nullptr;
    }
    ++hits_;
    lru_.splice(lru_.end(), lru_, it->second.lru_it);
    return &it->second;
  }

  // Returns the FnvBlock of the rows Insert hands back: the incumbent's
  // when `key` is resident, else the new block's.
  uint64_t Insert(uint64_t key, size_t charge, uint64_t fnv) {
    auto [it, inserted] = table_.try_emplace(key);
    ModelEntry& e = it->second;
    if (!inserted) {
      lru_.splice(lru_.end(), lru_, e.lru_it);
      return e.fnv;
    }
    e.charge = charge;
    e.fnv = fnv;
    e.lru_it = lru_.insert(lru_.end(), key);
    resident_ += charge;
    ++inserts_;
    while (capacity_ != 0 && resident_ > capacity_) {
      EraseEntry(table_.find(lru_.front()), /*eviction=*/true);
    }
    return fnv;
  }

  bool Resident(uint64_t key) const { return table_.count(key) != 0; }

  void EraseSegment(uint32_t segment) {
    for (auto it = table_.begin(); it != table_.end();) {
      auto next = std::next(it);
      if (BlockCache::SegmentOf(it->first) == segment) {
        EraseEntry(it, /*eviction=*/false);
      }
      it = next;
    }
  }

  BlockCache::Stats Stats() const {
    BlockCache::Stats out;
    out.hits = hits_;
    out.misses = misses_;
    out.inserts = inserts_;
    out.evictions = evictions_;
    out.resident_bytes = resident_;
    out.resident_blocks = table_.size();
    return out;
  }

 private:
  void EraseEntry(std::map<uint64_t, ModelEntry>::iterator it, bool eviction) {
    lru_.erase(it->second.lru_it);
    resident_ -= it->second.charge;
    if (eviction) ++evictions_;
    table_.erase(it);
  }

  size_t capacity_;
  std::map<uint64_t, ModelEntry> table_;
  std::list<uint64_t> lru_;  // front = next victim; every resident key
  size_t resident_ = 0;
  uint64_t hits_ = 0, misses_ = 0, inserts_ = 0, evictions_ = 0;
};

void ExpectStatsEqual(const BlockCache::Stats& got,
                      const BlockCache::Stats& want, const char* where) {
  EXPECT_EQ(got.hits, want.hits) << where;
  EXPECT_EQ(got.misses, want.misses) << where;
  EXPECT_EQ(got.inserts, want.inserts) << where;
  EXPECT_EQ(got.evictions, want.evictions) << where;
  EXPECT_EQ(got.resident_bytes, want.resident_bytes) << where;
  EXPECT_EQ(got.resident_blocks, want.resident_blocks) << where;
}

// A block a reader holds, its key, and the FnvBlock its rows must keep.
struct HeldBlock {
  uint64_t key = 0;
  CachedBlock block;
  uint64_t fnv = 0;
};

void RunModelWorkout(size_t capacity_bytes, uint64_t seed, int ops) {
  obs::MetricsRegistry metrics;
  BlockCache cache(capacity_bytes, &metrics);
  CacheModel model(capacity_bytes);

  // Blocks of 1..8 rows over a small key space force constant
  // collision/eviction traffic; held blocks outlive their entries.
  std::vector<HeldBlock> held;
  int orphan_reads = 0;  // reads of held blocks whose entry has left
  uint64_t state = seed;
  for (int op = 0; op < ops; ++op) {
    const uint64_t r = SplitMix64(&state);
    const uint32_t segment = static_cast<uint32_t>(r % 3);
    const uint64_t offset = ((r >> 8) % 12) * 1024;
    const uint64_t key = BlockCache::KeyOf(segment, offset);
    const size_t rows = 1 + ((r >> 16) % 8);
    const bool keep = ((r >> 24) & 1) != 0;
    switch ((r >> 32) % 10) {
      case 0:
      case 1:
      case 2: {  // Lookup
        const ModelEntry* want = model.Lookup(key);
        CachedBlock block = cache.Lookup(segment, offset);
        ASSERT_EQ(block.bytes != nullptr, want != nullptr) << "op " << op;
        if (want != nullptr) {
          EXPECT_EQ(FnvBlock(block.view), want->fnv) << "op " << op;
          if (keep) held.push_back({key, std::move(block), want->fnv});
        }
        break;
      }
      case 3:
      case 4:
      case 5:
      case 6: {  // Insert
        const ColumnarBlock rows_in = MakeBlock(rows, r);
        const uint64_t want = model.Insert(key, BlockCache::ChargeOf(rows),
                                           FnvBlock(rows_in));
        CachedBlock block = cache.Insert(segment, offset, Cached(rows_in));
        ASSERT_NE(block.bytes, nullptr) << "op " << op;
        EXPECT_EQ(FnvBlock(block.view), want) << "op " << op;
        if (keep) held.push_back({key, std::move(block), want});
        break;
      }
      case 7:
      case 8: {  // Release a held block
        if (!held.empty()) {
          held.erase(held.begin() +
                     static_cast<ptrdiff_t>((r >> 40) % held.size()));
        }
        break;
      }
      case 9: {  // Invalidate one segment
        cache.EraseSegment(segment);
        model.EraseSegment(segment);
        break;
      }
    }

    const BlockCache::Stats got = cache.GetStats();
    ExpectStatsEqual(got, model.Stats(), ("op " + std::to_string(op)).c_str());
    // Budget invariant: resident bytes never exceed the budget.
    if (capacity_bytes != 0) {
      EXPECT_LE(got.resident_bytes, capacity_bytes) << "op " << op;
    } else {
      EXPECT_EQ(got.evictions, 0u) << "op " << op;
    }
    // Every held block still reads the rows it was handed out with,
    // whether or not its entry is still resident (ASan-visible reads).
    for (const HeldBlock& h : held) {
      ASSERT_NE(h.block.bytes, nullptr) << "op " << op;
      EXPECT_EQ(FnvBlock(h.block.view), h.fnv) << "op " << op;
      if (!model.Resident(h.key)) ++orphan_reads;
    }
    if (testing::Test::HasFatalFailure() ||
        testing::Test::HasNonfatalFailure()) {
      FAIL() << "model divergence at op " << op;
    }
  }
  held.clear();
  EXPECT_GT(orphan_reads, 0) << "no held block outlived its entry";

  // Metrics mirror the stats counters exactly.
  const BlockCache::Stats end = cache.GetStats();
  const obs::MetricsSnapshot snap = metrics.Snapshot();
  std::map<std::string, int64_t> exported;
  for (const obs::CounterValue& c : snap.counters) exported[c.name] = c.value;
  for (const obs::GaugeValue& g : snap.gauges) exported[g.name] = g.value;
  EXPECT_EQ(exported["store.cache.hit"], static_cast<int64_t>(end.hits));
  EXPECT_EQ(exported["store.cache.miss"], static_cast<int64_t>(end.misses));
  EXPECT_EQ(exported["store.cache.insert"],
            static_cast<int64_t>(end.inserts));
  EXPECT_EQ(exported["store.cache.eviction"],
            static_cast<int64_t>(end.evictions));
  EXPECT_EQ(exported["store.cache.resident_bytes"],
            static_cast<int64_t>(end.resident_bytes));
}

TEST(StoreCacheTest, ModelConformanceTinyBudget) {
  // Budget of ~2 blocks: eviction on nearly every insert.
  RunModelWorkout(2 * BlockCache::ChargeOf(8), 0x5eed, 600);
}

TEST(StoreCacheTest, ModelConformanceThreeBlockBudget) {
  RunModelWorkout(3 * BlockCache::ChargeOf(8), 0xc0ffee, 600);
}

TEST(StoreCacheTest, ModelConformanceUnbounded) {
  RunModelWorkout(0, 0xdead, 400);
}

TEST(StoreCacheTest, HeldBlockSurvivesEvictionAndInvalidation) {
  BlockCache cache(BlockCache::ChargeOf(8), nullptr);
  const uint64_t fnv4 = FnvBlock(MakeBlock(4, 9));
  const uint64_t fnv8 = FnvBlock(MakeBlock(8, 2));

  // Evicted: the next insert pushes the held block out of the budget.
  CachedBlock evicted = cache.Insert(3, 0, Cached(MakeBlock(4, 9)));
  CachedBlock invalidated = cache.Insert(4, 0, Cached(MakeBlock(8, 2)));
  EXPECT_EQ(cache.GetStats().evictions, 1u);
  EXPECT_EQ(cache.Lookup(3, 0).bytes, nullptr);

  // Invalidated: the entry is gone from the table (later lookups miss).
  cache.EraseSegment(4);
  EXPECT_EQ(cache.Lookup(4, 0).bytes, nullptr);

  // Larger than the whole budget: evicted by its own insert, yet handed
  // back whole.
  BlockCache tiny(BlockCache::ChargeOf(4), nullptr);
  CachedBlock oversize = tiny.Insert(0, 0, Cached(MakeBlock(8, 2)));
  EXPECT_EQ(tiny.GetStats().evictions, 1u);
  EXPECT_EQ(tiny.GetStats().resident_bytes, 0u);

  // Every held block still reads its rows until it drops.
  EXPECT_EQ(FnvBlock(evicted.view), fnv4);
  EXPECT_EQ(FnvBlock(invalidated.view), fnv8);
  EXPECT_EQ(FnvBlock(oversize.view), fnv8);
  const BlockCache::Stats s = cache.GetStats();
  EXPECT_EQ(s.resident_blocks, 0u);
  EXPECT_EQ(s.resident_bytes, 0u);

  // A victim nobody holds is released at the next cache call, not inside
  // the Insert that evicted it.
  BlockCache one(BlockCache::ChargeOf(8), nullptr);
  const std::weak_ptr<const char[]> victim =
      one.Insert(0, 0, Cached(MakeBlock(8, 1))).bytes;
  const CachedBlock next = one.Insert(0, 1024, Cached(MakeBlock(8, 2)));
  EXPECT_EQ(one.GetStats().evictions, 1u);
  EXPECT_FALSE(victim.expired());
  EXPECT_NE(one.Lookup(0, 1024).bytes, nullptr);
  EXPECT_TRUE(victim.expired());
}

// --- bounded ladder vs. whole-file parse ---------------------------------
//
// The BlockReader reads a block in bounded chunks sized by what the caller
// expects; its verdicts must equal ParseBlockAt over the whole file plus
// the manifest cross-check, for every torn length and every flipped byte
// of a small segment, and whether the expected length is right, too
// short or too long.

BlockDefect WholeFileVerdict(const std::string& data, const BlockEntry& e) {
  const ParsedBlock parsed = ParseBlockAt(data, e.offset);
  if (parsed.defect != BlockDefect::kNone) return parsed.defect;
  if (parsed.crc != e.crc || parsed.bytes_consumed != e.length ||
      parsed.block.size() != e.row_count) {
    return BlockDefect::kManifestMismatch;
  }
  return BlockDefect::kNone;
}

TEST(StoreCacheTest, BoundedLadderMatchesWholeFileParse) {
  // Three blocks of different lengths, so a neighbour's length is a
  // wrong guess in both directions.
  std::string segment;
  std::vector<BlockEntry> entries;
  for (size_t rows : {3, 1, 5}) {
    const std::string encoded = EncodeBlock(MakeBlock(rows, rows));
    BlockEntry e;
    e.index = static_cast<uint32_t>(entries.size());
    e.offset = segment.size();
    e.length = encoded.size();
    std::memcpy(&e.crc, encoded.data() + 12, sizeof(e.crc));
    e.row_count = static_cast<uint32_t>(rows);
    entries.push_back(e);
    segment += encoded;
  }
  // Each block checked against its own entry and against entries that
  // carry a neighbour's length.
  std::vector<BlockEntry> checks = entries;
  for (size_t i = 0; i < entries.size(); ++i) {
    BlockEntry wrong = entries[i];
    wrong.length = entries[(i + 1) % entries.size()].length;
    checks.push_back(wrong);
  }

  std::vector<std::string> files;
  for (size_t len = 0; len <= segment.size(); ++len) {
    files.push_back(segment.substr(0, len));  // torn appends
  }
  for (size_t at = 0; at < segment.size(); ++at) {
    std::string flipped = segment;
    flipped[at] = static_cast<char>(flipped[at] ^ 0x40);  // media corruption
    files.push_back(flipped);
  }

  MemVfs vfs;
  ASSERT_TRUE(vfs.CreateDir("db").ok());
  const std::string path = "db/" + SegmentFileName(0);
  for (size_t f = 0; f < files.size(); ++f) {
    const std::string& data = files[f];
    StatusOr<std::unique_ptr<WritableFile>> w =
        vfs.NewWritableFile(path, WriteMode::kTruncate);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE((*w)->Append(data).ok());
    ASSERT_TRUE((*w)->Close().ok());

    StatusOr<std::unique_ptr<RandomAccessFile>> file =
        vfs.NewRandomAccessFile(path);
    ASSERT_TRUE(file.ok());
    for (const BlockEntry& e : checks) {
      BlockDefect got = BlockDefect::kNone;
      ASSERT_TRUE(BlockReader::VerifyAt(file->get(), e, &got, nullptr).ok());
      EXPECT_EQ(got, WholeFileVerdict(data, e))
          << "file " << f << " (" << data.size() << " bytes), block "
          << e.index << ", expected length " << e.length;
    }

    // Tail recovery walks the same file with no manifest at all.
    BlockCache cache(0, nullptr);
    BlockReader reader(&vfs, "db", &cache);
    StatusOr<BlockReader::TailScanResult> tail =
        reader.TailScan(0, 0, 0, [](ScannedBlock&&) {});
    ASSERT_TRUE(tail.ok());
    uint64_t offset = 0;
    BlockDefect stop = BlockDefect::kNone;
    while (offset < data.size()) {
      const ParsedBlock parsed = ParseBlockAt(data, offset);
      if (parsed.defect != BlockDefect::kNone) {
        stop = parsed.defect;
        break;
      }
      offset += parsed.bytes_consumed;
    }
    EXPECT_EQ(tail->valid_bytes, offset) << "file " << f;
    EXPECT_EQ(tail->defect, stop) << "file " << f;
  }
}

// --- seeded corruption sweep ---------------------------------------------
//
// Multi-byte flips and forged length and row-count fields over a segment
// whose blocks span the CRC's serial, short-stride and long-stride paths.
// A forged field is sometimes re-sealed with a matching CRC, so the
// layout checks behind the CRC (kBadPayload) and the in-place column
// view get exercised too. Every reader -- VerifyAt, the cached Read and
// the tail scan -- must reach ParseBlockAt's whole-file verdict, and a
// clean verdict must serve ParseBlockAt's rows.

// Recomputes the self-CRC of the block at `offset` over the payload its
// (possibly forged) length field claims, when that payload fits.
void Reseal(std::string* data, size_t offset) {
  uint32_t payload_len = 0;
  std::memcpy(&payload_len, data->data() + offset + 8, sizeof(payload_len));
  if (data->size() - offset - kBlockHeaderSize < payload_len) return;
  const kernels::KernelOps& k = kernels::KernelDispatch::Get();
  uint32_t crc = k.crc32c(0, data->data() + offset + 4, 8);
  crc = k.crc32c(crc, data->data() + offset + kBlockHeaderSize, payload_len);
  std::memcpy(data->data() + offset + 12, &crc, sizeof(crc));
}

TEST(StoreCacheTest, SeededCorruptionSweepMatchesWholeFileParse) {
  std::string segment;
  std::vector<BlockEntry> entries;
  for (size_t rows : {3, 256, 1, 17}) {
    const std::string encoded = EncodeBlock(MakeBlock(rows, rows));
    BlockEntry e;
    e.index = static_cast<uint32_t>(entries.size());
    e.offset = segment.size();
    e.length = encoded.size();
    std::memcpy(&e.crc, encoded.data() + 12, sizeof(e.crc));
    e.row_count = static_cast<uint32_t>(rows);
    entries.push_back(e);
    segment += encoded;
  }

  MemVfs vfs;
  ASSERT_TRUE(vfs.CreateDir("db").ok());
  const std::string path = "db/" + SegmentFileName(0);
  uint64_t state = 0x5eedc0de;
  int verdicts[16] = {};
  for (int trial = 0; trial < 600; ++trial) {
    std::string data = segment;
    const uint64_t r = SplitMix64(&state);
    const BlockEntry& target = entries[(r >> 8) % entries.size()];
    const size_t header = static_cast<size_t>(target.offset);
    std::string what;
    switch (r % 3) {
      case 0: {  // 2..8 flipped bytes, as one run or scattered
        const size_t count = 2 + (r >> 16) % 7;
        const bool run = ((r >> 24) & 1) != 0;
        size_t at = SplitMix64(&state) % data.size();
        for (size_t i = 0; i < count; ++i) {
          const uint64_t f = SplitMix64(&state);
          if (!run) at = f % data.size();
          data[at % data.size()] ^= static_cast<char>(1 + (f >> 32) % 255);
          ++at;
        }
        what = std::to_string(count) + (run ? "-byte run" : " bytes");
        break;
      }
      case 1: {  // forged payload_len
        const uint32_t len =
            static_cast<uint32_t>(target.length - kBlockHeaderSize);
        const uint32_t forged[] = {0,       3,
                                   len - 1, len + 1,
                                   kMaxBlockPayload, kMaxBlockPayload + 1};
        const uint32_t v = forged[(r >> 16) % 6];
        std::memcpy(data.data() + header + 8, &v, sizeof(v));
        what = "payload_len " + std::to_string(v);
        break;
      }
      case 2: {  // forged row count
        const uint32_t n = target.row_count;
        const uint32_t forged[] = {0, n - 1, n + 1,
                                   n ^ (1u << ((r >> 20) % 32)), 0xffffffffu};
        const uint32_t v = forged[(r >> 16) % 5];
        std::memcpy(data.data() + header + kBlockHeaderSize, &v, sizeof(v));
        what = "row count " + std::to_string(v);
        break;
      }
    }
    if ((r >> 40) % 2 == 0) {
      Reseal(&data, header);
      what += ", resealed";
    }
    const std::string where = "trial " + std::to_string(trial) + " (" + what +
                              " in block " + std::to_string(target.index) +
                              ")";

    StatusOr<std::unique_ptr<WritableFile>> w =
        vfs.NewWritableFile(path, WriteMode::kTruncate);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE((*w)->Append(data).ok());
    ASSERT_TRUE((*w)->Close().ok());
    StatusOr<std::unique_ptr<RandomAccessFile>> file =
        vfs.NewRandomAccessFile(path);
    ASSERT_TRUE(file.ok());

    BlockCache cache(0, nullptr);
    BlockReader reader(&vfs, "db", &cache);
    for (const BlockEntry& e : entries) {
      const BlockDefect want = WholeFileVerdict(data, e);
      ++verdicts[static_cast<int>(want)];
      BlockDefect got = BlockDefect::kNone;
      ASSERT_TRUE(BlockReader::VerifyAt(file->get(), e, &got, nullptr).ok());
      EXPECT_EQ(got, want) << where << ": VerifyAt of block " << e.index;

      CachedBlock block;
      ASSERT_TRUE(
          reader.Read(e, BlockReader::MissingPolicy::kError, &got, &block)
              .ok());
      EXPECT_EQ(got, want) << where << ": Read of block " << e.index;
      EXPECT_EQ(block.bytes != nullptr, want == BlockDefect::kNone) << where;
      if (block.bytes != nullptr) {
        EXPECT_EQ(FnvBlock(block.view),
                  FnvBlock(ParseBlockAt(data, e.offset).block))
            << where << ": Read of block " << e.index << " serves other rows";
      }
    }

    std::vector<ScannedBlock> scanned;
    std::vector<uint64_t> scanned_rows;
    StatusOr<BlockReader::TailScanResult> tail =
        reader.TailScan(0, 0, 0, [&](ScannedBlock&& b) {
          scanned_rows.push_back(FnvBlock(b.block));
          scanned.push_back(std::move(b));
        });
    ASSERT_TRUE(tail.ok()) << where;
    uint64_t offset = 0;
    BlockDefect stop = BlockDefect::kNone;
    size_t walked = 0;
    while (offset < data.size()) {
      const ParsedBlock parsed = ParseBlockAt(data, offset);
      if (parsed.defect != BlockDefect::kNone) {
        stop = parsed.defect;
        break;
      }
      ASSERT_LT(walked, scanned.size()) << where;
      EXPECT_EQ(scanned[walked].offset, offset) << where;
      EXPECT_EQ(scanned[walked].length, parsed.bytes_consumed) << where;
      EXPECT_EQ(scanned[walked].crc, parsed.crc) << where;
      EXPECT_EQ(scanned_rows[walked], FnvBlock(parsed.block)) << where;
      offset += parsed.bytes_consumed;
      ++walked;
    }
    EXPECT_EQ(scanned.size(), walked) << where;
    EXPECT_EQ(tail->valid_bytes, offset) << where;
    EXPECT_EQ(tail->defect, stop) << where;
    if (HasFailure()) return;
  }
  // The sweep reaches every verdict past the header checks, not just
  // bad-crc.
  for (BlockDefect d :
       {BlockDefect::kNone, BlockDefect::kBadLength, BlockDefect::kShortPayload,
        BlockDefect::kBadCrc, BlockDefect::kBadPayload}) {
    EXPECT_GT(verdicts[static_cast<int>(d)], 0) << BlockDefectName(d);
  }
}

// --- fixed-budget scan differential --------------------------------------

StoreOptions DiffOptions(size_t cache_bytes) {
  StoreOptions o;
  o.block_records = 8;
  o.segment_target_blocks = 4;
  o.field_name = "diff";
  o.cache_bytes = cache_bytes;
  return o;
}

constexpr uint64_t kDiffRows = 64;  // 8 blocks over 2 segments

// Writes kDiffRows rows, commits, corrupts an interior block of segment
// 0, and reopens once so the quarantine verdict is established.
void BuildPockedStore(MemVfs* vfs) {
  {
    StatusOr<std::unique_ptr<Store>> store =
        Store::Open(vfs, "db", DiffOptions(0));
    ASSERT_TRUE(store.ok()) << store.status();
    for (uint64_t i = 0; i < kDiffRows; ++i) {
      ASSERT_TRUE((*store)->Append(MakeRecord(i)).ok());
    }
    ASSERT_TRUE((*store)->Close().ok());
  }
  StatusOr<std::string> seg = vfs->ReadFile("db/000000.seg");
  ASSERT_TRUE(seg.ok());
  const ParsedBlock first = ParseBlockAt(*seg, 0);
  ASSERT_EQ(first.defect, BlockDefect::kNone);
  // One flipped payload bit in block 1 (rows 8..15): kBadCrc quarantine.
  ASSERT_TRUE(vfs->CorruptByte("db/000000.seg", first.bytes_consumed + 20,
                               0x10).ok());
}

TEST(StoreCacheTest, FixedBudgetScanChecksumDifferential) {
  // Expected stream: every row except the quarantined block's 8..15.
  uint64_t want = kFnvOffset;
  for (uint64_t i = 0; i < kDiffRows; ++i) {
    if (i >= 8 && i < 16) continue;
    want = FnvRecord(want, i, MakeRecord(i));
  }

  // Cache stats after open plus two full scans, per budget. Recovery
  // reads the 8 manifested blocks (the quarantined one misses and never
  // enters the cache) and each scan reads the 7 clean ones again. These
  // are the exact counters of the LRU policy: a change to eviction order
  // or accounting moves them.
  struct Budget {
    size_t bytes;
    BlockCache::Stats want;
  };
  const auto stats = [](uint64_t hits, uint64_t misses, uint64_t inserts,
                        uint64_t evictions, uint64_t resident_bytes) {
    BlockCache::Stats s;
    s.hits = hits;
    s.misses = misses;
    s.inserts = inserts;
    s.evictions = evictions;
    s.resident_bytes = resident_bytes;
    return s;
  };
  const std::vector<Budget> budgets = {
      // exactly one decoded block: the scan cycles the cache
      {BlockCache::ChargeOf(8), stats(0, 22, 21, 20, 592)},
      // 1 MB and 64 MB: everything fits, both scans hit
      {1ull << 20, stats(14, 8, 7, 0, 4144)},
      {64ull << 20, stats(14, 8, 7, 0, 4144)},
      // unbounded
      {0, stats(14, 8, 7, 0, 4144)},
  };
  for (const auto& [budget, want_stats] : budgets) {
    MemVfs vfs;
    BuildPockedStore(&vfs);
    if (HasFatalFailure()) return;
    StatusOr<std::unique_ptr<Store>> store =
        Store::Open(&vfs, "db", DiffOptions(budget));
    ASSERT_TRUE(store.ok()) << store.status();
    const Store& s = **store;
    ASSERT_EQ(s.recovery().quarantined.size(), 1u) << "budget " << budget;
    EXPECT_EQ(s.recovery().rows_lost, 8u);

    // Two full scans: the second exercises the hit path under every
    // budget (or the full-eviction path at one block).
    for (int pass = 0; pass < 2; ++pass) {
      uint64_t got = kFnvOffset;
      ASSERT_TRUE(s.Scan([&](uint64_t row, const StRecord& rec) {
                     got = FnvRecord(got, row, rec);
                   }).ok())
          << "budget " << budget << " pass " << pass;
      EXPECT_EQ(got, want) << "budget " << budget << " pass " << pass
                           << ": scan bytes depend on cache budget";
    }

    const BlockCache::Stats got = s.cache_stats();
    EXPECT_EQ(got.hits, want_stats.hits) << "budget " << budget;
    EXPECT_EQ(got.misses, want_stats.misses) << "budget " << budget;
    EXPECT_EQ(got.inserts, want_stats.inserts) << "budget " << budget;
    EXPECT_EQ(got.evictions, want_stats.evictions) << "budget " << budget;
    EXPECT_EQ(got.resident_bytes, want_stats.resident_bytes)
        << "budget " << budget;
    // Budget invariant once the scans have returned.
    if (budget != 0) {
      EXPECT_LE(got.resident_bytes, budget) << "budget " << budget;
    }
  }
}

TEST(StoreCacheTest, UnboundedAndBoundedAgreeOnCleanStore) {
  // No quarantine: every budget, including "one block", serves the whole
  // stream bit-identically.
  uint64_t want = kFnvOffset;
  for (uint64_t i = 0; i < kDiffRows; ++i) {
    want = FnvRecord(want, i, MakeRecord(i));
  }
  for (size_t budget : {BlockCache::ChargeOf(8), size_t{0}}) {
    MemVfs vfs;
    {
      StatusOr<std::unique_ptr<Store>> store =
          Store::Open(&vfs, "db", DiffOptions(0));
      ASSERT_TRUE(store.ok());
      for (uint64_t i = 0; i < kDiffRows; ++i) {
        ASSERT_TRUE((*store)->Append(MakeRecord(i)).ok());
      }
      ASSERT_TRUE((*store)->Close().ok());
    }
    StatusOr<std::unique_ptr<Store>> store =
        Store::Open(&vfs, "db", DiffOptions(budget));
    ASSERT_TRUE(store.ok()) << store.status();
    uint64_t got = kFnvOffset;
    ASSERT_TRUE((*store)
                    ->Scan([&](uint64_t row, const StRecord& rec) {
                      got = FnvRecord(got, row, rec);
                    })
                    .ok());
    EXPECT_EQ(got, want) << "budget " << budget;
  }
}

// --- held blocks outlive rewrites -----------------------------------------
//
// A scan holds the block under its cursor while it walks the rows. The
// held CachedBlock shares ownership of the bytes the block was read into,
// so the rows stay readable when the segment is rewritten under it: by
// Compact's rename, by a truncation, and by the Invalidate / EraseSegment
// that follow.

TEST(StoreCacheTest, HeldBlockOutlivesSegmentRewrite) {
  MemVfs vfs;
  BuildPockedStore(&vfs);
  if (HasFatalFailure()) return;
  StatusOr<std::unique_ptr<Store>> store =
      Store::Open(&vfs, "db", DiffOptions(0));
  ASSERT_TRUE(store.ok()) << store.status();

  const auto manifest_blocks = [&]() {
    StatusOr<std::string> current = vfs.ReadFile("db/CURRENT");
    EXPECT_TRUE(current.ok());
    uint64_t gen = 0;
    uint32_t crc = 0;
    EXPECT_TRUE(ParseCurrent(*current, &gen, &crc).ok());
    StatusOr<std::string> log = vfs.ReadFile("db/" + ManifestFileName(gen));
    EXPECT_TRUE(log.ok());
    StatusOr<ManifestLogReplay> replay = ReplayManifestLog(*log);
    EXPECT_TRUE(replay.ok());
    EXPECT_EQ(replay->snapshot_crc, crc);
    return replay->state.blocks;
  };
  // Block 2 of segment 0 (rows 16..23) sits after the quarantined block 1,
  // so compaction moves it.
  const auto block_of_row_16 = [&]() {
    for (const BlockEntry& e : manifest_blocks()) {
      if (e.row_start == 16) return e;
    }
    ADD_FAILURE() << "no manifested block starts at row 16";
    return BlockEntry();
  };
  const BlockEntry entry = block_of_row_16();
  ASSERT_EQ(entry.segment, 0u);
  const auto expect_rows = [&](const CachedBlock& block, const char* when) {
    ASSERT_NE(block.bytes, nullptr) << when;
    ASSERT_EQ(block.view.size(), entry.row_count) << when;
    for (size_t i = 0; i < block.view.size(); ++i) {
      EXPECT_EQ(FnvRecord(kFnvOffset, 0, block.view.Record(i)),
                FnvRecord(kFnvOffset, 0, MakeRecord(entry.row_start + i)))
          << when << ", row " << i;
    }
  };

  BlockCache cache(BlockCache::ChargeOf(8), nullptr);
  BlockReader reader(&vfs, "db", &cache);
  BlockDefect defect = BlockDefect::kNone;
  CachedBlock held;
  ASSERT_TRUE(
      reader.Read(entry, BlockReader::MissingPolicy::kError, &defect, &held)
          .ok());
  ASSERT_EQ(defect, BlockDefect::kNone);
  expect_rows(held, "after read");

  CompactionReport report;
  ASSERT_TRUE((*store)->Compact(&report).ok());
  ASSERT_EQ(report.segments_compacted, 1u);
  ASSERT_EQ(report.blocks_dropped, 1u);
  reader.Invalidate(0);
  EXPECT_EQ(cache.Lookup(0, entry.offset).bytes, nullptr);
  expect_rows(held, "after Compact and Invalidate");

  // The block now lives at its compacted offset; a fresh read serves the
  // same rows beside the held block.
  const BlockEntry after = block_of_row_16();
  ASSERT_EQ(after.segment, 0u);
  ASSERT_LT(after.offset, entry.offset);
  CachedBlock moved;
  ASSERT_TRUE(
      reader.Read(after, BlockReader::MissingPolicy::kError, &defect, &moved)
          .ok());
  ASSERT_EQ(defect, BlockDefect::kNone);
  expect_rows(moved, "compacted read");

  ASSERT_TRUE(vfs.Truncate("db/" + SegmentFileName(0), 0).ok());
  reader.Invalidate(0);
  cache.EraseSegment(0);
  expect_rows(held, "after truncation and EraseSegment");
  EXPECT_EQ(cache.GetStats().resident_bytes, 0u);
}

}  // namespace
}  // namespace store
}  // namespace sidq
