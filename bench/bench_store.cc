// BENCH store: durable segment-store throughput and recovery cost
// (DESIGN.md "Durability & recovery").
//
// Workload: a seeded synthetic STID stream (deterministic bytes, same
// every run) appended through the real POSIX Vfs into a scratch store
// under $TMPDIR.
//
//   append     sustained Append()+Commit throughput: rows/s and MB/s of
//              durable (fsync'd, manifested) columnar blocks.
//   scan       store-backed Scan() vs. the in-memory vector walk over the
//              identical records -- the price of reading through the
//              checksummed block path instead of RAM.
//   recovery   Store::Open wall time as the store grows across segment
//              counts, plus a reopen after an injected torn tail (the
//              power-cut case recovery exists for).
//   long_lived one store over 400 commits: commit and reopen time and
//              manifest bytes / data bytes after 10, 100 and 400 commits,
//              against the same rows reopened after a single commit.
//              commit_growth (commit 400 / commit 10) and
//              manifest_over_data carry absolute ceilings in
//              scripts/bench_compare.py.
//
// The store-backed scan must reproduce the in-memory FNV-1a checksum over
// every record's raw bits; any mismatch or failed recovery exits 1, so
// this bench doubles as the store bit-identity gate.
// scripts/bench_json.py records the BENCH_JSON line as BENCH_store.json.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_util.h"
#include "core/hash.h"
#include "core/random.h"
#include "core/stid.h"
#include "store/store.h"
#include "store/vfs.h"

namespace sidq {
namespace {

constexpr uint64_t kSeed = 20220613;  // SIGMOD'22, for the record
constexpr size_t kRowBytes = 48;      // columnar footprint per record

// Deterministic synthetic stream: plausible ranges, exact bytes fixed by
// the seed. NaNs and negative zero ride along on purpose -- the store
// must round-trip them bit-exactly, not "approximately". A generator
// rather than a vector so the ≫-RAM fleet section can replay the exact
// byte stream twice (append, then reference checksum) without ever
// materializing it.
class RecordStream {
 public:
  RecordStream() : rng_(kSeed) {}

  StRecord Next() {
    const size_t i = i_++;
    StRecord rec;
    rec.sensor = 1 + static_cast<SensorId>(i % 64);
    rec.t = static_cast<Timestamp>(i) * 1000;
    rec.loc = geometry::Point(rng_.Uniform(0.0, 8000.0),
                              rng_.Uniform(0.0, 8000.0));
    rec.value = rng_.Uniform(-50.0, 500.0);
    rec.stddev = rng_.Uniform(0.1, 4.0);
    if (i % 4096 == 7) rec.value = std::numeric_limits<double>::quiet_NaN();
    if (i % 4096 == 11) rec.value = -0.0;
    return rec;
  }

 private:
  Rng rng_;
  size_t i_ = 0;
};

std::vector<StRecord> MakeRecords(size_t n) {
  RecordStream stream;
  std::vector<StRecord> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.push_back(stream.Next());
  return out;
}

uint64_t RecordChecksum(uint64_t h, const StRecord& rec) {
  h = FnvMix(h, rec.sensor);
  h = FnvMix(h, static_cast<uint64_t>(rec.t));
  h = FnvMix(h, DoubleBits(rec.loc.x));
  h = FnvMix(h, DoubleBits(rec.loc.y));
  h = FnvMix(h, DoubleBits(rec.value));
  h = FnvMix(h, DoubleBits(rec.stddev));
  return h;
}

// One full Scan() of a store: rows served, their RecordChecksum fold and
// the wall time of the scan.
struct ScanResult {
  uint64_t rows = 0;
  uint64_t checksum = kFnvOffset;
  double seconds = 0.0;
};

// Scans every readable row of `db`; a scan error exits 1 naming `what`.
ScanResult ChecksumScan(const store::Store& db, const std::string& what) {
  ScanResult out;
  const auto t0 = std::chrono::steady_clock::now();
  const Status st = db.Scan([&](uint64_t, const StRecord& rec) {
    out.checksum = RecordChecksum(out.checksum, rec);
    ++out.rows;
  });
  out.seconds = bench::SecondsSince(t0);
  if (!st.ok()) bench::Die(what, st);
  return out;
}

// The bit-identity gate: exits 1 unless `got` served exactly `rows` rows
// folding to `checksum`.
void RequireIdentical(const std::string& what, const ScanResult& got,
                      uint64_t rows, uint64_t checksum) {
  bench::RequireEqual(what + " rows", rows, got.rows);
  bench::RequireEqual(what + " checksum", checksum, got.checksum);
}

double HitRatio(const store::BlockCache::Stats& stats) {
  const uint64_t lookups = stats.hits + stats.misses;
  return lookups == 0 ? 0.0
                      : static_cast<double>(stats.hits) /
                            static_cast<double>(lookups);
}

void RemoveTree(const std::string& dir) {
  store::Vfs* vfs = store::DefaultVfs();
  const StatusOr<std::vector<std::string>> names = vfs->ListDir(dir);
  if (names.ok()) {
    for (const std::string& name : *names) {
      (void)vfs->Remove(dir + "/" + name);  // sidq: allow-ignored-status(best-effort scratch cleanup)
    }
  }
  ::rmdir(dir.c_str());
}

struct RecoveryPoint {
  size_t segments = 0;
  uint64_t rows = 0;
  double open_ms = 0.0;
};

struct LongLivedPoint {
  size_t commits = 0;
  uint64_t rows = 0;
  double commit_ms = 0.0;  // median of the 10 commits up to this point
  double open_ms = 0.0;
  uint64_t manifest_bytes = 0;  // manifest logs + CURRENT
  uint64_t data_bytes = 0;      // segment files
};

// Bytes on disk of `dir`'s segment files and of its manifest files.
void DiskBytes(const std::string& dir, uint64_t* data, uint64_t* manifest) {
  store::Vfs* vfs = store::DefaultVfs();
  *data = *manifest = 0;
  const StatusOr<std::vector<std::string>> names = vfs->ListDir(dir);
  if (!names.ok()) bench::Die("long-lived listdir", names.status());
  for (const std::string& name : *names) {
    uint64_t gen = 0;
    uint32_t seg = 0;
    const bool is_segment = store::ParseSegmentFileName(name, &seg);
    if (!is_segment && !store::ParseManifestFileName(name, &gen) &&
        name != store::kCurrentFileName) {
      continue;
    }
    const StatusOr<uint64_t> size = vfs->FileSize(dir + "/" + name);
    if (!size.ok()) bench::Die("long-lived stat", size.status());
    *(is_segment ? data : manifest) += *size;
  }
}

// Best-of-`reps` wall time of Store::Open on `dir`; exits 1 unless the
// store serves `rows` rows.
double TimedOpenMs(const std::string& dir, const store::StoreOptions& options,
                   int reps, uint64_t rows) {
  double best = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    StatusOr<std::unique_ptr<store::Store>> db =
        store::Store::Open(nullptr, dir, options);
    const double secs = bench::SecondsSince(t0);
    if (!db.ok()) bench::Die("long-lived open", db.status());
    bench::RequireEqual(dir + " rows after open", rows,
                        (*db)->rows_readable());
    best = std::min(best, secs);
  }
  return best * 1e3;
}

struct CachePoint {
  size_t budget_bytes = 0;  // 0 = unbounded
  double cold_s = 0.0;      // first pass after open (recovery pre-warms)
  double warm_s = 0.0;      // second pass, steady-state hit rate
  double hit_ratio = 0.0;
  uint64_t resident_bytes = 0;
};

// Process peak RSS in bytes (ru_maxrss is KiB on Linux). A high-water
// mark: deltas across a section bound that section's extra footprint.
uint64_t PeakRssBytes() {
  struct rusage ru;
  if (::getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<uint64_t>(ru.ru_maxrss) * 1024;
}

// Flips one byte inside the second block of a rolled segment, through the
// Vfs only (read, mutate, rewrite -- the bench runs on the real
// filesystem, which has no CorruptByte hook).
void CorruptSecondBlock(store::Vfs* vfs, const std::string& path) {
  StatusOr<std::string> data = vfs->ReadFile(path);
  if (!data.ok()) bench::Die("corrupt read", data.status());
  const store::ParsedBlock first = store::ParseBlockAt(*data, 0);
  if (first.defect != store::BlockDefect::kNone ||
      first.bytes_consumed + 20 >= data->size()) {
    bench::Die("corrupt", Status::NotFound(path + " has no block 1"));
  }
  (*data)[first.bytes_consumed + 20] ^= 0x10;
  StatusOr<std::unique_ptr<store::WritableFile>> f =
      vfs->NewWritableFile(path, store::WriteMode::kTruncate);
  if (!f.ok()) bench::Die("corrupt reopen", f.status());
  Status st = (*f)->Append(*data);
  if (st.ok()) st = (*f)->Close();
  if (!st.ok()) bench::Die("corrupt rewrite", st);
}

}  // namespace
}  // namespace sidq

int main(int argc, char** argv) {
  using namespace sidq;

  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--quick") {
      quick = true;
    } else {
      std::fprintf(stderr, "usage: %s [--quick]\n", argv[0]);
      return 2;
    }
  }

  bench::Banner("BENCH store", "durable segment store",
                "IoT ingest must survive power cuts: checksummed columnar "
                "blocks, atomic manifest commits, reason-coded recovery "
                "(Mansouri et al.'s incompleteness/corruption threats)");

  const size_t rows = quick ? 50'000 : 400'000;
  const int reps = quick ? 1 : 3;
  const std::vector<StRecord> records = MakeRecords(rows);

  uint64_t mem_checksum = kFnvOffset;
  for (const StRecord& rec : records) {
    mem_checksum = RecordChecksum(mem_checksum, rec);
  }

  char tmpl[] = "/tmp/sidq_bench_store.XXXXXX";
  if (::mkdtemp(tmpl) == nullptr) bench::Die("mkdtemp", Status::Internal(tmpl));
  const std::string scratch = tmpl;

  store::StoreOptions options;
  options.field_name = "bench";

  // --- append: durable ingest throughput (best of reps) -----------------
  double append_s = 1e300;
  const std::string append_dir = scratch + "/append";
  for (int rep = 0; rep < reps; ++rep) {
    RemoveTree(append_dir);
    const auto t0 = std::chrono::steady_clock::now();
    StatusOr<std::unique_ptr<store::Store>> db =
        store::Store::Open(nullptr, append_dir, options);
    if (!db.ok()) bench::Die("append open", db.status());
    for (const StRecord& rec : records) {
      const Status st = (*db)->Append(rec);
      if (!st.ok()) bench::Die("append", st);
    }
    const Status st = (*db)->Close();
    if (!st.ok()) bench::Die("append commit", st);
    append_s = std::min(append_s, bench::SecondsSince(t0));
  }
  const double append_rows_per_s = static_cast<double>(rows) / append_s;
  const double append_mb_per_s =
      static_cast<double>(rows * kRowBytes) / append_s / 1e6;

  // --- scan: store-backed vs. in-memory, with the bit-identity gate -----
  double scan_store_s = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    StatusOr<std::unique_ptr<store::Store>> db =
        store::Store::Open(nullptr, append_dir, options);
    if (!db.ok()) bench::Die("scan open", db.status());
    const ScanResult scan = ChecksumScan(**db, "scan");
    RequireIdentical("store-backed scan vs in-memory path", scan, rows,
                     mem_checksum);
    scan_store_s = std::min(scan_store_s, scan.seconds);
  }

  double scan_mem_s = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    uint64_t checksum = kFnvOffset;
    const auto t0 = std::chrono::steady_clock::now();
    for (const StRecord& rec : records) {
      checksum = RecordChecksum(checksum, rec);
    }
    const double secs = bench::SecondsSince(t0);
    bench::RequireEqual("in-memory rescan", mem_checksum, checksum);
    scan_mem_s = std::min(scan_mem_s, secs);
  }

  // --- recovery: Open() wall time vs. segment count ---------------------
  // Fixed block size, growing row counts: more rows -> more segments.
  // Every block of every manifested segment is CRC-verified on open, so
  // this curve is the price of paranoia at startup.
  std::vector<RecoveryPoint> recovery;
  for (const size_t target_segments : {1u, 4u, 16u}) {
    store::StoreOptions ropts;
    ropts.field_name = "bench";
    ropts.block_records = 256;
    ropts.segment_target_blocks = 16;
    const size_t nrows =
        std::min(rows, target_segments * ropts.block_records *
                           ropts.segment_target_blocks);
    const std::string dir =
        scratch + "/recover" + std::to_string(target_segments);
    {
      StatusOr<std::unique_ptr<store::Store>> db =
          store::Store::Open(nullptr, dir, ropts);
      if (!db.ok()) bench::Die("recovery build open", db.status());
      for (size_t i = 0; i < nrows; ++i) {
        const Status st = (*db)->Append(records[i]);
        if (!st.ok()) bench::Die("recovery build append", st);
      }
      const Status st = (*db)->Close();
      if (!st.ok()) bench::Die("recovery build commit", st);
    }
    double open_s = 1e300;
    uint64_t got = 0;
    for (int rep = 0; rep < reps; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      StatusOr<std::unique_ptr<store::Store>> db =
          store::Store::Open(nullptr, dir, ropts);
      const double secs = bench::SecondsSince(t0);
      if (!db.ok()) bench::Die("recovery open", db.status());
      got = (*db)->rows_readable();
      open_s = std::min(open_s, secs);
    }
    bench::RequireEqual(dir + " rows recovered", nrows, got);
    recovery.push_back({target_segments, nrows, open_s * 1e3});
  }

  // Torn-tail reopen: append garbage past the committed manifest the way
  // a power cut mid-append would, and time the recovery that truncates it.
  const std::string torn_dir = scratch + "/recover16";
  {
    store::Vfs* vfs = store::DefaultVfs();
    // The torn append lands where a crash would put it: at the end of the
    // highest-numbered (actively written) segment.
    StatusOr<std::vector<std::string>> names = vfs->ListDir(torn_dir);
    if (!names.ok()) bench::Die("torn listdir", names.status());
    std::string last_seg;
    for (const std::string& name : *names) {
      uint32_t seg = 0;
      if (store::ParseSegmentFileName(name, &seg)) last_seg = name;
    }
    if (last_seg.empty()) {
      bench::Die("torn", Status::NotFound(torn_dir + " has no segments"));
    }
    StatusOr<std::unique_ptr<store::WritableFile>> f = vfs->NewWritableFile(
        torn_dir + "/" + last_seg, store::WriteMode::kAppend);
    if (!f.ok()) bench::Die("torn append open", f.status());
    Status st = (*f)->Append("SBLK torn by a power cut");
    if (st.ok()) st = (*f)->Close();
    if (!st.ok()) bench::Die("torn append", st);
  }
  double torn_open_ms = 0.0;
  {
    store::StoreOptions ropts;
    ropts.field_name = "bench";
    ropts.block_records = 256;
    ropts.segment_target_blocks = 16;
    const auto t0 = std::chrono::steady_clock::now();
    StatusOr<std::unique_ptr<store::Store>> db =
        store::Store::Open(nullptr, torn_dir, ropts);
    torn_open_ms = bench::SecondsSince(t0) * 1e3;
    if (!db.ok()) bench::Die("torn reopen", db.status());
    const store::RecoveryReport& report = (*db)->recovery();
    bench::RequireEqual("torn tail truncated", 1, report.tail_truncated);
    bench::RequireEqual("rows lost to the torn tail", 0, report.rows_lost);
  }

  // --- cached scan: hit ratio and latency vs. block-cache budget --------
  // Same append_dir store, opened under shrinking cache budgets. Two
  // passes per budget: Open's recovery verification pre-warms whatever
  // fits, so pass 1 is "as warm as the budget allows" and pass 2 is
  // steady state. Every pass must reproduce the in-memory checksum --
  // a bounded cache changes timing, never bytes.
  std::vector<CachePoint> cache_curve;
  double cached_warm_64mb_s = 0.0;
  double cold_1mb_s = 0.0;
  for (const size_t budget : {size_t{1} << 20, size_t{8} << 20,
                              size_t{64} << 20, size_t{0}}) {
    store::StoreOptions copts = options;
    copts.cache_bytes = budget;
    StatusOr<std::unique_ptr<store::Store>> db =
        store::Store::Open(nullptr, append_dir, copts);
    if (!db.ok()) bench::Die("cached scan open", db.status());
    CachePoint point;
    point.budget_bytes = budget;
    for (int pass = 0; pass < 2; ++pass) {
      const ScanResult scan = ChecksumScan(**db, "cached scan");
      RequireIdentical(std::to_string(budget) + "-byte cache budget scan",
                       scan, rows, mem_checksum);
      (pass == 0 ? point.cold_s : point.warm_s) = scan.seconds;
    }
    const store::BlockCache::Stats stats = (*db)->cache_stats();
    point.hit_ratio = HitRatio(stats);
    point.resident_bytes = stats.resident_bytes;
    // The budget is a hard bound on the bytes the cache keeps resident,
    // not a hint.
    if (budget > 0 && stats.resident_bytes > budget) {
      bench::Die("cache budget",
                 Status::ResourceExhausted(
                     std::to_string(stats.resident_bytes) +
                     " resident bytes exceed " + std::to_string(budget)));
    }
    if (budget == 0) {
      bench::RequireEqual("unbounded cache evictions", 0, stats.evictions);
    }
    if (budget == (size_t{64} << 20)) cached_warm_64mb_s = point.warm_s;
    if (budget == (size_t{1} << 20)) cold_1mb_s = point.cold_s;
    cache_curve.push_back(point);
  }
  const double cached_scan_slowdown = cached_warm_64mb_s / scan_mem_s;
  // Every block misses a 1 MB cache, so this pass pays pread, CRC32C
  // verification and decode per block: a silent fallback of the CRC to
  // the table loop shows up here as a several-fold rise.
  const double cold_scan_slowdown = cold_1mb_s / scan_mem_s;

  // --- compaction: reclaim throughput on a quarantine-pocked store ------
  // Build a multi-segment store, flip one byte in an interior block of a
  // few rolled segments (media corruption), let recovery quarantine them,
  // then time the Compact() pass that rewrites those segments without the
  // dead bytes. The readable rows must be bit-identical before and after:
  // maintenance reclaims space, it never touches data.
  const std::string compact_dir = scratch + "/compact";
  const std::vector<uint32_t> pocked_segs = {0, 2, 4};
  store::StoreOptions popts;
  popts.field_name = "bench";
  popts.block_records = 256;
  popts.segment_target_blocks = 16;
  {
    StatusOr<std::unique_ptr<store::Store>> db =
        store::Store::Open(nullptr, compact_dir, popts);
    if (!db.ok()) bench::Die("compact build open", db.status());
    for (const StRecord& rec : records) {
      const Status st = (*db)->Append(rec);
      if (!st.ok()) bench::Die("compact build append", st);
    }
    const Status st = (*db)->Close();
    if (!st.ok()) bench::Die("compact build commit", st);
  }
  store::Vfs* vfs = store::DefaultVfs();
  uint64_t compact_input_bytes = 0;
  for (const uint32_t seg : pocked_segs) {
    const std::string path = compact_dir + "/" + store::SegmentFileName(seg);
    CorruptSecondBlock(vfs, path);
    const StatusOr<uint64_t> size = vfs->FileSize(path);
    if (!size.ok()) bench::Die("compact stat", size.status());
    compact_input_bytes += *size;
  }
  {
    // Recovery quarantines the corrupt blocks; Close commits the verdicts.
    StatusOr<std::unique_ptr<store::Store>> db =
        store::Store::Open(nullptr, compact_dir, popts);
    if (!db.ok()) bench::Die("compact recover open", db.status());
    bench::RequireEqual("quarantined blocks", pocked_segs.size(),
                        (*db)->recovery().quarantined.size());
    const Status st = (*db)->Close();
    if (!st.ok()) bench::Die("compact recover commit", st);
  }
  double compact_s = 0.0;
  store::CompactionReport compact_report;
  ScanResult compact_pre;
  {
    StatusOr<std::unique_ptr<store::Store>> db =
        store::Store::Open(nullptr, compact_dir, popts);
    if (!db.ok()) bench::Die("compact open", db.status());
    compact_pre = ChecksumScan(**db, "compact pre-scan");
    const auto t0 = std::chrono::steady_clock::now();
    Status st = (*db)->Compact(&compact_report);
    compact_s = bench::SecondsSince(t0);
    if (!st.ok()) bench::Die("compact", st);
    RequireIdentical("compacted store scan",
                     ChecksumScan(**db, "compact post-scan"), compact_pre.rows,
                     compact_pre.checksum);
    st = (*db)->Close();
    if (!st.ok()) bench::Die("compact close", st);
  }
  bench::RequireEqual("segments compacted", pocked_segs.size(),
                      compact_report.segments_compacted);
  bench::RequireEqual("blocks dropped by compaction", pocked_segs.size(),
                      compact_report.blocks_dropped);
  if (compact_report.bytes_reclaimed == 0) {
    bench::Die("compaction", Status::Internal("reclaimed no bytes"));
  }
  {
    // Reopen: the compacted generation must serve the same rows durably.
    StatusOr<std::unique_ptr<store::Store>> db =
        store::Store::Open(nullptr, compact_dir, popts);
    if (!db.ok()) bench::Die("compact reopen", db.status());
    RequireIdentical("reopened compacted store scan",
                     ChecksumScan(**db, "compact reopen scan"),
                     compact_pre.rows, compact_pre.checksum);
  }
  const double compact_mb_per_s =
      static_cast<double>(compact_input_bytes) / compact_s / 1e6;

  // --- long-lived: commit and open cost after many commits -------------
  // Continuous ingest commits often and for a long time. One store takes
  // 400 commits of the same size; after 10, 100 and 400 of them it is
  // closed and reopened (as a restart would). A commit should cost what
  // it adds, so the median commit time barely moves with the number of
  // commits behind it, and the manifest should stay a small fraction of
  // the data it describes. The 400-commit store's open is compared with
  // an open of the same rows committed once.
  const size_t rows_per_commit = quick ? 256 : 1024;
  constexpr size_t kLongCommits = 400;
  constexpr size_t kCommitWindow = 10;
  // The first open after a store is written pays one-off costs (page
  // faults, first file opens) worth as much as the open itself at these
  // sizes, so each point takes the best of several opens.
  constexpr int kOpenReps = 5;
  const std::string long_dir = scratch + "/long_lived";
  std::vector<LongLivedPoint> long_curve;
  uint64_t long_checksum = kFnvOffset;
  {
    std::vector<double> commit_ms;
    RecordStream stream;
    std::unique_ptr<store::Store> db;
    uint64_t appended = 0;
    for (size_t c = 1; c <= kLongCommits; ++c) {
      if (db == nullptr) {
        StatusOr<std::unique_ptr<store::Store>> opened =
            store::Store::Open(nullptr, long_dir, options);
        if (!opened.ok()) bench::Die("long-lived open", opened.status());
        db = std::move(*opened);
      }
      for (size_t i = 0; i < rows_per_commit; ++i) {
        const StRecord rec = stream.Next();
        long_checksum = RecordChecksum(long_checksum, rec);
        const Status st = db->Append(rec);
        if (!st.ok()) bench::Die("long-lived append", st);
      }
      appended += rows_per_commit;
      const auto t0 = std::chrono::steady_clock::now();
      const Status st = db->Commit();
      commit_ms.push_back(bench::SecondsSince(t0) * 1e3);
      if (!st.ok()) bench::Die("long-lived commit", st);
      if (c != 10 && c != 100 && c != kLongCommits) continue;
      const Status closed = db->Close();
      if (!closed.ok()) bench::Die("long-lived close", closed);
      db.reset();
      LongLivedPoint p;
      p.commits = c;
      p.rows = appended;
      std::vector<double> window(commit_ms.end() - kCommitWindow,
                                 commit_ms.end());
      std::nth_element(window.begin(), window.begin() + kCommitWindow / 2,
                       window.end());
      p.commit_ms = window[kCommitWindow / 2];
      p.open_ms = TimedOpenMs(long_dir, options, kOpenReps, appended);
      DiskBytes(long_dir, &p.data_bytes, &p.manifest_bytes);
      long_curve.push_back(p);
    }
    StatusOr<std::unique_ptr<store::Store>> reopened =
        store::Store::Open(nullptr, long_dir, options);
    if (!reopened.ok()) bench::Die("long-lived reopen", reopened.status());
    RequireIdentical("400-commit store scan",
                     ChecksumScan(**reopened, "long-lived scan"),
                     long_curve.back().rows, long_checksum);
  }
  const std::string once_dir = scratch + "/long_lived_once";
  double open_once_ms = 0.0;
  {
    StatusOr<std::unique_ptr<store::Store>> db =
        store::Store::Open(nullptr, once_dir, options);
    if (!db.ok()) bench::Die("one-commit open", db.status());
    RecordStream stream;
    for (uint64_t i = 0; i < long_curve.back().rows; ++i) {
      const Status st = (*db)->Append(stream.Next());
      if (!st.ok()) bench::Die("one-commit append", st);
    }
    const Status st = (*db)->Close();
    if (!st.ok()) bench::Die("one-commit close", st);
    open_once_ms =
        TimedOpenMs(once_dir, options, kOpenReps, long_curve.back().rows);
  }
  const double commit_growth =
      long_curve.back().commit_ms / long_curve.front().commit_ms;
  const double open_growth = long_curve.back().open_ms / open_once_ms;

  // --- fleet: ≫-RAM scan under a fixed cache budget (full runs only) ----
  // 10M rows (~480 MB on disk) streamed through the store and scanned
  // under the default 64 MB budget. The record stream is regenerated for
  // the reference checksum instead of materialized, so the bench itself
  // stays small; the RSS high-water delta across append+scan must stay
  // far below the dataset, or the out-of-core claim is false.
  const size_t fleet_rows = quick ? 0 : 10'000'000;
  double fleet_append_s = 0.0;
  double fleet_scan_s = 0.0;
  double fleet_hit_ratio = 0.0;
  uint64_t fleet_rss_delta = 0;
  uint64_t fleet_data_bytes = fleet_rows * kRowBytes;
  if (fleet_rows > 0) {
    uint64_t fleet_checksum = kFnvOffset;
    {
      RecordStream stream;
      for (size_t i = 0; i < fleet_rows; ++i) {
        fleet_checksum = RecordChecksum(fleet_checksum, stream.Next());
      }
    }
    const std::string fleet_dir = scratch + "/fleet";
    const uint64_t rss_before = PeakRssBytes();
    {
      store::StoreOptions fopts;
      fopts.field_name = "bench";
      const auto t0 = std::chrono::steady_clock::now();
      StatusOr<std::unique_ptr<store::Store>> db =
          store::Store::Open(nullptr, fleet_dir, fopts);
      if (!db.ok()) bench::Die("fleet open", db.status());
      RecordStream stream;
      for (size_t i = 0; i < fleet_rows; ++i) {
        const Status st = (*db)->Append(stream.Next());
        if (!st.ok()) bench::Die("fleet append", st);
      }
      const Status st = (*db)->Close();
      if (!st.ok()) bench::Die("fleet commit", st);
      fleet_append_s = bench::SecondsSince(t0);
    }
    {
      store::StoreOptions fopts;
      fopts.field_name = "bench";
      StatusOr<std::unique_ptr<store::Store>> db =
          store::Store::Open(nullptr, fleet_dir, fopts);
      if (!db.ok()) bench::Die("fleet reopen", db.status());
      const ScanResult scan = ChecksumScan(**db, "fleet scan");
      RequireIdentical("fleet scan vs streamed reference", scan, fleet_rows,
                       fleet_checksum);
      fleet_scan_s = scan.seconds;
      const store::BlockCache::Stats stats = (*db)->cache_stats();
      fleet_hit_ratio = HitRatio(stats);
      if (stats.resident_bytes > fopts.cache_bytes) {
        bench::Die("fleet cache budget",
                   Status::ResourceExhausted(
                       std::to_string(stats.resident_bytes) +
                       " resident bytes exceed " +
                       std::to_string(fopts.cache_bytes)));
      }
    }
    fleet_rss_delta = PeakRssBytes() - rss_before;
    // Peak extra footprint: cache budget + one in-flight block's read
    // buffer + transients (segment reads are pread copies, never file
    // mappings). Half the dataset is a loose ceiling that still proves the
    // scan never loaded the store into RAM.
    if (fleet_rss_delta > fleet_data_bytes / 2) {
      bench::Die("fleet peak RSS",
                 Status::ResourceExhausted(
                     std::to_string(fleet_rss_delta) + " bytes grown for " +
                     std::to_string(fleet_data_bytes) + " bytes of data"));
    }
    RemoveTree(fleet_dir);
  }

  RemoveTree(append_dir);
  RemoveTree(compact_dir);
  RemoveTree(long_dir);
  RemoveTree(once_dir);
  for (const size_t s : {1u, 4u, 16u}) {
    RemoveTree(scratch + "/recover" + std::to_string(s));
  }
  ::rmdir(scratch.c_str());

  bench::Table t({"metric", "value"});
  t.AddRow({"rows", std::to_string(rows)});
  t.AddRow({"append rows/s", bench::FInt(append_rows_per_s)});
  t.AddRow({"append MB/s (durable)", bench::F1(append_mb_per_s)});
  t.AddRow({"scan rows/s (store)",
            bench::FInt(static_cast<double>(rows) / scan_store_s)});
  t.AddRow({"scan rows/s (memory)",
            bench::FInt(static_cast<double>(rows) / scan_mem_s)});
  t.AddRow({"scan slowdown vs RAM", bench::F2(scan_store_s / scan_mem_s)});
  t.AddRow({"cached scan slowdown vs RAM", bench::F2(cached_scan_slowdown)});
  t.AddRow({"cold scan slowdown vs RAM", bench::F2(cold_scan_slowdown)});
  t.AddRow({"compaction MB/s", bench::F1(compact_mb_per_s)});
  t.AddRow({"compaction bytes reclaimed",
            std::to_string(compact_report.bytes_reclaimed)});
  t.Print();

  bench::Table ct({"cache budget", "pass1 ms", "pass2 ms", "hit ratio",
                   "resident MB"});
  for (const CachePoint& p : cache_curve) {
    ct.AddRow({p.budget_bytes == 0
                   ? std::string("unbounded")
                   : std::to_string(p.budget_bytes >> 20) + " MB",
               bench::F2(p.cold_s * 1e3), bench::F2(p.warm_s * 1e3),
               bench::F2(p.hit_ratio),
               bench::F2(static_cast<double>(p.resident_bytes) / 1e6)});
  }
  ct.Print();

  if (fleet_rows > 0) {
    bench::Table ft({"fleet metric", "value"});
    ft.AddRow({"rows", std::to_string(fleet_rows)});
    ft.AddRow({"data MB",
               bench::F1(static_cast<double>(fleet_data_bytes) / 1e6)});
    ft.AddRow({"append rows/s",
               bench::FInt(static_cast<double>(fleet_rows) / fleet_append_s)});
    ft.AddRow({"scan rows/s (64 MB cache)",
               bench::FInt(static_cast<double>(fleet_rows) / fleet_scan_s)});
    ft.AddRow({"cache hit ratio", bench::F2(fleet_hit_ratio)});
    ft.AddRow({"peak RSS delta MB",
               bench::F1(static_cast<double>(fleet_rss_delta) / 1e6)});
    ft.Print();
  }

  bench::Table rt({"segments", "rows", "open ms"});
  for (const RecoveryPoint& p : recovery) {
    rt.AddRow({std::to_string(p.segments), std::to_string(p.rows),
               bench::F2(p.open_ms)});
  }
  rt.AddRow({"16 + torn tail", std::to_string(recovery.back().rows),
             bench::F2(torn_open_ms)});
  rt.Print();

  bench::Table lt({"commits", "rows", "commit ms (median of 10)", "open ms",
                   "manifest KB", "data MB", "manifest / data"});
  for (const LongLivedPoint& p : long_curve) {
    lt.AddRow({std::to_string(p.commits), std::to_string(p.rows),
               bench::F2(p.commit_ms), bench::F2(p.open_ms),
               bench::F1(static_cast<double>(p.manifest_bytes) / 1e3),
               bench::F1(static_cast<double>(p.data_bytes) / 1e6),
               bench::Fmt("%.4f", static_cast<double>(p.manifest_bytes) /
                         static_cast<double>(p.data_bytes))});
  }
  lt.AddRow({"1 (same rows)", std::to_string(long_curve.back().rows), "-",
             bench::F2(open_once_ms), "-", "-", "-"});
  lt.Print();
  std::printf("commit 400 / commit 10: %.2f; open after 400 commits / "
              "after one: %.2f\n\n",
              commit_growth, open_growth);

  std::printf(
      "bit-identity: store-backed scan == in-memory path "
      "(checksum %llu over %zu rows)\n\n",
      static_cast<unsigned long long>(mem_checksum), rows);

  // rows_per_s / mb_per_s are absolute machine-dependent rates;
  // scan_slowdown_vs_ram, cached_scan_slowdown_vs_ram and
  // cold_scan_slowdown_vs_ram are same-machine quotients, so
  // bench_compare's --ratios-only mode may hold them across hosts.
  bench::JsonWriter json;
  json.Str("bench", "store")
      .Int("rows", rows)
      .Str("determinism", "bit-identical")
      .Str("checksum", std::to_string(mem_checksum))
      .Object("append")
      .Num("seconds", append_s, 4)
      .Num("rows_per_s", append_rows_per_s, 0)
      .Num("mb_per_s", append_mb_per_s, 1)
      .End()
      .Object("scan")
      .Num("store_rows_per_s", static_cast<double>(rows) / scan_store_s, 0)
      .Num("mem_rows_per_s", static_cast<double>(rows) / scan_mem_s, 0)
      .Num("scan_slowdown_vs_ram", scan_store_s / scan_mem_s, 2)
      .Num("cached_scan_slowdown_vs_ram", cached_scan_slowdown, 2)
      .Num("cold_scan_slowdown_vs_ram", cold_scan_slowdown, 2)
      .End()
      .Array("cache_curve");
  for (const CachePoint& p : cache_curve) {
    json.Object()
        .Int("budget_mb", p.budget_bytes >> 20)
        .Num("pass1_ms", p.cold_s * 1e3, 2)
        .Num("pass2_ms", p.warm_s * 1e3, 2)
        .Num("hit_ratio", p.hit_ratio, 3)
        .End();
  }
  json.End()
      .Object("compaction")
      .Int("segments", compact_report.segments_compacted)
      .Int("blocks_dropped", compact_report.blocks_dropped)
      .Int("bytes_reclaimed", compact_report.bytes_reclaimed)
      .Num("seconds", compact_s, 4)
      .Num("mb_per_s", compact_mb_per_s, 1)
      .End()
      .Array("recovery");
  for (const RecoveryPoint& p : recovery) {
    json.Object()
        .Int("segments", p.segments)
        .Int("rows", p.rows)
        .Num("open_ms", p.open_ms, 2)
        .End();
  }
  json.End().Num("torn_tail_open_ms", torn_open_ms, 2);
  json.Object("long_lived")
      .Int("rows_per_commit", rows_per_commit)
      .Array("curve");
  for (const LongLivedPoint& p : long_curve) {
    json.Object()
        .Int("commits", p.commits)
        .Int("rows", p.rows)
        .Num("commit_ms", p.commit_ms, 3)
        .Num("open_ms", p.open_ms, 2)
        .Int("manifest_bytes", p.manifest_bytes)
        .Int("data_bytes", p.data_bytes)
        .Num("manifest_over_data",
             static_cast<double>(p.manifest_bytes) /
                 static_cast<double>(p.data_bytes),
             4)
        .End();
  }
  json.End()
      .Num("open_once_ms", open_once_ms, 2)
      .Num("commit_growth", commit_growth, 2)
      .Num("open_growth", open_growth, 2)
      .End();
  if (fleet_rows > 0) {
    json.Object("fleet")
        .Int("rows", fleet_rows)
        .Num("data_mb", static_cast<double>(fleet_data_bytes) / 1e6, 0)
        .Int("cache_mb", 64)
        .Num("append_rows_per_s",
             static_cast<double>(fleet_rows) / fleet_append_s, 0)
        .Num("scan_rows_per_s", static_cast<double>(fleet_rows) / fleet_scan_s,
             0)
        .Num("hit_ratio", fleet_hit_ratio, 3)
        .Num("peak_rss_delta_mb", static_cast<double>(fleet_rss_delta) / 1e6,
             1)
        .Str("determinism", "bit-identical");
  }
  bench::EmitJson(json);
  return 0;
}
