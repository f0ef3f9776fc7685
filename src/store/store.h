#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/status.h"
#include "core/statusor.h"
#include "core/stid.h"
#include "core/types.h"
#include "obs/metrics.h"
#include "obs/observer.h"
#include "store/block_cache.h"
#include "store/block_reader.h"
#include "store/format.h"
#include "store/segment.h"
#include "store/vfs.h"
#include "stream/quarantine.h"

namespace sidq {
namespace store {

// A commit writes a snapshot into a new manifest log instead of an edit
// once the live log would outgrow this multiple of its snapshot record.
// Snapshots then come at geometrically spaced commits while rows grow,
// so their cost amortizes to O(new blocks) per commit, and the log stays
// within a constant factor of the live state it describes.
inline constexpr uint64_t kLogSnapshotMultiple = 4;

struct StoreOptions {
  // Records per sealed block. Small blocks bound the blast radius of one
  // corrupt CRC; large blocks amortize header overhead. At most
  // kMaxBlockRecords.
  size_t block_records = 256;
  // Blocks per segment file before rolling to the next NNNNNN.seg.
  size_t segment_target_blocks = 64;
  // Thematic field name stamped into the manifest (a recovered store's
  // manifest wins over this).
  std::string field_name = "stid";
  // Byte budget of the verified-block cache backing the scan path; peak
  // read RSS is bounded by this, not by the dataset (0 = unbounded).
  size_t cache_bytes = 64ull << 20;
  // Optional metrics/trace sinks (store.* counters, store open/commit
  // instants). Null sinks drop the signals.
  obs::ObsSinks obs;
};

// What one Compact() pass rewrote. Compaction drops quarantined blocks'
// bytes from rolled segments while keeping their verdicts (tombstoned
// with offset/length 0) so row-id gaps and per-sensor loss accounting
// survive -- quality metadata travels with the data, it is not laundered
// away by maintenance.
struct CompactionReport {
  uint32_t segments_compacted = 0;
  uint64_t blocks_rewritten = 0;  // live blocks copied verbatim
  uint64_t blocks_dropped = 0;    // quarantined blocks tombstoned
  uint64_t bytes_reclaimed = 0;
  uint64_t manifest_gen = 0;  // generation that committed the pass
};

// Per-trajectory recovery quality: how many of a sensor's rows survived
// and how many sit in quarantined blocks. This is the "quality metadata
// travels with the data" annotation -- a consumer can tell a complete
// trajectory from a degraded one without forensics.
struct SensorQuality {
  uint64_t rows_recovered = 0;
  uint64_t rows_lost = 0;
  [[nodiscard]] bool complete() const { return rows_lost == 0; }
};

// What Store::Open found and did. Every defect is itemized: recovery
// degrades to serve-what's-readable but never silently drops.
struct RecoveryReport {
  uint64_t manifest_gen = 0;       // generation served (0 = fresh store)
  bool current_valid = false;      // CURRENT named a verifiable manifest log
  // Edit records replayed after the log's snapshot, each carrying its
  // predecessor's frame CRC and the next generation number.
  uint32_t chain_links_verified = 0;
  bool chain_intact = true;  // false when a CRC-valid record broke the link
  // Manifest log bytes past the last replayed record (a torn or corrupt
  // final record), cut like a torn segment tail.
  uint64_t manifest_bytes_discarded = 0;
  uint64_t blocks_verified = 0;    // manifested blocks that passed CRC
  uint64_t tail_blocks_recovered = 0;  // valid blocks beyond the manifest
  uint64_t rows_recovered = 0;     // rows servable after recovery
  uint64_t rows_lost = 0;          // rows in quarantined blocks
  bool tail_truncated = false;     // a torn append was cut off
  uint32_t tail_segment = 0;       // segment that was truncated
  uint64_t tail_bytes_discarded = 0;
  BlockDefect tail_defect = BlockDefect::kNone;
  uint32_t orphan_segments_removed = 0;  // segments beyond a torn point
  std::vector<QuarantinedBlockEntry> quarantined;  // every dead block
  std::map<SensorId, SensorQuality> sensor_quality;

  // One-line human summary ("clean" or what was lost and why).
  [[nodiscard]] std::string Summary() const;
};

// -------------------------------------------------------------------------
// Store: append-optimized durable storage for STID records.
//
// Write path: Append buffers records into an in-memory columnar block;
// full blocks are sealed (CRC'd, appended to the current segment file);
// Commit seals the partial block, fsyncs segment data, then appends one
// edit record -- the blocks and verdicts new since the last commit -- to
// the live manifest log and fsyncs it. Data is always durable on media
// before any manifest record references it, so a crash never yields a
// manifest pointing at missing bytes. When the log outgrows
// kLogSnapshotMultiple times its snapshot, the commit instead writes a
// new log holding a snapshot of the whole state, repoints CURRENT, and
// deletes the superseded log, so a commit costs O(new blocks) amortized
// and the manifest stays O(live state) on disk.
//
// Read path: Scan replays every readable row in global append order with
// its stable row id (row ids never shift; quarantined blocks leave gaps).
// Uncommitted-but-written blocks and the open in-memory block are
// included, so a Scan immediately after Append sees everything.
//
// Open runs recovery unconditionally: it replays the log CURRENT names
// (snapshot, then every edit whose CRC and chain link verify); see
// RecoveryReport. Reopening a recovered store without writing is
// read-only -- no files are created or modified except a tail
// truncation cutting a torn append to a segment or to the manifest log.
//
// Thread model: externally synchronized (single logical writer), like the
// stream engine. No internal locks.
// -------------------------------------------------------------------------
class Store {
 public:
  // Opens (creating if absent) the store in `dir`, running recovery.
  // `vfs` may be null for DefaultVfs(). Fails only when the directory is
  // unusable or I/O fails during recovery itself -- corrupt contents are
  // a report, not an error.
  static StatusOr<std::unique_ptr<Store>> Open(Vfs* vfs, std::string dir,
                                               StoreOptions options = {});

  // Public so Open() can std::make_unique; use Open(), which validates
  // options and runs recovery before handing the store out.
  Store(Vfs* vfs, std::string dir, StoreOptions options);

  Store(const Store&) = delete;
  Store& operator=(const Store&) = delete;

  [[nodiscard]] Status Append(const StRecord& rec);
  // Seals the open block, fsyncs segment data, appends the next
  // manifest generation to the log (or snapshots it into a new log).
  // No-op when nothing changed since the last commit.
  [[nodiscard]] Status Commit();
  // Commit + close the segment writer. The destructor does NOT commit:
  // dropping a store loses uncommitted appends, exactly like a crash.
  [[nodiscard]] Status Close();

  // Deterministic maintenance pass: rewrites every rolled segment that
  // holds quarantined bytes, dropping the dead blocks and tombstoning
  // their verdicts, then commits a new manifest generation (always a
  // snapshot: offsets move and verdicts change in place) and completes
  // each rewrite with an atomic rename. Crash-safe at every I/O op:
  // recovery serves either the pre- or the post-compaction generation
  // bit-identically (the NNNNNN.seg.cmp roll-forward in Recover()
  // finishes or discards interrupted renames). The active tail segment is
  // never touched. After a non-crash I/O error the in-memory state may be
  // ahead of disk -- reopen the store, as with any mid-scan DataLoss.
  [[nodiscard]] Status Compact(CompactionReport* report);

  // Calls `fn(row_id, record)` for every readable row in row-id order.
  [[nodiscard]] Status Scan(
      const std::function<void(uint64_t, const StRecord&)>& fn) const;

  [[nodiscard]] const RecoveryReport& recovery() const { return recovery_; }
  [[nodiscard]] uint64_t manifest_gen() const { return manifest_gen_; }
  // Total rows ever appended, including rows lost to quarantine.
  [[nodiscard]] uint64_t rows() const { return next_row_; }
  [[nodiscard]] uint64_t rows_readable() const;
  [[nodiscard]] const std::string& dir() const { return dir_; }
  [[nodiscard]] const std::string& field_name() const { return field_name_; }
  // Segment files 0..num_segments-1 exist (what the next manifest says).
  [[nodiscard]] uint32_t num_segments() const { return ComputeNumSegments(); }
  [[nodiscard]] BlockCache::Stats cache_stats() const {
    return cache_->GetStats();
  }

  // Surfaces recovery verdicts into a stream-side quarantine ledger
  // (reasons kStoreCorruptBlock / kStoreTornTail), seq = first lost row.
  void AppendQuarantineTo(stream::QuarantineLedger* ledger) const;

 private:
  [[nodiscard]] Status Recover();
  [[nodiscard]] Status RollForwardCompaction(const Manifest& manifest,
                                             bool have_manifest,
                                             const std::string& name);
  [[nodiscard]] Status EnsureWriter();
  [[nodiscard]] Status SealOpenBlock();
  // Publishes manifest gen+1 from the in-memory state (the commit tail
  // shared by Commit and Compact): an edit record appended to the live
  // log, or -- with `snapshot`, without a live log, or when the edit
  // would grow the log past kLogSnapshotMultiple times its snapshot -- a
  // new log (WriteSnapshot).
  [[nodiscard]] Status PublishManifest(bool snapshot);
  [[nodiscard]] Status WriteSnapshot(ManifestRecordHead head);
  // Removes every manifest log but the live one (crash debris, or logs a
  // snapshot superseded).
  [[nodiscard]] Status RemoveStaleLogs();
  [[nodiscard]] uint32_t ComputeNumSegments() const;
  [[nodiscard]] Status ScanEntries(
      const std::vector<BlockEntry>& entries,
      const std::function<void(uint64_t, const StRecord&)>& fn) const;
  void CountRecovered(const BlockEntry& entry);
  void Quarantine(QuarantinedBlockEntry q);

  Vfs* vfs_;
  std::string dir_;
  StoreOptions options_;
  std::string field_name_;

  // Out-of-core read path: verified-block cache + bounded segment reader
  // (mutable: Scan() is logically const but warms the cache and rotates
  // read handles; the store is externally synchronized).
  std::unique_ptr<BlockCache> cache_;
  mutable std::unique_ptr<BlockReader> reader_;

  // Write-path counters, resolved once at construction (detached no-op
  // handles without a metrics sink).
  obs::Counter append_records_metric_;
  obs::Counter append_blocks_metric_;
  obs::Counter append_bytes_metric_;
  obs::Counter commit_manifests_metric_;

  // Committed state (what the live log replays to).
  std::vector<BlockEntry> committed_;
  std::vector<QuarantinedBlockEntry> quarantined_;
  uint64_t manifest_gen_ = 0;
  // quarantined_[0, logged_quarantines_) is in the log; the rest are
  // recovery's new verdicts, which the next edit carries.
  size_t logged_quarantines_ = 0;

  // The live manifest log (MANIFEST-<log_gen_>), appended to by Commit.
  std::unique_ptr<WritableFile> log_;  // lazily opened
  uint64_t log_gen_ = 0;  // 0: no live log, the next commit snapshots
  uint64_t log_bytes_ = 0;
  uint64_t snapshot_bytes_ = 0;  // log header + snapshot record
  uint32_t log_crc_ = 0;         // frame CRC of the log's last record
  std::vector<uint64_t> stale_logs_;  // removed by the next commit

  // Uncommitted state.
  // Set when recovery changed what the next manifest must say (tail
  // blocks adopted, new quarantines, truncation) even with no new appends.
  bool dirty_ = false;
  // Sealed + written (or adopted from the tail), not yet manifested.
  std::vector<BlockEntry> pending_;
  ColumnarBlock open_block_;         // in-memory, not yet sealed
  uint64_t open_row_start_ = 0;
  uint64_t next_row_ = 0;
  std::vector<SensorId> sensor_scratch_;  // SensorRowsOf's buffer, reused

  // Current segment append position.
  std::unique_ptr<SegmentWriter> writer_;  // lazily opened
  // A segment file was opened (possibly created) since the directory was
  // last synced: its entry must be durable before a record references it.
  bool segment_entry_unsynced_ = false;
  uint32_t current_segment_ = 0;
  uint64_t segment_size_ = 0;    // valid bytes in current segment
  uint32_t segment_blocks_ = 0;  // blocks in current segment

  RecoveryReport recovery_;
};

}  // namespace store
}  // namespace sidq
