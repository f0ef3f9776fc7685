#include "store/store.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace sidq {
namespace store {

namespace {

// Per-sensor row counts of a block whose sensor ids the caller copied
// into `sensors` (a buffer reused across blocks), sensor-ascending: one
// sort, then a run-length pass into one allocation of exactly the
// output's size.
std::vector<std::pair<SensorId, uint32_t>> SensorRowsOf(
    std::vector<SensorId>* sensors) {
  std::sort(sensors->begin(), sensors->end());
  size_t runs = 0;
  for (size_t i = 0; i < sensors->size(); ++i) {
    runs += i == 0 || (*sensors)[i] != (*sensors)[i - 1];
  }
  std::vector<std::pair<SensorId, uint32_t>> out;
  out.reserve(runs);
  for (const SensorId sensor : *sensors) {
    if (out.empty() || out.back().first != sensor) out.emplace_back(sensor, 0);
    ++out.back().second;
  }
  return out;
}

}  // namespace

std::string RecoveryReport::Summary() const {
  if (!tail_truncated && quarantined.empty() && chain_intact &&
      manifest_bytes_discarded == 0) {
    return "clean: gen " + std::to_string(manifest_gen) + ", " +
           std::to_string(blocks_verified) + " blocks verified, " +
           std::to_string(rows_recovered) + " rows";
  }
  std::string out = "degraded: gen " + std::to_string(manifest_gen) + ", " +
                    std::to_string(rows_recovered) + " rows recovered, " +
                    std::to_string(rows_lost) + " lost in " +
                    std::to_string(quarantined.size()) +
                    " quarantined block(s)";
  if (tail_truncated) {
    out += ", torn tail cut at segment " + std::to_string(tail_segment) +
           " (" + std::to_string(tail_bytes_discarded) + " bytes, " +
           BlockDefectName(tail_defect) + ")";
  }
  if (manifest_bytes_discarded > 0) {
    out += ", torn manifest record cut (" +
           std::to_string(manifest_bytes_discarded) + " bytes)";
  }
  if (!chain_intact) out += ", manifest chain broken";
  return out;
}

Store::Store(Vfs* vfs, std::string dir, StoreOptions options)
    : vfs_(vfs), dir_(std::move(dir)), options_(std::move(options)) {
  cache_ = std::make_unique<BlockCache>(options_.cache_bytes,
                                        options_.obs.metrics);
  reader_ = std::make_unique<BlockReader>(vfs_, dir_, cache_.get());
  if (obs::MetricsRegistry* m = options_.obs.metrics) {
    append_records_metric_ = m->counter("store.append.records");
    append_blocks_metric_ = m->counter("store.append.blocks");
    append_bytes_metric_ = m->counter("store.append.bytes");
    commit_manifests_metric_ = m->counter("store.commit.manifests");
  }
}

StatusOr<std::unique_ptr<Store>> Store::Open(Vfs* vfs, std::string dir,
                                             StoreOptions options) {
  if (vfs == nullptr) vfs = DefaultVfs();
  if (options.block_records == 0 || options.segment_target_blocks == 0) {
    return Status::InvalidArgument(
        "block_records and segment_target_blocks must be positive");
  }
  // A shape the format cannot read back or address is refused here, not
  // discovered by the first Scan as a quarantined block: each block within
  // kMaxBlockRecords, a segment's block count within BlockEntry::index's
  // 32 bits and a full segment's bytes within the cache key's offset bits.
  if (options.block_records > kMaxBlockRecords) {
    return Status::InvalidArgument(
        std::string("block_records ") +
        std::to_string(options.block_records) +
        " exceeds the " + std::to_string(kMaxBlockRecords) +
        " records one block can hold");
  }
  const uint64_t block_bytes = EncodedBlockBytes(options.block_records);
  if (options.segment_target_blocks > std::numeric_limits<uint32_t>::max() ||
      options.segment_target_blocks >
          (uint64_t{1} << BlockCache::kOffsetBits) / block_bytes) {
    return Status::InvalidArgument(
        std::string("segment_target_blocks ") +
        std::to_string(options.segment_target_blocks) + " of " +
        std::to_string(block_bytes) +
        "-byte blocks exceeds what a segment can address");
  }
  auto store =
      std::make_unique<Store>(vfs, std::move(dir), std::move(options));
  SIDQ_RETURN_IF_ERROR(store->Recover());
  if (obs::MetricsRegistry* m = store->options_.obs.metrics) {
    const RecoveryReport& r = store->recovery_;
    m->counter("store.recovery.blocks_verified")
        .Increment(static_cast<int64_t>(r.blocks_verified));
    m->counter("store.recovery.blocks_quarantined")
        .Increment(static_cast<int64_t>(r.quarantined.size()));
    m->counter("store.recovery.rows_recovered")
        .Increment(static_cast<int64_t>(r.rows_recovered));
    m->counter("store.recovery.rows_lost")
        .Increment(static_cast<int64_t>(r.rows_lost));
    if (r.tail_truncated) m->counter("store.recovery.torn_tail").Increment();
  }
  if (obs::Tracer* t = store->options_.obs.tracer) {
    t->Instant(obs::kProcessKey, "store.open", "store", nullptr,
               store->recovery_.Summary());
  }
  return store;
}

Status Store::Recover() {
  SIDQ_RETURN_IF_ERROR(vfs_->CreateDir(dir_));
  std::vector<std::string> names;
  {
    StatusOr<std::vector<std::string>> listing = vfs_->ListDir(dir_);
    if (listing.ok()) {
      names = std::move(listing).value();
    } else if (listing.status().code() != StatusCode::kNotFound) {
      return listing.status();
    }
  }
  std::vector<uint64_t> log_gens;
  std::vector<uint32_t> disk_segments;
  std::vector<std::string> compaction_temps;  // NNNNNN.seg.cmp
  for (const std::string& name : names) {
    uint64_t gen = 0;
    uint32_t seg = 0;
    if (ParseManifestFileName(name, &gen)) {
      log_gens.push_back(gen);
    } else if (ParseSegmentFileName(name, &seg)) {
      disk_segments.push_back(seg);
    } else if (name.size() > 4 &&
               name.compare(name.size() - 4, 4, ".cmp") == 0 &&
               ParseSegmentFileName(name.substr(0, name.size() - 4), &seg)) {
      compaction_temps.push_back(name);
    }
    // Anything else (CURRENT, stray *.tmp from an interrupted atomic
    // publish) is not data.
  }
  std::sort(log_gens.begin(), log_gens.end());
  std::sort(disk_segments.begin(), disk_segments.end());

  // 1. Choose the manifest log: the one CURRENT names when its snapshot
  //    carries CURRENT's CRC, else the highest-numbered log whose
  //    snapshot verifies. Replay applies every edit whose frame CRC and
  //    chain link verify and stops at the first that does not. A text
  //    manifest (store format 1) fails the open with its reason.
  uint64_t log_size = 0;
  auto replay = [&](uint64_t gen) -> StatusOr<ManifestLogReplay> {
    SIDQ_ASSIGN_OR_RETURN(
        std::string bytes,
        // sidq: allow-raw-read(the manifest log is a bounded control file)
        vfs_->ReadFile(dir_ + "/" + ManifestFileName(gen)));
    log_size = bytes.size();
    return ReplayManifestLog(bytes);
  };
  auto unreadable_format = [](const StatusOr<ManifestLogReplay>& r) {
    return !r.ok() && r.status().code() == StatusCode::kFailedPrecondition;
  };
  std::optional<ManifestLogReplay> chosen;
  const std::string current_path = dir_ + "/" + kCurrentFileName;
  if (vfs_->Exists(current_path)) {
    StatusOr<std::string> current =
        // sidq: allow-raw-read(CURRENT is a one-line control file)
        vfs_->ReadFile(current_path);
    uint64_t gen = 0;
    uint32_t crc = 0;
    if (current.ok() && ParseCurrent(*current, &gen, &crc).ok()) {
      StatusOr<ManifestLogReplay> r = replay(gen);
      if (unreadable_format(r)) return r.status();
      if (r.ok() && r->snapshot_crc == crc) {
        chosen = std::move(r).value();
        log_gen_ = gen;
        recovery_.current_valid = true;
      }
    }
  }
  for (auto it = log_gens.rbegin(); !chosen && it != log_gens.rend(); ++it) {
    StatusOr<ManifestLogReplay> r = replay(*it);
    if (unreadable_format(r)) return r.status();
    if (r.ok()) {
      chosen = std::move(r).value();
      log_gen_ = *it;
    }
  }
  const bool have_manifest = chosen.has_value();
  Manifest manifest;
  if (have_manifest) {
    manifest = std::move(chosen->state);
    manifest_gen_ = manifest.gen;
    log_bytes_ = chosen->valid_bytes;
    snapshot_bytes_ = chosen->snapshot_bytes;
    log_crc_ = chosen->last_crc;
    recovery_.chain_links_verified = chosen->edits;
    recovery_.chain_intact = chosen->chain_intact;
    // 2. Cut the log after its last replayed record, as the tail scan
    //    cuts a segment, so the next edit extends a verified chain.
    if (chosen->valid_bytes < log_size) {
      SIDQ_RETURN_IF_ERROR(vfs_->Truncate(
          dir_ + "/" + ManifestFileName(log_gen_), chosen->valid_bytes));
      recovery_.manifest_bytes_discarded = log_size - chosen->valid_bytes;
    }
    // Without a valid CURRENT the next commit snapshots into a new log
    // and repoints CURRENT at it.
    if (!recovery_.current_valid) log_gen_ = 0;
    chosen.reset();
  }
  for (uint64_t gen : log_gens) {
    if (gen != log_gen_) stale_logs_.push_back(gen);
  }
  recovery_.manifest_gen = manifest_gen_;

  // 2.5 Compaction roll-forward. A crash between a compaction's manifest
  //     commit and its segment rename leaves NNNNNN.seg.cmp beside a
  //     stale NNNNNN.seg whose layout the chosen manifest no longer
  //     describes. When every live entry the chosen manifest holds for
  //     that segment verifies against the .cmp bytes, the rename is
  //     completed here; any other .cmp is a dead intermediate of an
  //     uncommitted pass and is removed. Either way recovery then serves
  //     exactly one committed generation -- never a blend.
  for (const std::string& name : compaction_temps) {
    SIDQ_RETURN_IF_ERROR(RollForwardCompaction(manifest, have_manifest, name));
  }

  field_name_ = have_manifest ? manifest.field_name : options_.field_name;
  next_row_ = manifest.rows;

  // Per-segment accounting: bytes and blocks the manifest explains, so the
  // tail scan knows where unexplained bytes begin.
  std::map<uint32_t, std::pair<uint64_t, uint32_t>> accounted;  // end, blocks
  auto account = [&](uint32_t segment, uint64_t offset, uint64_t length,
                     uint32_t index) {
    auto& [end, blocks] = accounted[segment];
    end = std::max(end, offset + length);
    blocks = std::max(blocks, index + 1);
  };

  // 3. Carried quarantine verdicts stay visible across reopens.
  for (const QuarantinedBlockEntry& q : manifest.quarantined) {
    account(q.segment, q.offset, q.length, q.index);
    Quarantine(q);
  }
  logged_quarantines_ = quarantined_.size();

  // 4. CRC-verify every manifested block against both its self-checksum
  //    and its manifest entry; defects are quarantined, never dropped.
  //    Bounded reads through the block reader: verified blocks land in
  //    the cache (budget-evicted), so recovery RSS stays flat on stores
  //    far larger than RAM. A missing/unreadable segment verdicts as
  //    short-header, exactly like the empty file it effectively is.
  for (const BlockEntry& entry : manifest.blocks) {
    account(entry.segment, entry.offset, entry.length, entry.index);
    BlockDefect defect = BlockDefect::kNone;
    CachedBlock block;
    SIDQ_RETURN_IF_ERROR(reader_->Read(
        entry, BlockReader::MissingPolicy::kDefect, &defect, &block));
    if (defect == BlockDefect::kNone) {
      committed_.push_back(entry);
      CountRecovered(entry);
      ++recovery_.blocks_verified;
    } else {
      QuarantinedBlockEntry q;
      q.segment = entry.segment;
      q.index = entry.index;
      q.defect = defect;
      q.offset = entry.offset;
      q.length = entry.length;
      q.row_start = entry.row_start;
      q.row_count = entry.row_count;
      q.sensor_rows = entry.sensor_rows;
      Quarantine(std::move(q));
      dirty_ = true;
    }
  }

  // 5. Tail scan: segments at or past the last manifested one may hold
  //    blocks appended after the last commit. They are self-describing;
  //    recover them until the first defect, cut the torn tail there, and
  //    drop (with a report) any segment past a torn point -- its row ids
  //    would be unknowable. Adopted blocks are pending: the next commit's
  //    edit record manifests them.
  uint32_t first_tail_segment = 0;
  if (have_manifest && manifest.num_segments > 0) {
    first_tail_segment = manifest.num_segments - 1;
  }
  bool torn = false;
  for (uint32_t segment : disk_segments) {
    if (segment < first_tail_segment) continue;
    const std::string path = dir_ + "/" + SegmentFileName(segment);
    if (torn) {
      SIDQ_RETURN_IF_ERROR(vfs_->Remove(path));
      reader_->Invalidate(segment);
      ++recovery_.orphan_segments_removed;
      dirty_ = true;
      continue;
    }
    StatusOr<uint64_t> size_or = reader_->SegmentSize(segment);
    if (!size_or.ok()) continue;  // vanished under us: nothing to adopt
    const uint64_t size = *size_or;
    const auto [start, start_index] = accounted[segment];
    if (start > size) continue;  // already quarantined as short
    // Adopted blocks are read one at a time, so even a never-committed
    // store recovers in bounded memory.
    SIDQ_ASSIGN_OR_RETURN(
        BlockReader::TailScanResult scan,
        reader_->TailScan(segment, start, start_index, [&](ScannedBlock&& b) {
          BlockEntry entry;
          entry.segment = segment;
          entry.index = b.index;
          entry.offset = b.offset;
          entry.length = b.length;
          entry.crc = b.crc;
          entry.row_start = next_row_;
          entry.row_count = static_cast<uint32_t>(b.block.size());
          sensor_scratch_.resize(b.block.size());
          for (size_t i = 0; i < b.block.size(); ++i) {
            sensor_scratch_[i] = b.block.sensor(i);
          }
          entry.sensor_rows = SensorRowsOf(&sensor_scratch_);
          next_row_ += entry.row_count;
          account(segment, entry.offset, entry.length, entry.index);
          CountRecovered(entry);
          pending_.push_back(std::move(entry));
          ++recovery_.tail_blocks_recovered;
          dirty_ = true;
        }));
    if (scan.defect != BlockDefect::kNone && scan.valid_bytes < size) {
      SIDQ_RETURN_IF_ERROR(vfs_->Truncate(path, scan.valid_bytes));
      reader_->Invalidate(segment);
      recovery_.tail_truncated = true;
      recovery_.tail_segment = segment;
      recovery_.tail_bytes_discarded = size - scan.valid_bytes;
      recovery_.tail_defect = scan.defect;
      torn = true;
      dirty_ = true;
    }
  }

  // 6. Position the (lazily opened) writer after the last explained byte.
  if (!accounted.empty()) {
    const auto& [segment, state] = *accounted.rbegin();
    current_segment_ = segment;
    segment_size_ = state.first;
    segment_blocks_ = state.second;
    if (recovery_.tail_truncated && recovery_.tail_segment == segment) {
      // The truncation cut below the accounted end when a manifested
      // block near the tail was itself the defect; trust the file.
      StatusOr<uint64_t> size =
          vfs_->FileSize(dir_ + "/" + SegmentFileName(segment));
      if (size.ok()) segment_size_ = std::min(segment_size_, *size);
    }
    if (segment_blocks_ >= options_.segment_target_blocks) {
      ++current_segment_;
      segment_size_ = 0;
      segment_blocks_ = 0;
    }
  }
  open_row_start_ = next_row_;
  return Status::OK();
}

Status Store::RollForwardCompaction(const Manifest& manifest,
                                    bool have_manifest,
                                    const std::string& name) {
  const std::string cmp_path = dir_ + "/" + name;
  uint32_t seg = 0;
  if (!ParseSegmentFileName(name.substr(0, name.size() - 4), &seg)) {
    return Status::Internal("unparseable compaction temp " + name);
  }
  bool adopt = false;
  // Adoption needs the chosen manifest to actually describe the .cmp
  // layout: a committed generation, a rolled (never-tail) segment it still
  // references, and every live block entry verifying byte-for-byte
  // against the temp. The pre-compaction generation fails the verify
  // (offsets moved), so a crash before the manifest commit rolls back.
  if (have_manifest && manifest.num_segments > 0 &&
      seg < manifest.num_segments - 1) {
    bool referenced = false;
    for (const QuarantinedBlockEntry& q : manifest.quarantined) {
      if (q.segment == seg) {
        referenced = true;
        break;
      }
    }
    for (const BlockEntry& b : manifest.blocks) {
      if (b.segment == seg) {
        referenced = true;
        break;
      }
    }
    if (referenced) {
      StatusOr<std::unique_ptr<RandomAccessFile>> file =
          vfs_->NewRandomAccessFile(cmp_path);
      if (file.ok()) {
        adopt = true;
        for (const BlockEntry& b : manifest.blocks) {
          if (b.segment != seg) continue;
          BlockDefect defect = BlockDefect::kNone;
          const Status st = BlockReader::VerifyAt(file->get(), b, &defect,
                                                  /*out=*/nullptr);
          if (!st.ok() || defect != BlockDefect::kNone) {
            adopt = false;
            break;
          }
        }
      }
    }
  }
  if (adopt) {
    SIDQ_RETURN_IF_ERROR(
        vfs_->Rename(cmp_path, dir_ + "/" + SegmentFileName(seg)));
    SIDQ_RETURN_IF_ERROR(vfs_->SyncDir(dir_));
    reader_->Invalidate(seg);
  } else {
    SIDQ_RETURN_IF_ERROR(vfs_->Remove(cmp_path));
    SIDQ_RETURN_IF_ERROR(vfs_->SyncDir(dir_));
  }
  return Status::OK();
}

void Store::CountRecovered(const BlockEntry& entry) {
  recovery_.rows_recovered += entry.row_count;
  for (const auto& [sensor, count] : entry.sensor_rows) {
    recovery_.sensor_quality[sensor].rows_recovered += count;
  }
}

void Store::Quarantine(QuarantinedBlockEntry q) {
  recovery_.rows_lost += q.row_count;
  for (const auto& [sensor, count] : q.sensor_rows) {
    recovery_.sensor_quality[sensor].rows_lost += count;
  }
  recovery_.quarantined.push_back(q);
  quarantined_.push_back(std::move(q));
}

Status Store::EnsureWriter() {
  if (writer_ != nullptr) return Status::OK();
  SIDQ_ASSIGN_OR_RETURN(
      writer_, SegmentWriter::Open(vfs_, dir_, current_segment_,
                                   segment_size_, segment_blocks_));
  segment_entry_unsynced_ = true;
  return Status::OK();
}

Status Store::Append(const StRecord& rec) {
  open_block_.Add(rec);
  ++next_row_;
  append_records_metric_.Increment();
  if (open_block_.size() >= options_.block_records) {
    return SealOpenBlock();
  }
  return Status::OK();
}

Status Store::SealOpenBlock() {
  if (open_block_.empty()) return Status::OK();
  SIDQ_RETURN_IF_ERROR(EnsureWriter());
  BlockEntry entry;
  SIDQ_RETURN_IF_ERROR(writer_->AppendBlock(open_block_, &entry));
  entry.row_start = open_row_start_;
  entry.row_count = static_cast<uint32_t>(open_block_.size());
  sensor_scratch_.assign(open_block_.sensor.begin(), open_block_.sensor.end());
  entry.sensor_rows = SensorRowsOf(&sensor_scratch_);
  append_blocks_metric_.Increment();
  append_bytes_metric_.Increment(static_cast<int64_t>(entry.length));
  pending_.push_back(std::move(entry));
  segment_size_ = writer_->offset();
  segment_blocks_ = writer_->num_blocks();
  open_row_start_ = next_row_;
  open_block_.Clear();
  if (segment_blocks_ >= options_.segment_target_blocks) {
    SIDQ_RETURN_IF_ERROR(writer_->Sync());
    SIDQ_RETURN_IF_ERROR(writer_->Close());
    writer_.reset();
    ++current_segment_;
    segment_size_ = 0;
    segment_blocks_ = 0;
  }
  return Status::OK();
}

uint32_t Store::ComputeNumSegments() const {
  // committed_ and pending_ are each in row order, which is segment
  // order, so their last blocks sit in their highest segments.
  uint32_t n = 0;
  if (!committed_.empty()) n = committed_.back().segment + 1;
  if (!pending_.empty()) n = std::max(n, pending_.back().segment + 1);
  for (const QuarantinedBlockEntry& q : quarantined_) {
    n = std::max(n, q.segment + 1);
  }
  if (writer_ != nullptr || segment_blocks_ > 0) {
    n = std::max(n, current_segment_ + 1);
  }
  return n;
}

Status Store::Commit() {
  SIDQ_RETURN_IF_ERROR(SealOpenBlock());
  if (pending_.empty() && !dirty_ && manifest_gen_ > 0) {
    return Status::OK();  // nothing new since the last commit
  }
  // Data before metadata: every byte a manifest references must be
  // durable before the manifest exists. Rolled segments were synced at
  // roll time; only the live writer still has volatile bytes, and only a
  // segment opened since the last directory sync a volatile entry.
  if (writer_ != nullptr) {
    SIDQ_RETURN_IF_ERROR(writer_->Sync());
  }
  if (segment_entry_unsynced_) {
    SIDQ_RETURN_IF_ERROR(vfs_->SyncDir(dir_));
    segment_entry_unsynced_ = false;
  }
  return PublishManifest(/*snapshot=*/false);
}

Status Store::PublishManifest(bool snapshot) {
  ManifestRecordHead head;
  head.gen = manifest_gen_ + 1;
  head.prev_crc = log_crc_;
  head.field_name = field_name_;
  head.num_segments = ComputeNumSegments();
  head.rows = next_row_;
  Status st;
  snapshot = snapshot || log_gen_ == 0;
  if (!snapshot) {
    std::string edit;
    const uint32_t crc = AppendManifestRecord(
        &edit, head, {pending_},
        std::span<const QuarantinedBlockEntry>(quarantined_)
            .subspan(logged_quarantines_));
    if (log_bytes_ + edit.size() <= kLogSnapshotMultiple * snapshot_bytes_) {
      // One append and one fsync: the edit is the whole commit.
      if (log_ == nullptr) {
        StatusOr<std::unique_ptr<WritableFile>> log = vfs_->NewWritableFile(
            dir_ + "/" + ManifestFileName(log_gen_), WriteMode::kAppend);
        st = log.status();
        if (st.ok()) log_ = std::move(log).value();
      }
      if (st.ok()) st = log_->Append(edit);
      if (st.ok()) st = log_->Sync();
      if (st.ok()) {
        log_bytes_ += edit.size();
        log_crc_ = crc;
      }
    } else {
      snapshot = true;
    }
  }
  if (snapshot) st = WriteSnapshot(head);
  if (!st.ok()) {
    // The log may now end in part of a record, and CURRENT may name
    // either log: never append to one again. The next commit writes a
    // fresh snapshot and repoints CURRENT.
    if (log_gen_ != 0) stale_logs_.push_back(log_gen_);
    log_.reset();
    log_gen_ = 0;
    return st;
  }
  committed_.insert(committed_.end(),
                    std::make_move_iterator(pending_.begin()),
                    std::make_move_iterator(pending_.end()));
  pending_.clear();
  logged_quarantines_ = quarantined_.size();
  manifest_gen_ = head.gen;
  dirty_ = false;
  commit_manifests_metric_.Increment();
  if (obs::Tracer* t = options_.obs.tracer) {
    t->Instant(obs::kProcessKey, "store.commit", "store", nullptr,
               "gen=" + std::to_string(manifest_gen_) +
                   " blocks=" + std::to_string(committed_.size()) +
                   " rows=" + std::to_string(next_row_));
  }
  return RemoveStaleLogs();
}

Status Store::WriteSnapshot(ManifestRecordHead head) {
  head.kind = ManifestRecordKind::kSnapshot;
  std::string log = ManifestLogHeader();
  const uint32_t crc =
      AppendManifestRecord(&log, head, {committed_, pending_}, quarantined_);
  // The new log, directory entry included, is durable before CURRENT
  // names it. A crash before the repoint leaves CURRENT on the old log
  // and this file as debris; one after it leaves the old log as debris.
  // Recovery serves the generation CURRENT names either way, and the
  // next commit removes the debris.
  SIDQ_ASSIGN_OR_RETURN(
      std::unique_ptr<WritableFile> file,
      vfs_->NewWritableFile(dir_ + "/" + ManifestFileName(head.gen),
                            WriteMode::kTruncate));
  SIDQ_RETURN_IF_ERROR(file->Append(log));
  SIDQ_RETURN_IF_ERROR(file->Sync());
  SIDQ_RETURN_IF_ERROR(vfs_->SyncDir(dir_));
  SIDQ_RETURN_IF_ERROR(AtomicWriteFile(vfs_, dir_ + "/" + kCurrentFileName,
                                       SerializeCurrent(head.gen, crc)));
  if (log_gen_ != 0) stale_logs_.push_back(log_gen_);
  log_ = std::move(file);
  log_gen_ = head.gen;
  log_bytes_ = snapshot_bytes_ = log.size();
  log_crc_ = crc;
  return Status::OK();
}

Status Store::RemoveStaleLogs() {
  if (stale_logs_.empty()) return Status::OK();
  for (uint64_t gen : stale_logs_) {
    if (gen == log_gen_) continue;
    // A log a crash or an earlier pass already removed is not an error.
    const Status st = vfs_->Remove(dir_ + "/" + ManifestFileName(gen));
    if (!st.ok() && st.code() != StatusCode::kNotFound) return st;
  }
  stale_logs_.clear();
  return vfs_->SyncDir(dir_);
}

Status Store::Compact(CompactionReport* report) {
  CompactionReport local;
  // Seal and publish everything pending first: compaction rewrites only
  // committed state, and the pre-compaction generation must be complete
  // on disk so a crash anywhere in the pass recovers it exactly.
  SIDQ_RETURN_IF_ERROR(Commit());
  local.manifest_gen = manifest_gen_;

  // Eligible: rolled segments holding quarantined bytes. The active tail
  // segment (highest-numbered) is never rewritten -- recovery's tail-scan
  // and adoption rules own it, and rewriting it would race the writer.
  const uint32_t num_segments = ComputeNumSegments();
  const uint32_t first_tail = num_segments == 0 ? 0 : num_segments - 1;
  std::set<uint32_t> targets;
  for (const QuarantinedBlockEntry& q : quarantined_) {
    if (q.length > 0 && q.segment < first_tail) targets.insert(q.segment);
  }
  if (targets.empty()) {
    if (report != nullptr) *report = local;
    return Status::OK();
  }

  // Phase 1: write each replacement NNNNNN.seg.cmp -- live blocks copied
  // verbatim in row order -- and make the temps durable. Nothing the live
  // manifest references is touched, so a crash anywhere in this phase
  // leaves dead temps that recovery's roll-forward check removes.
  std::vector<std::pair<size_t, uint64_t>> relocations;  // index, new offset
  for (uint32_t seg : targets) {
    SIDQ_ASSIGN_OR_RETURN(uint64_t old_size, reader_->SegmentSize(seg));
    SIDQ_ASSIGN_OR_RETURN(
        std::unique_ptr<WritableFile> out,
        vfs_->NewWritableFile(dir_ + "/" + SegmentFileName(seg) + ".cmp",
                              WriteMode::kTruncate));
    uint64_t new_offset = 0;
    for (size_t i = 0; i < committed_.size(); ++i) {
      const BlockEntry& entry = committed_[i];
      if (entry.segment != seg) continue;
      SIDQ_ASSIGN_OR_RETURN(
          std::string bytes,
          reader_->ReadRange(seg, entry.offset, entry.length));
      if (bytes.size() != entry.length) {
        return Status::DataLoss(SegmentFileName(seg) +
                                " truncated under compaction; reopen the "
                                "store to recover");
      }
      SIDQ_RETURN_IF_ERROR(out->Append(bytes));
      relocations.emplace_back(i, new_offset);
      new_offset += entry.length;
      ++local.blocks_rewritten;
    }
    SIDQ_RETURN_IF_ERROR(out->Sync());
    SIDQ_RETURN_IF_ERROR(out->Close());
    ++local.segments_compacted;
    local.bytes_reclaimed += old_size - new_offset;
  }
  SIDQ_RETURN_IF_ERROR(vfs_->SyncDir(dir_));

  // Phase 2: commit the post-compaction layout. Live entries take their
  // .cmp offsets; dropped quarantines become zero-length tombstones (the
  // verdict, row-id gap, and per-sensor loss survive -- only the bytes
  // go). Recovery from a crash before this publish serves the
  // pre-compaction generation; from one after it, the roll-forward
  // completes any rename below that didn't happen.
  for (const auto& [index, new_offset] : relocations) {
    committed_[index].offset = new_offset;
  }
  for (QuarantinedBlockEntry& q : quarantined_) {
    if (q.length > 0 && targets.count(q.segment) != 0) {
      q.offset = 0;
      q.length = 0;
      ++local.blocks_dropped;
    }
  }
  SIDQ_RETURN_IF_ERROR(PublishManifest(/*snapshot=*/true));
  local.manifest_gen = manifest_gen_;

  // Phase 3: complete each rewrite with an atomic rename, then drop every
  // stale handle and cached block of the rewritten segments.
  for (uint32_t seg : targets) {
    SIDQ_RETURN_IF_ERROR(
        vfs_->Rename(dir_ + "/" + SegmentFileName(seg) + ".cmp",
                     dir_ + "/" + SegmentFileName(seg)));
    reader_->Invalidate(seg);
  }
  SIDQ_RETURN_IF_ERROR(vfs_->SyncDir(dir_));

  if (obs::MetricsRegistry* m = options_.obs.metrics) {
    m->counter("store.compaction.passes").Increment();
    m->counter("store.compaction.segments")
        .Increment(static_cast<int64_t>(local.segments_compacted));
    m->counter("store.compaction.blocks_dropped")
        .Increment(static_cast<int64_t>(local.blocks_dropped));
    m->counter("store.compaction.bytes_reclaimed")
        .Increment(static_cast<int64_t>(local.bytes_reclaimed));
  }
  if (obs::Tracer* t = options_.obs.tracer) {
    t->Instant(obs::kProcessKey, "store.compact", "store", nullptr,
               "segments=" + std::to_string(local.segments_compacted) +
                   " dropped=" + std::to_string(local.blocks_dropped) +
                   " reclaimed=" + std::to_string(local.bytes_reclaimed) +
                   " gen=" + std::to_string(local.manifest_gen));
  }
  if (report != nullptr) *report = local;
  return Status::OK();
}

Status Store::Close() {
  SIDQ_RETURN_IF_ERROR(Commit());
  if (writer_ != nullptr) {
    SIDQ_RETURN_IF_ERROR(writer_->Close());
    writer_.reset();
  }
  if (log_ != nullptr) {
    SIDQ_RETURN_IF_ERROR(log_->Close());
    log_.reset();
  }
  return Status::OK();
}

Status Store::ScanEntries(
    const std::vector<BlockEntry>& entries,
    const std::function<void(uint64_t, const StRecord&)>& fn) const {
  // Every block flows through the bounded reader: a cache hit costs no
  // I/O, a miss reads exactly one block, and peak RSS is capped by the
  // cache budget plus the block under the cursor (held for the duration
  // of its rows, even if the cache evicts it meanwhile).
  for (const BlockEntry& entry : entries) {
    BlockDefect defect = BlockDefect::kNone;
    CachedBlock block;
    SIDQ_RETURN_IF_ERROR(reader_->Read(
        entry, BlockReader::MissingPolicy::kError, &defect, &block));
    if (defect != BlockDefect::kNone) {
      return Status::DataLoss(
          "block " + std::to_string(entry.index) + " in " +
          SegmentFileName(entry.segment) + " failed verification mid-scan (" +
          BlockDefectName(defect) + "); reopen the store to recover");
    }
    for (size_t i = 0; i < block.view.size(); ++i) {
      fn(entry.row_start + i, block.view.Record(i));
    }
  }
  return Status::OK();
}

Status Store::Scan(
    const std::function<void(uint64_t, const StRecord&)>& fn) const {
  // committed_ and pending_ are each row-ordered, and every pending row
  // id is greater than every committed one.
  SIDQ_RETURN_IF_ERROR(ScanEntries(committed_, fn));
  SIDQ_RETURN_IF_ERROR(ScanEntries(pending_, fn));
  for (size_t i = 0; i < open_block_.size(); ++i) {
    fn(open_row_start_ + i, open_block_.Record(i));
  }
  return Status::OK();
}

uint64_t Store::rows_readable() const {
  uint64_t rows = open_block_.size();
  for (const BlockEntry& b : committed_) rows += b.row_count;
  for (const BlockEntry& b : pending_) rows += b.row_count;
  return rows;
}

void Store::AppendQuarantineTo(stream::QuarantineLedger* ledger) const {
  for (const QuarantinedBlockEntry& q : recovery_.quarantined) {
    stream::QuarantineEntry entry;
    entry.seq = q.row_start;
    entry.sensor = kInvalidSensorId;
    entry.reason = stream::QuarantineReason::kStoreCorruptBlock;
    ledger->Add(entry);
  }
  if (recovery_.tail_truncated) {
    stream::QuarantineEntry entry;
    // The first row id that could have been lost to the torn tail: all
    // accounted rows are either recovered or quarantined above.
    entry.seq = recovery_.rows_recovered + recovery_.rows_lost;
    entry.sensor = kInvalidSensorId;
    entry.reason = stream::QuarantineReason::kStoreTornTail;
    ledger->Add(entry);
  }
}

}  // namespace store
}  // namespace sidq
