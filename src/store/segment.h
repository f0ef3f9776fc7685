#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/status.h"
#include "core/statusor.h"
#include "store/format.h"
#include "store/vfs.h"

namespace sidq {
namespace store {

// Appends checksummed columnar blocks to one NNNNNN.seg file. The writer
// never overwrites: a segment only ever grows, and only Sync() makes the
// growth crash-durable (the store syncs data files before committing a
// manifest that references them).
class SegmentWriter {
 public:
  // Opens segment `segment` in `dir` for appending. `existing_size` and
  // `existing_blocks` describe what the manifest already accounts for when
  // reopening a recovered store (0/0 for a fresh segment).
  static StatusOr<std::unique_ptr<SegmentWriter>> Open(
      Vfs* vfs, const std::string& dir, uint32_t segment,
      uint64_t existing_size, uint32_t existing_blocks);

  // Encodes and appends `block`; fills `entry` with the block's location
  // (segment, index, offset, length, crc). Row bookkeeping (row_start,
  // row_count, sensor_rows) is the store's job.
  [[nodiscard]] Status AppendBlock(const ColumnarBlock& block,
                                   BlockEntry* entry);

  [[nodiscard]] Status Sync() { return file_->Sync(); }
  [[nodiscard]] Status Close() { return file_->Close(); }

  [[nodiscard]] uint32_t segment() const { return segment_; }
  [[nodiscard]] uint64_t offset() const { return offset_; }
  [[nodiscard]] uint32_t num_blocks() const { return num_blocks_; }

  // Public so Open() can std::make_unique; use Open(), which resolves the
  // segment path and opens the file in append mode.
  SegmentWriter(std::unique_ptr<WritableFile> file, uint32_t segment,
                uint64_t offset, uint32_t num_blocks)
      : file_(std::move(file)),
        segment_(segment),
        offset_(offset),
        num_blocks_(num_blocks) {}

 private:
  std::unique_ptr<WritableFile> file_;
  uint32_t segment_;
  uint64_t offset_;      // current append position
  uint32_t num_blocks_;  // blocks written so far (next block's index)
};

// One block located by BlockReader::TailScan (tail recovery).
struct ScannedBlock {
  uint32_t index = 0;
  uint64_t offset = 0;
  uint64_t length = 0;
  uint32_t crc = 0;
  BlockView block;  // into the read's bytes: valid during the callback only
};

}  // namespace store
}  // namespace sidq
