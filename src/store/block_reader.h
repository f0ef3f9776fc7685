#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "core/status.h"
#include "core/statusor.h"
#include "store/block_cache.h"
#include "store/format.h"
#include "store/segment.h"
#include "store/vfs.h"

namespace sidq {
namespace store {

// -------------------------------------------------------------------------
// BlockReader: the bounded-memory segment read path. Every segment byte
// the store reads flows through positional RandomAccessFile handles
// (pread on RealVfs), one block at a time, each straight into one fresh
// allocation. A block is CRC-verified in those bytes and its columns are
// served in place, so on a cache miss the allocation the read filled is
// the one the BlockCache keeps -- peak read-path RSS is bounded by the
// cache budget plus one in-flight block, regardless of segment or
// dataset size. sidq-lint R16 bans whole-segment Vfs::ReadFile in
// src/store/ outside this file so the load-everything scan path cannot
// creep back.
//
// Defect parity: the bounded ladder reproduces ParseBlockAt's verdicts on
// a whole file byte-for-byte. One read sized by the expected block length
// (the manifest's, or the previous block's in a tail scan) normally
// covers header and payload; the 16-byte header settles
// kShortHeader/kBadMagic/kBadVersion/kBadLength, and when the header's
// payload length reaches past that read the block is re-read at the
// header's length, so kShortPayload means the FILE is short, never that
// our read window was (the re-read rule
// StoreCacheTest.BoundedLadderMatchesWholeFileParse pins).
//
// Invalidation contract: after any mutation of a segment file (tail
// truncation, orphan removal, compaction rename) the caller must
// Invalidate(segment) before the next read -- cached blocks of
// rewritten offsets would be wrong, and a handle to a renamed-over file
// would read the old inode. Externally synchronized, like the Store that
// owns it.
// -------------------------------------------------------------------------
class BlockReader {
 public:
  // How Read treats a segment that cannot be opened or read at all.
  enum class MissingPolicy {
    kError,   // propagate the I/O error (scan path: fail loudly)
    kDefect,  // verdict kShortHeader, as if the file were empty
              // (recovery path: quarantine, never abort)
  };

  // `vfs` and `cache` are borrowed and must outlive the reader.
  BlockReader(const Vfs* vfs, std::string dir, BlockCache* cache);

  // Verified, cached read of a manifested block. On a cache hit the
  // block is served as-is (it was verified on insert). On a miss the
  // block is read into one allocation, run through the defect ladder,
  // cross-checked against the entry (crc/length/row_count mismatch =>
  // kManifestMismatch), and that allocation enters the cache when clean.
  // *defect receives the verdict; *out is set only when it is kNone.
  [[nodiscard]] Status Read(const BlockEntry& entry, MissingPolicy policy,
                            BlockDefect* defect, CachedBlock* out);

  // Runs the defect ladder + manifest cross-check at entry.offset of an
  // arbitrary handle (no cache): recovery's compaction roll-forward
  // verifies NNNNNN.seg.cmp contents with this before renaming. `out`
  // may be null when only the verdict matters.
  [[nodiscard]] static Status VerifyAt(RandomAccessFile* file,
                                       const BlockEntry& entry,
                                       BlockDefect* defect, CachedBlock* out);

  // Tail recovery without a manifest: walks self-describing blocks from
  // `start_offset`, calling `fn` for each valid block, stopping at the
  // first defect. valid_bytes is the offset of the first unexplained byte
  // (recovery truncates the file there); defect is what stopped the walk
  // (kNone for a clean run to EOF; kShortHeader / kShortPayload at EOF
  // are torn appends, anything else is corruption). One block is read
  // at a time, never the whole segment; a ScannedBlock's view is valid
  // only during its `fn` call.
  struct TailScanResult {
    uint64_t valid_bytes = 0;
    BlockDefect defect = BlockDefect::kNone;
  };
  [[nodiscard]] StatusOr<TailScanResult> TailScan(
      uint32_t segment, uint64_t start_offset, uint32_t start_index,
      const std::function<void(ScannedBlock&&)>& fn);

  // Verbatim bytes [offset, offset+length) of a segment, short at EOF
  // (compaction copies live blocks without re-encoding).
  [[nodiscard]] StatusOr<std::string> ReadRange(uint32_t segment,
                                                uint64_t offset,
                                                uint64_t length);

  [[nodiscard]] StatusOr<uint64_t> SegmentSize(uint32_t segment);

  // Drops the open handle and cached blocks of `segment`. Required after
  // truncate/remove/rewrite of the segment file.
  void Invalidate(uint32_t segment);

 private:
  // Opens (or returns the cached) positional handle for a segment.
  [[nodiscard]] StatusOr<RandomAccessFile*> Handle(uint32_t segment);

  const Vfs* vfs_;
  std::string dir_;
  BlockCache* cache_;
  std::map<uint32_t, std::unique_ptr<RandomAccessFile>> handles_;
};

}  // namespace store
}  // namespace sidq
