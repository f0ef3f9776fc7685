#include "store/block_reader.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <string_view>
#include <utility>

namespace sidq {
namespace store {

namespace {

// Sequential scans touch segments in ascending order, so a handful of
// live handles covers them; the cap keeps fd usage flat on
// thousand-segment stores.
constexpr size_t kMaxHandles = 64;

// Bounded defect ladder at `offset` of `file`, verdict-identical to
// ParseBlockAt over the whole file. The first read covers `expected`
// bytes (the block length the caller expects), so a well-formed block
// costs one read. Its 16-byte header settles kShortHeader / kBadMagic /
// kBadVersion / kBadLength; if the header's own payload length reaches
// past what was read, the block is re-read at that length, so
// kShortPayload is only ever "the file ends early", not "our window was
// small". Each read lands in one fresh allocation, left in `*bytes`;
// ParseBlockAt verifies the block there and `parsed->block` views it.
Status LadderAt(RandomAccessFile* file, uint64_t offset, uint64_t expected,
                std::shared_ptr<char[]>* bytes, ParsedBlock* parsed) {
  *parsed = ParsedBlock();
  const auto read = [&](size_t n) -> StatusOr<size_t> {
    // 8-byte words, read into at +4: the columns start 20 bytes into a
    // block, so every column value lands 8-aligned and no load of the
    // scan's row loop splits a cache line.
    std::shared_ptr<uint64_t[]> words =
        std::make_shared_for_overwrite<uint64_t[]>((4 + n + 7) / 8);
    *bytes = std::shared_ptr<char[]>(
        words, reinterpret_cast<char*>(words.get()) + 4);
    return file->Read(offset, n, bytes->get());
  };
  const uint64_t first = std::clamp<uint64_t>(
      expected, kBlockHeaderSize, kBlockHeaderSize + kMaxBlockPayload);
  SIDQ_ASSIGN_OR_RETURN(size_t got, read(first));
  if (got < kBlockHeaderSize) {
    parsed->defect = BlockDefect::kShortHeader;
    return Status::OK();
  }
  const ParsedBlock header_verdict =
      ParseBlockAt(std::string_view(bytes->get(), kBlockHeaderSize), 0);
  if (header_verdict.defect == BlockDefect::kBadMagic ||
      header_verdict.defect == BlockDefect::kBadVersion ||
      header_verdict.defect == BlockDefect::kBadLength) {
    *parsed = header_verdict;
    return Status::OK();
  }
  uint32_t payload_len = 0;
  std::memcpy(&payload_len, bytes->get() + 8, sizeof(payload_len));
  const size_t want = kBlockHeaderSize + payload_len;
  if (got < want) {
    SIDQ_ASSIGN_OR_RETURN(got, read(want));
    if (got < want) {
      parsed->defect = BlockDefect::kShortPayload;
      return Status::OK();
    }
  }
  *parsed = ParseBlockAt(std::string_view(bytes->get(), want), 0);
  return Status::OK();
}

}  // namespace

BlockReader::BlockReader(const Vfs* vfs, std::string dir, BlockCache* cache)
    : vfs_(vfs), dir_(std::move(dir)), cache_(cache) {}

StatusOr<RandomAccessFile*> BlockReader::Handle(uint32_t segment) {
  auto it = handles_.find(segment);
  if (it != handles_.end()) return it->second.get();
  SIDQ_ASSIGN_OR_RETURN(
      std::unique_ptr<RandomAccessFile> file,
      vfs_->NewRandomAccessFile(dir_ + "/" + SegmentFileName(segment)));
  if (handles_.size() >= kMaxHandles) {
    // Scans walk segments in ascending order; the lowest-numbered handle
    // is the least likely to be touched again.
    handles_.erase(handles_.begin());
  }
  RandomAccessFile* raw = file.get();
  handles_[segment] = std::move(file);
  return raw;
}

Status BlockReader::VerifyAt(RandomAccessFile* file, const BlockEntry& entry,
                             BlockDefect* defect, CachedBlock* out) {
  std::shared_ptr<char[]> bytes;
  ParsedBlock parsed;
  SIDQ_RETURN_IF_ERROR(
      LadderAt(file, entry.offset, entry.length, &bytes, &parsed));
  *defect = parsed.defect;
  if (*defect == BlockDefect::kNone &&
      (parsed.crc != entry.crc || parsed.bytes_consumed != entry.length ||
       parsed.block.size() != entry.row_count)) {
    *defect = BlockDefect::kManifestMismatch;
  }
  if (*defect == BlockDefect::kNone && out != nullptr) {
    out->bytes = std::move(bytes);
    out->view = parsed.block;
  }
  return Status::OK();
}

Status BlockReader::Read(const BlockEntry& entry, MissingPolicy policy,
                         BlockDefect* defect, CachedBlock* out) {
  *defect = BlockDefect::kNone;
  *out = cache_->Lookup(entry.segment, entry.offset);
  if (out->bytes != nullptr) return Status::OK();
  StatusOr<RandomAccessFile*> handle = Handle(entry.segment);
  if (!handle.ok()) {
    if (policy == MissingPolicy::kDefect) {
      // Missing/unreadable segment: same verdict a zero-length file gives.
      *defect = BlockDefect::kShortHeader;
      return Status::OK();
    }
    return handle.status();
  }
  CachedBlock block;
  const Status st = VerifyAt(*handle, entry, defect, &block);
  if (!st.ok()) {
    if (policy == MissingPolicy::kDefect) {
      *defect = BlockDefect::kShortHeader;
      return Status::OK();
    }
    return st;
  }
  if (*defect != BlockDefect::kNone) return Status::OK();
  *out = cache_->Insert(entry.segment, entry.offset, std::move(block));
  return Status::OK();
}

StatusOr<BlockReader::TailScanResult> BlockReader::TailScan(
    uint32_t segment, uint64_t start_offset, uint32_t start_index,
    const std::function<void(ScannedBlock&&)>& fn) {
  SIDQ_ASSIGN_OR_RETURN(RandomAccessFile * file, Handle(segment));
  SIDQ_ASSIGN_OR_RETURN(uint64_t size, file->Size());
  TailScanResult result;
  uint64_t offset = start_offset;
  uint32_t index = start_index;
  uint64_t expected = 0;  // blocks of one segment are usually alike in size
  while (offset < size) {
    std::shared_ptr<char[]> bytes;
    ParsedBlock parsed;
    SIDQ_RETURN_IF_ERROR(LadderAt(file, offset, expected, &bytes, &parsed));
    if (parsed.defect != BlockDefect::kNone) {
      result.defect = parsed.defect;
      break;
    }
    ScannedBlock scanned;
    scanned.index = index;
    scanned.offset = offset;
    scanned.length = parsed.bytes_consumed;
    expected = parsed.bytes_consumed;
    scanned.crc = parsed.crc;
    scanned.block = parsed.block;
    offset += parsed.bytes_consumed;
    ++index;
    fn(std::move(scanned));
  }
  result.valid_bytes = offset;
  return result;
}

StatusOr<std::string> BlockReader::ReadRange(uint32_t segment, uint64_t offset,
                                             uint64_t length) {
  SIDQ_ASSIGN_OR_RETURN(RandomAccessFile * file, Handle(segment));
  std::string out(length, '\0');
  SIDQ_ASSIGN_OR_RETURN(size_t got, file->Read(offset, length, out.data()));
  out.resize(got);
  return out;
}

StatusOr<uint64_t> BlockReader::SegmentSize(uint32_t segment) {
  SIDQ_ASSIGN_OR_RETURN(RandomAccessFile * file, Handle(segment));
  return file->Size();
}

void BlockReader::Invalidate(uint32_t segment) {
  handles_.erase(segment);
  cache_->EraseSegment(segment);
}

}  // namespace store
}  // namespace sidq
