#include "store/segment.h"

#include <cstring>
#include <utility>

namespace sidq {
namespace store {

StatusOr<std::unique_ptr<SegmentWriter>> SegmentWriter::Open(
    Vfs* vfs, const std::string& dir, uint32_t segment,
    uint64_t existing_size, uint32_t existing_blocks) {
  const std::string path = dir + "/" + SegmentFileName(segment);
  SIDQ_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> file,
                        vfs->NewWritableFile(path, WriteMode::kAppend));
  return std::make_unique<SegmentWriter>(std::move(file), segment,
                                         existing_size, existing_blocks);
}

Status SegmentWriter::AppendBlock(const ColumnarBlock& block,
                                  BlockEntry* entry) {
  const std::string encoded = EncodeBlock(block);
  entry->segment = segment_;
  entry->index = num_blocks_;
  entry->offset = offset_;
  entry->length = encoded.size();
  // The self-CRC sits in header bytes [12, 16); recording it in the
  // manifest too lets recovery cross-check block against manifest.
  std::memcpy(&entry->crc, encoded.data() + 12, sizeof(entry->crc));
  SIDQ_RETURN_IF_ERROR(file_->Append(encoded));
  offset_ += encoded.size();
  ++num_blocks_;
  return Status::OK();
}

}  // namespace store
}  // namespace sidq
