#include "store/format.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "kernels/dispatch.h"

namespace sidq {
namespace store {

static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
              "store format assumes little-endian host layout");

namespace {

uint32_t Crc32cExtend(uint32_t crc, const char* data, size_t n) {
  return kernels::KernelDispatch::Get().crc32c(crc, data, n);
}

template <typename T>
void AppendRaw(std::string* out, const T& v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
void AppendColumn(std::string* out, const std::vector<T>& column) {
  out->append(reinterpret_cast<const char*>(column.data()),
              column.size() * sizeof(T));
}

bool ParseHex32(std::istringstream* in, uint32_t* out) {
  std::string tok;
  if (!(*in >> tok)) return false;
  char* end = nullptr;
  errno = 0;
  const uint64_t v = std::strtoull(tok.c_str(), &end, 16);
  if (errno != 0 || end == nullptr || *end != '\0' || tok.empty() ||
      v > 0xffffffffull) {
    return false;
  }
  *out = static_cast<uint32_t>(v);
  return true;
}

std::string Hex32(uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08x", v);
  return buf;
}

// --- manifest record codec ---------------------------------------------

void PutVarint(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>(v | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

// Signed deltas: small magnitudes of either sign stay one byte.
uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
int64_t UnZigZag(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

// Sensor ids as wrapping deltas from the previous one: consecutive ids
// cost one byte each, and any order round-trips.
void PutSensorRows(std::string* out,
                   const std::vector<std::pair<SensorId, uint32_t>>& rows) {
  PutVarint(out, rows.size());
  SensorId prev = 0;
  for (const auto& [sensor, count] : rows) {
    PutVarint(out, sensor - prev);
    PutVarint(out, count);
    prev = sensor;
  }
}

// Bounds-checked reads over one record payload. Every getter fails
// (returns false) rather than reading past the end.
class Cursor {
 public:
  explicit Cursor(std::string_view in) : in_(in) {}

  [[nodiscard]] size_t remaining() const { return in_.size() - pos_; }

  bool Varint(uint64_t* v) {
    uint64_t out = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (pos_ == in_.size()) return false;
      const uint8_t byte = static_cast<uint8_t>(in_[pos_++]);
      if (shift == 63 && byte > 1) return false;  // overflows 64 bits
      out |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) {
        *v = out;
        return true;
      }
    }
    return false;
  }
  bool Varint32(uint32_t* v) {
    uint64_t wide = 0;
    if (!Varint(&wide) || wide > 0xffffffffull) return false;
    *v = static_cast<uint32_t>(wide);
    return true;
  }
  bool Fixed32(uint32_t* v) {
    if (remaining() < sizeof(*v)) return false;
    std::memcpy(v, in_.data() + pos_, sizeof(*v));
    pos_ += sizeof(*v);
    return true;
  }
  bool Byte(uint8_t* v) {
    if (remaining() < 1) return false;
    *v = static_cast<uint8_t>(in_[pos_++]);
    return true;
  }
  bool Bytes(std::string* out) {
    uint64_t n = 0;
    if (!Varint(&n) || n > remaining()) return false;
    out->assign(in_.data() + pos_, n);
    pos_ += n;
    return true;
  }
  // A list length, bounded by the bytes left (every element takes at
  // least `min_bytes`), so a forged count cannot drive an allocation.
  bool Count(size_t min_bytes, uint64_t* n) {
    return Varint(n) && *n <= remaining() / min_bytes;
  }

 private:
  std::string_view in_;
  size_t pos_ = 0;
};

bool GetSensorRows(Cursor* in,
                   std::vector<std::pair<SensorId, uint32_t>>* rows) {
  uint64_t n = 0;
  if (!in->Count(2, &n)) return false;
  rows->resize(n);
  SensorId prev = 0;
  for (auto& [sensor, count] : *rows) {
    uint64_t delta = 0;
    if (!in->Varint(&delta) || !in->Varint32(&count)) return false;
    sensor = prev + delta;
    prev = sensor;
  }
  return true;
}

// A block entry, delta-coded against the previous entry of its list: the
// next block usually starts where the previous one ended, in bytes and
// in rows, so both deltas are zero.
void PutBlock(std::string* out, const BlockEntry& b, const BlockEntry& prev) {
  PutVarint(out, b.segment);
  PutVarint(out, b.index);
  const uint64_t expect_offset =
      b.segment == prev.segment ? prev.offset + prev.length : 0;
  PutVarint(out, ZigZag(static_cast<int64_t>(b.offset - expect_offset)));
  PutVarint(out, b.length);
  AppendRaw(out, b.crc);
  PutVarint(out, ZigZag(static_cast<int64_t>(
                     b.row_start - (prev.row_start + prev.row_count))));
  PutVarint(out, b.row_count);
  PutSensorRows(out, b.sensor_rows);
}

bool GetBlock(Cursor* in, const BlockEntry& prev, BlockEntry* b) {
  uint64_t offset_delta = 0, row_delta = 0;
  if (!in->Varint32(&b->segment) || !in->Varint32(&b->index) ||
      !in->Varint(&offset_delta) || !in->Varint(&b->length) ||
      !in->Fixed32(&b->crc) || !in->Varint(&row_delta) ||
      !in->Varint32(&b->row_count) || !GetSensorRows(in, &b->sensor_rows)) {
    return false;
  }
  const uint64_t expect_offset =
      b->segment == prev.segment ? prev.offset + prev.length : 0;
  b->offset = expect_offset + static_cast<uint64_t>(UnZigZag(offset_delta));
  b->row_start = prev.row_start + prev.row_count +
                 static_cast<uint64_t>(UnZigZag(row_delta));
  return true;
}

void PutQuarantine(std::string* out, const QuarantinedBlockEntry& q) {
  PutVarint(out, q.segment);
  PutVarint(out, q.index);
  out->push_back(static_cast<char>(q.defect));
  PutVarint(out, q.offset);
  PutVarint(out, q.length);
  PutVarint(out, q.row_start);
  PutVarint(out, q.row_count);
  PutSensorRows(out, q.sensor_rows);
}

bool GetQuarantine(Cursor* in, QuarantinedBlockEntry* q) {
  uint8_t defect = 0;
  if (!in->Varint32(&q->segment) || !in->Varint32(&q->index) ||
      !in->Byte(&defect) ||
      defect > static_cast<uint8_t>(BlockDefect::kManifestMismatch) ||
      !in->Varint(&q->offset) || !in->Varint(&q->length) ||
      !in->Varint(&q->row_start) || !in->Varint32(&q->row_count) ||
      !GetSensorRows(in, &q->sensor_rows)) {
    return false;
  }
  q->defect = static_cast<BlockDefect>(defect);
  return true;
}

// One frame of a manifest log, verified.
struct Frame {
  std::string_view payload;
  uint32_t crc = 0;
  uint64_t bytes = 0;  // header + payload
};

StatusOr<Frame> ReadFrame(std::string_view log, uint64_t offset) {
  const uint64_t left = log.size() - offset;
  if (left < kManifestFrameHeaderSize) {
    return Status::DataLoss("manifest record header torn at byte " +
                            std::to_string(offset));
  }
  uint32_t length = 0;
  Frame frame;
  std::memcpy(&length, log.data() + offset, sizeof(length));
  std::memcpy(&frame.crc, log.data() + offset + 4, sizeof(frame.crc));
  if (length > kMaxManifestRecord) {
    return Status::DataLoss("manifest record length " +
                            std::to_string(length) + " at byte " +
                            std::to_string(offset) + " fails the bound");
  }
  if (left - kManifestFrameHeaderSize < length) {
    return Status::DataLoss("manifest record torn at byte " +
                            std::to_string(offset));
  }
  uint32_t crc = Crc32cExtend(0, log.data() + offset, sizeof(length));
  crc = Crc32cExtend(crc, log.data() + offset + kManifestFrameHeaderSize,
                     length);
  if (crc != frame.crc) {
    return Status::DataLoss("manifest record crc mismatch at byte " +
                            std::to_string(offset) + ": recorded " +
                            Hex32(frame.crc) + ", computed " + Hex32(crc));
  }
  frame.payload = log.substr(offset + kManifestFrameHeaderSize, length);
  frame.bytes = kManifestFrameHeaderSize + length;
  return frame;
}

// Applies an edit to the replayed state.
void ApplyEdit(ManifestRecord&& edit, Manifest* state) {
  state->gen = edit.head.gen;
  state->field_name = std::move(edit.head.field_name);
  state->num_segments = edit.head.num_segments;
  state->rows = edit.head.rows;
  state->blocks.insert(state->blocks.end(),
                       std::make_move_iterator(edit.blocks.begin()),
                       std::make_move_iterator(edit.blocks.end()));
  for (QuarantinedBlockEntry& q : edit.quarantined) {
    const auto live = std::find_if(
        state->blocks.begin(), state->blocks.end(),
        [&](const BlockEntry& b) {
          return b.segment == q.segment && b.index == q.index;
        });
    if (live != state->blocks.end()) state->blocks.erase(live);
    state->quarantined.push_back(std::move(q));
  }
}

}  // namespace

uint32_t Crc32c(const char* data, size_t n) {
  return Crc32cExtend(0, data, n);
}

const char* BlockDefectName(BlockDefect defect) {
  switch (defect) {
    case BlockDefect::kNone:
      return "none";
    case BlockDefect::kShortHeader:
      return "short-header";
    case BlockDefect::kBadMagic:
      return "bad-magic";
    case BlockDefect::kBadVersion:
      return "bad-version";
    case BlockDefect::kBadLength:
      return "bad-length";
    case BlockDefect::kShortPayload:
      return "short-payload";
    case BlockDefect::kBadCrc:
      return "bad-crc";
    case BlockDefect::kBadPayload:
      return "bad-payload";
    case BlockDefect::kManifestMismatch:
      return "manifest-mismatch";
  }
  return "unknown";
}

std::string EncodeBlock(const ColumnarBlock& block) {
  // Header: magic | version | type | reserved | payload_len | crc. The CRC
  // covers the header fields after the magic (minus itself) plus the
  // payload, so a flipped length bit fails verification just like flipped
  // data. The header is written in place at the front of the one output
  // buffer; payload_len and crc are patched in once the payload is known.
  const uint32_t n = static_cast<uint32_t>(block.size());
  std::string out;
  out.reserve(EncodedBlockBytes(n));
  out.append(kBlockMagic, sizeof(kBlockMagic));
  AppendRaw(&out, kFormatVersion);
  AppendRaw(&out, kBlockTypeColumnar);
  AppendRaw(&out, static_cast<uint16_t>(0));
  AppendRaw(&out, static_cast<uint32_t>(0));  // payload_len, patched below
  AppendRaw(&out, static_cast<uint32_t>(0));  // crc, patched below

  AppendRaw(&out, n);
  AppendColumn(&out, block.sensor);
  AppendColumn(&out, block.t);
  AppendColumn(&out, block.x);
  AppendColumn(&out, block.y);
  AppendColumn(&out, block.value);
  AppendColumn(&out, block.stddev);

  const uint32_t payload_len =
      static_cast<uint32_t>(out.size() - kBlockHeaderSize);
  std::memcpy(out.data() + 8, &payload_len, sizeof(payload_len));
  uint32_t crc = Crc32cExtend(0, out.data() + 4, 8);
  crc = Crc32cExtend(crc, out.data() + kBlockHeaderSize, payload_len);
  std::memcpy(out.data() + 12, &crc, sizeof(crc));
  return out;
}

ParsedBlock ParseBlockAt(std::string_view segment, uint64_t offset) {
  ParsedBlock out;
  if (offset > segment.size() ||
      segment.size() - offset < kBlockHeaderSize) {
    out.defect = BlockDefect::kShortHeader;
    return out;
  }
  const char* header = segment.data() + offset;
  if (std::memcmp(header, kBlockMagic, sizeof(kBlockMagic)) != 0) {
    out.defect = BlockDefect::kBadMagic;
    return out;
  }
  const uint8_t version = static_cast<uint8_t>(header[4]);
  const uint8_t type = static_cast<uint8_t>(header[5]);
  if (version != kFormatVersion || type != kBlockTypeColumnar) {
    out.defect = BlockDefect::kBadVersion;
    return out;
  }
  uint32_t payload_len = 0;
  std::memcpy(&payload_len, header + 8, sizeof(payload_len));
  if (payload_len > kMaxBlockPayload) {
    out.defect = BlockDefect::kBadLength;
    return out;
  }
  std::memcpy(&out.crc, header + 12, sizeof(out.crc));
  if (segment.size() - offset - kBlockHeaderSize < payload_len) {
    out.defect = BlockDefect::kShortPayload;
    return out;
  }
  out.bytes_consumed = kBlockHeaderSize + payload_len;
  const char* payload = header + kBlockHeaderSize;
  uint32_t crc = Crc32cExtend(0, header + 4, 8);
  crc = Crc32cExtend(crc, payload, payload_len);
  if (crc != out.crc) {
    out.defect = BlockDefect::kBadCrc;
    return out;
  }
  if (payload_len < sizeof(uint32_t)) {
    out.defect = BlockDefect::kBadPayload;
    return out;
  }
  uint32_t n = 0;
  std::memcpy(&n, payload, sizeof(n));
  if (payload_len != sizeof(uint32_t) + static_cast<uint64_t>(n) * kRowBytes) {
    out.defect = BlockDefect::kBadPayload;
    return out;
  }
  out.block = BlockView(payload + sizeof(uint32_t), n);
  return out;
}

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

std::string ManifestLogHeader() {
  std::string out(kManifestLogMagic, sizeof(kManifestLogMagic));
  AppendRaw(&out, kManifestLogVersion);
  return out;
}

uint32_t AppendManifestRecord(
    std::string* log, const ManifestRecordHead& head,
    std::initializer_list<std::span<const BlockEntry>> blocks,
    std::span<const QuarantinedBlockEntry> quarantined,
    std::span<const ManifestExtension> extensions) {
  const size_t frame = log->size();
  AppendRaw(log, static_cast<uint32_t>(0));  // length, patched below
  AppendRaw(log, static_cast<uint32_t>(0));  // crc, patched below
  log->push_back(static_cast<char>(head.kind));
  PutVarint(log, head.gen);
  AppendRaw(log, head.prev_crc);
  PutVarint(log, head.rows);
  PutVarint(log, head.num_segments);
  PutVarint(log, head.field_name.size());
  log->append(head.field_name);
  size_t num_blocks = 0;
  for (const std::span<const BlockEntry>& part : blocks) {
    num_blocks += part.size();
  }
  PutVarint(log, num_blocks);
  const BlockEntry none;
  const BlockEntry* prev = &none;
  for (const std::span<const BlockEntry>& part : blocks) {
    for (const BlockEntry& b : part) {
      PutBlock(log, b, *prev);
      prev = &b;
    }
  }
  PutVarint(log, quarantined.size());
  for (const QuarantinedBlockEntry& q : quarantined) PutQuarantine(log, q);
  PutVarint(log, extensions.size());
  for (const ManifestExtension& e : extensions) {
    PutVarint(log, e.tag);
    PutVarint(log, e.bytes.size());
    log->append(e.bytes);
  }
  const uint32_t length =
      static_cast<uint32_t>(log->size() - frame - kManifestFrameHeaderSize);
  std::memcpy(log->data() + frame, &length, sizeof(length));
  uint32_t crc = Crc32cExtend(0, log->data() + frame, sizeof(length));
  crc = Crc32cExtend(crc, log->data() + frame + kManifestFrameHeaderSize,
                     length);
  std::memcpy(log->data() + frame + 4, &crc, sizeof(crc));
  return crc;
}

StatusOr<ManifestRecord> DecodeManifestRecord(std::string_view payload) {
  Cursor in(payload);
  ManifestRecord r;
  ManifestRecordHead& h = r.head;
  uint8_t kind = 0;
  if (!in.Byte(&kind) ||
      (kind != static_cast<uint8_t>(ManifestRecordKind::kSnapshot) &&
       kind != static_cast<uint8_t>(ManifestRecordKind::kEdit))) {
    return Status::InvalidArgument("manifest record has no valid kind");
  }
  h.kind = static_cast<ManifestRecordKind>(kind);
  if (!in.Varint(&h.gen) || !in.Fixed32(&h.prev_crc) ||
      !in.Varint(&h.rows) || !in.Varint32(&h.num_segments) ||
      !in.Bytes(&h.field_name)) {
    return Status::InvalidArgument("manifest record head malformed");
  }
  uint64_t n = 0;
  // A block entry takes at least 11 bytes, a verdict 8, an extension 2.
  if (!in.Count(11, &n)) {
    return Status::InvalidArgument("manifest record block count malformed");
  }
  r.blocks.resize(n);
  const BlockEntry none;
  for (size_t i = 0; i < r.blocks.size(); ++i) {
    if (!GetBlock(&in, i == 0 ? none : r.blocks[i - 1], &r.blocks[i])) {
      return Status::InvalidArgument("manifest block entry " +
                                     std::to_string(i) + " malformed");
    }
  }
  if (!in.Count(8, &n)) {
    return Status::InvalidArgument("manifest record verdict count malformed");
  }
  r.quarantined.resize(n);
  for (size_t i = 0; i < r.quarantined.size(); ++i) {
    if (!GetQuarantine(&in, &r.quarantined[i])) {
      return Status::InvalidArgument("manifest quarantine entry " +
                                     std::to_string(i) + " malformed");
    }
  }
  if (!in.Count(2, &n)) {
    return Status::InvalidArgument(
        "manifest record extension count malformed");
  }
  r.extensions.resize(n);
  for (ManifestExtension& e : r.extensions) {
    if (!in.Varint32(&e.tag) || !in.Bytes(&e.bytes)) {
      return Status::InvalidArgument("manifest record extension malformed");
    }
  }
  if (in.remaining() != 0) {
    return Status::InvalidArgument("garbage after manifest record");
  }
  return r;
}

StatusOr<ManifestLogReplay> ReplayManifestLog(std::string_view log) {
  constexpr std::string_view kTextManifest = "# sidq-store manifest v1";
  if (log.substr(0, kTextManifest.size()) == kTextManifest) {
    return Status::FailedPrecondition(
        "text manifest (store format 1) is no longer read; rebuild the "
        "store from its source data");
  }
  if (log.size() < kManifestLogHeaderSize ||
      std::memcmp(log.data(), kManifestLogMagic, sizeof(kManifestLogMagic)) !=
          0) {
    return Status::DataLoss("manifest log header torn or missing");
  }
  uint32_t version = 0;
  std::memcpy(&version, log.data() + sizeof(kManifestLogMagic),
              sizeof(version));
  if (version != kManifestLogVersion) {
    return Status::DataLoss("manifest log version " +
                            std::to_string(version) + " unknown");
  }
  SIDQ_ASSIGN_OR_RETURN(Frame frame, ReadFrame(log, kManifestLogHeaderSize));
  SIDQ_ASSIGN_OR_RETURN(ManifestRecord snapshot,
                        DecodeManifestRecord(frame.payload));
  if (snapshot.head.kind != ManifestRecordKind::kSnapshot) {
    return Status::DataLoss("manifest log does not start with a snapshot");
  }
  ManifestLogReplay out;
  Manifest& state = out.state;
  state.gen = snapshot.head.gen;
  state.field_name = std::move(snapshot.head.field_name);
  state.num_segments = snapshot.head.num_segments;
  state.rows = snapshot.head.rows;
  state.blocks = std::move(snapshot.blocks);
  state.quarantined = std::move(snapshot.quarantined);
  out.snapshot_crc = out.last_crc = frame.crc;
  out.snapshot_bytes = out.valid_bytes = kManifestLogHeaderSize + frame.bytes;

  while (out.valid_bytes < log.size()) {
    StatusOr<Frame> next = ReadFrame(log, out.valid_bytes);
    if (!next.ok()) {
      out.stop = next.status();
      break;
    }
    StatusOr<ManifestRecord> edit = DecodeManifestRecord(next->payload);
    if (!edit.ok()) {
      out.stop = edit.status();
      break;
    }
    if (edit->head.kind != ManifestRecordKind::kEdit ||
        edit->head.gen != state.gen + 1 ||
        edit->head.prev_crc != out.last_crc) {
      out.chain_intact = false;
      out.stop = Status::DataLoss(
          "manifest record at byte " + std::to_string(out.valid_bytes) +
          " does not extend generation " + std::to_string(state.gen));
      break;
    }
    ApplyEdit(std::move(*edit), &state);
    out.last_crc = next->crc;
    out.valid_bytes += next->bytes;
    ++out.edits;
  }
  return out;
}

std::string ManifestFileName(uint64_t gen) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "MANIFEST-%06" PRIu64, gen);
  return buf;
}

std::string SegmentFileName(uint32_t segment) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%06u.seg", segment);
  return buf;
}

bool ParseManifestFileName(const std::string& name, uint64_t* gen) {
  constexpr char kPrefix[] = "MANIFEST-";
  constexpr size_t kPrefixLen = sizeof(kPrefix) - 1;
  if (name.size() <= kPrefixLen || name.compare(0, kPrefixLen, kPrefix) != 0) {
    return false;
  }
  const std::string digits = name.substr(kPrefixLen);
  for (char c : digits) {
    if (c < '0' || c > '9') return false;
  }
  char* end = nullptr;
  *gen = std::strtoull(digits.c_str(), &end, 10);
  return end != nullptr && *end == '\0';
}

bool ParseSegmentFileName(const std::string& name, uint32_t* segment) {
  constexpr char kSuffix[] = ".seg";
  constexpr size_t kSuffixLen = sizeof(kSuffix) - 1;
  if (name.size() <= kSuffixLen ||
      name.compare(name.size() - kSuffixLen, kSuffixLen, kSuffix) != 0) {
    return false;
  }
  const std::string digits = name.substr(0, name.size() - kSuffixLen);
  for (char c : digits) {
    if (c < '0' || c > '9') return false;
  }
  char* end = nullptr;
  const uint64_t v = std::strtoull(digits.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || v > 0xffffffffull) return false;
  *segment = static_cast<uint32_t>(v);
  return true;
}

std::string SerializeCurrent(uint64_t gen, uint32_t snapshot_crc) {
  return ManifestFileName(gen) + " " + Hex32(snapshot_crc) + "\n";
}

Status ParseCurrent(std::string_view text, uint64_t* gen,
                    uint32_t* snapshot_crc) {
  std::istringstream in{std::string(text)};
  std::string name;
  if (!(in >> name)) {
    return Status::DataLoss("CURRENT is empty or unreadable");
  }
  if (!ParseManifestFileName(name, gen)) {
    return Status::DataLoss("CURRENT names no manifest: " + name);
  }
  if (!ParseHex32(&in, snapshot_crc)) {
    return Status::DataLoss("CURRENT has no snapshot crc");
  }
  return Status::OK();
}

}  // namespace store
}  // namespace sidq
