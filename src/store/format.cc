#include "store/format.h"

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

// Per-record payload bytes: sensor u64 + t i64 + four doubles.
constexpr size_t kRowBytes = sizeof(SensorId) + sizeof(Timestamp) +
                             4 * sizeof(double);

bool ParseU64(std::istringstream* in, uint64_t* out) {
  std::string tok;
  if (!(*in >> tok)) return false;
  char* end = nullptr;
  errno = 0;
  *out = std::strtoull(tok.c_str(), &end, 10);
  return errno == 0 && end != nullptr && *end == '\0' && !tok.empty();
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

void AppendSensorRows(
    std::string* out,
    const std::vector<std::pair<SensorId, uint32_t>>& sensor_rows) {
  out->push_back(' ');
  out->append(std::to_string(sensor_rows.size()));
  for (const auto& [sensor, count] : sensor_rows) {
    out->push_back(' ');
    out->append(std::to_string(sensor));
    out->push_back(' ');
    out->append(std::to_string(count));
  }
}

bool ParseSensorRows(std::istringstream* in,
                     std::vector<std::pair<SensorId, uint32_t>>* out) {
  uint64_t n = 0;
  if (!ParseU64(in, &n) || n > (1u << 20)) return false;
  out->clear();
  out->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t sensor = 0, count = 0;
    if (!ParseU64(in, &sensor) || !ParseU64(in, &count) ||
        count > 0xffffffffull) {
      return false;
    }
    out->emplace_back(static_cast<SensorId>(sensor),
                      static_cast<uint32_t>(count));
  }
  return true;
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
  out.reserve(kBlockHeaderSize + sizeof(uint32_t) + n * kRowBytes);
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

std::string SerializeManifest(const Manifest& m) {
  std::string out = "# sidq-store manifest v1\n";
  out += "gen " + std::to_string(m.gen) + "\n";
  if (m.prev_gen == 0) {
    out += "prev none\n";
  } else {
    out += "prev " + std::to_string(m.prev_gen) + " " + Hex32(m.prev_crc) +
           "\n";
  }
  out += "field " + m.field_name + "\n";
  out += "segments " + std::to_string(m.num_segments) + "\n";
  out += "rows " + std::to_string(m.rows) + "\n";
  for (const BlockEntry& b : m.blocks) {
    out += "block " + std::to_string(b.segment) + " " +
           std::to_string(b.index) + " " + std::to_string(b.offset) + " " +
           std::to_string(b.length) + " " + Hex32(b.crc) + " " +
           std::to_string(b.row_start) + " " + std::to_string(b.row_count);
    AppendSensorRows(&out, b.sensor_rows);
    out += "\n";
  }
  for (const QuarantinedBlockEntry& q : m.quarantined) {
    out += "quarantine " + std::to_string(q.segment) + " " +
           std::to_string(q.index) + " " +
           std::to_string(static_cast<int>(q.defect)) + " " +
           std::to_string(q.offset) + " " + std::to_string(q.length) + " " +
           std::to_string(q.row_start) + " " + std::to_string(q.row_count);
    AppendSensorRows(&out, q.sensor_rows);
    out += "\n";
  }
  out += "commit " + Hex32(Crc32c(out.data(), out.size())) + "\n";
  return out;
}

StatusOr<ParsedManifest> ParseManifest(std::string_view text) {
  // The commit line must be the last line and must checksum everything
  // before it; anything else is a torn or corrupted manifest.
  const size_t commit_pos = text.rfind("commit ");
  if (commit_pos == std::string_view::npos ||
      (commit_pos != 0 && text[commit_pos - 1] != '\n')) {
    return Status::DataLoss("manifest has no commit line (torn)");
  }
  // The commit line must itself be newline-terminated: a manifest cut even
  // one byte short is torn, full stop -- "every strict prefix fails" is
  // the invariant the crash sweep leans on.
  if (text.back() != '\n') {
    return Status::DataLoss("manifest commit line unterminated (torn)");
  }
  std::istringstream commit_line(
      std::string(text.substr(commit_pos + 7)));
  uint32_t commit_crc = 0;
  {
    std::string tok;
    if (!(commit_line >> tok)) {
      return Status::DataLoss("manifest commit line unreadable (torn)");
    }
    std::istringstream hex_in(tok);
    if (!ParseHex32(&hex_in, &commit_crc)) {
      return Status::DataLoss("manifest commit crc unreadable (torn)");
    }
    std::string trailing;
    if (commit_line >> trailing) {
      return Status::InvalidArgument("garbage after manifest commit line");
    }
  }
  const uint32_t actual =
      Crc32c(text.data(), commit_pos);
  if (actual != commit_crc) {
    return Status::DataLoss("manifest commit crc mismatch: recorded " +
                            Hex32(commit_crc) + ", computed " + Hex32(actual));
  }

  ParsedManifest out;
  out.commit_crc = commit_crc;
  Manifest& m = out.manifest;
  std::istringstream body{std::string(text.substr(0, commit_pos))};
  std::string line;
  if (!std::getline(body, line) || line != "# sidq-store manifest v1") {
    return Status::InvalidArgument("bad manifest header line: " + line);
  }
  bool saw_gen = false, saw_field = false, saw_segments = false,
       saw_rows = false, saw_prev = false;
  while (std::getline(body, line)) {
    std::istringstream in(line);
    std::string kind;
    if (!(in >> kind)) continue;
    if (kind == "gen") {
      if (!ParseU64(&in, &m.gen)) {
        return Status::InvalidArgument("bad gen line: " + line);
      }
      saw_gen = true;
    } else if (kind == "prev") {
      std::string tok;
      if (!(in >> tok)) {
        return Status::InvalidArgument("bad prev line: " + line);
      }
      if (tok != "none") {
        std::istringstream gen_in(tok);
        if (!ParseU64(&gen_in, &m.prev_gen)) {
          return Status::InvalidArgument("bad prev gen: " + line);
        }
        if (!ParseHex32(&in, &m.prev_crc)) {
          return Status::InvalidArgument("bad prev crc: " + line);
        }
      }
      saw_prev = true;
    } else if (kind == "field") {
      std::string rest;
      std::getline(in, rest);
      m.field_name = rest.empty() ? "" : rest.substr(1);  // skip the space
      saw_field = true;
    } else if (kind == "segments") {
      uint64_t v = 0;
      if (!ParseU64(&in, &v) || v > 0xffffffffull) {
        return Status::InvalidArgument("bad segments line: " + line);
      }
      m.num_segments = static_cast<uint32_t>(v);
      saw_segments = true;
    } else if (kind == "rows") {
      if (!ParseU64(&in, &m.rows)) {
        return Status::InvalidArgument("bad rows line: " + line);
      }
      saw_rows = true;
    } else if (kind == "block") {
      BlockEntry b;
      uint64_t seg = 0, idx = 0, count = 0;
      if (!ParseU64(&in, &seg) || !ParseU64(&in, &idx) ||
          !ParseU64(&in, &b.offset) || !ParseU64(&in, &b.length) ||
          !ParseHex32(&in, &b.crc) || !ParseU64(&in, &b.row_start) ||
          !ParseU64(&in, &count) || count > 0xffffffffull ||
          !ParseSensorRows(&in, &b.sensor_rows)) {
        return Status::InvalidArgument("bad block line: " + line);
      }
      b.segment = static_cast<uint32_t>(seg);
      b.index = static_cast<uint32_t>(idx);
      b.row_count = static_cast<uint32_t>(count);
      m.blocks.push_back(std::move(b));
    } else if (kind == "quarantine") {
      QuarantinedBlockEntry q;
      uint64_t seg = 0, idx = 0, defect = 0, count = 0;
      if (!ParseU64(&in, &seg) || !ParseU64(&in, &idx) ||
          !ParseU64(&in, &defect) || !ParseU64(&in, &q.offset) ||
          !ParseU64(&in, &q.length) || !ParseU64(&in, &q.row_start) ||
          !ParseU64(&in, &count) || count > 0xffffffffull ||
          defect > static_cast<uint64_t>(BlockDefect::kManifestMismatch) ||
          !ParseSensorRows(&in, &q.sensor_rows)) {
        return Status::InvalidArgument("bad quarantine line: " + line);
      }
      q.segment = static_cast<uint32_t>(seg);
      q.index = static_cast<uint32_t>(idx);
      q.defect = static_cast<BlockDefect>(defect);
      q.row_count = static_cast<uint32_t>(count);
      m.quarantined.push_back(std::move(q));
    } else {
      return Status::InvalidArgument("unknown manifest line: " + line);
    }
  }
  if (!saw_gen || !saw_prev || !saw_field || !saw_segments || !saw_rows) {
    return Status::InvalidArgument("manifest missing required line");
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

std::string SerializeCurrent(uint64_t gen, uint32_t commit_crc) {
  return ManifestFileName(gen) + " " + Hex32(commit_crc) + "\n";
}

Status ParseCurrent(std::string_view text, uint64_t* gen,
                    uint32_t* commit_crc) {
  std::istringstream in{std::string(text)};
  std::string name;
  if (!(in >> name)) {
    return Status::DataLoss("CURRENT is empty or unreadable");
  }
  if (!ParseManifestFileName(name, gen)) {
    return Status::DataLoss("CURRENT names no manifest: " + name);
  }
  if (!ParseHex32(&in, commit_crc)) {
    return Status::DataLoss("CURRENT has no commit crc");
  }
  return Status::OK();
}

}  // namespace store
}  // namespace sidq
