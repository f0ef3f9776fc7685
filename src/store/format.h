#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/status.h"
#include "core/statusor.h"
#include "core/stid.h"
#include "core/types.h"

namespace sidq {
namespace store {

// -------------------------------------------------------------------------
// On-disk format of the durable trajectory store.
//
// A store directory holds:
//   NNNNNN.seg        append-only segment files: a sequence of checksummed
//                     columnar blocks, nothing else. Self-describing --
//                     a segment can be scanned without the manifest, which
//                     is how tail recovery reclaims blocks appended after
//                     the last manifest commit.
//   MANIFEST-NNNNNN   the manifest log: a file header, then CRC-framed
//                     binary records. The first record is a snapshot of
//                     the whole committed state at generation NNNNNN
//                     (every live block's location + CRC + row span +
//                     varint per-sensor row counts, every quarantine
//                     verdict); each Commit appends one edit record
//                     holding only what it adds. Every record carries
//                     its predecessor's frame CRC, so replay verifies the
//                     chain as it goes, and a torn final record fails its
//                     own CRC and is cut like a torn segment tail. When
//                     the log outgrows a fixed multiple of its snapshot,
//                     the next commit starts a new log with a fresh
//                     snapshot and the superseded one is deleted.
//   CURRENT           the name of the live log + its snapshot record's
//                     CRC, itself published via AtomicWriteFile.
//
// Blocks are columnar (one array per field, mirroring src/kernels/ SoA).
// A read verifies a block in the bytes it was read into and serves its
// columns in place (BlockView): no per-record deserialization and no
// copy into column vectors. Doubles are stored as raw IEEE-754 bits, so
// NaN payloads and signed zeros round-trip exactly -- the
// store-vs-memory bit-identity gates depend on that.
//
// All integers are little-endian host layout (the only platform sidq
// builds on; a static_assert in format.cc pins the assumption).
// -------------------------------------------------------------------------

// CRC32C (Castagnoli, reflected, as in RFC 3720) over every block and
// manifest record. Computed by the kernel layer's dispatched `crc32c`
// primitive: on the avx2/avx512 tiers three interleaved SSE4.2 crc32
// streams merged with zero-shift tables, on scalar/sse2 and non-x86
// builds a 256-entry table loop (SIDQ_FORCE_ISA picks the tier). Every tier yields the same
// value, so the on-disk bytes do not depend on the host that wrote or
// reads them.
uint32_t Crc32c(const char* data, size_t n);
inline uint32_t Crc32c(std::string_view data) {
  return Crc32c(data.data(), data.size());
}

inline constexpr char kBlockMagic[4] = {'S', 'B', 'L', 'K'};
inline constexpr uint8_t kFormatVersion = 1;
inline constexpr uint8_t kBlockTypeColumnar = 1;
inline constexpr size_t kBlockHeaderSize = 16;
// Sanity bound: a length field beyond this is a corrupt header, not a
// 64 MiB block (keeps a flipped length bit from driving a huge allocation).
inline constexpr uint32_t kMaxBlockPayload = 1u << 26;
// Per-record payload bytes: sensor u64 + t i64 + four doubles.
inline constexpr size_t kRowBytes =
    sizeof(SensorId) + sizeof(Timestamp) + 4 * sizeof(double);
// Header + payload bytes of a block of `rows` records: the payload is a
// u32 row count, then kRowBytes per record.
inline constexpr uint64_t EncodedBlockBytes(uint64_t rows) {
  return kBlockHeaderSize + sizeof(uint32_t) + rows * kRowBytes;
}
// The most records one block holds: a longer payload fails the
// kMaxBlockPayload bound when read back.
inline constexpr size_t kMaxBlockRecords =
    (kMaxBlockPayload - sizeof(uint32_t)) / kRowBytes;

// One columnar block of STID records (struct-of-arrays).
struct ColumnarBlock {
  std::vector<SensorId> sensor;
  std::vector<Timestamp> t;
  std::vector<double> x, y, value, stddev;

  void Add(const StRecord& r) {
    sensor.push_back(r.sensor);
    t.push_back(r.t);
    x.push_back(r.loc.x);
    y.push_back(r.loc.y);
    value.push_back(r.value);
    stddev.push_back(r.stddev);
  }
  [[nodiscard]] StRecord Record(size_t i) const {
    return StRecord(sensor[i], t[i], geometry::Point{x[i], y[i]}, value[i],
                    stddev[i]);
  }
  [[nodiscard]] size_t size() const { return sensor.size(); }
  [[nodiscard]] bool empty() const { return sensor.empty(); }
  void Clear() {
    sensor.clear();
    t.clear();
    x.clear();
    y.clear();
    value.clear();
    stddev.clear();
  }
};

// Header + payload bytes, ready to append to a segment.
[[nodiscard]] std::string EncodeBlock(const ColumnarBlock& block);

// The six columns of a verified block, viewed in place in its encoded
// bytes: `columns` is the payload after its row count, `rows` 8-byte
// values per column in ColumnarBlock's field order. Loads go through
// memcpy, so the bytes need no alignment. Valid while those bytes live.
class BlockView {
 public:
  BlockView() = default;
  BlockView(const char* columns, size_t rows)
      : columns_(columns), rows_(rows) {}

  [[nodiscard]] size_t size() const { return rows_; }
  [[nodiscard]] SensorId sensor(size_t i) const {
    return Load<SensorId>(0, i);
  }
  [[nodiscard]] StRecord Record(size_t i) const {
    return StRecord(Load<SensorId>(0, i), Load<Timestamp>(1, i),
                    geometry::Point{Load<double>(2, i), Load<double>(3, i)},
                    Load<double>(4, i), Load<double>(5, i));
  }

 private:
  template <typename T>
  T Load(size_t column, size_t i) const {
    static_assert(sizeof(T) == 8);
    T v;
    std::memcpy(&v, columns_ + (column * rows_ + i) * sizeof(T), sizeof(T));
    return v;
  }

  const char* columns_ = nullptr;
  size_t rows_ = 0;
};

// Why a block failed verification. Append-only (reason codes are persisted
// in manifests and surfaced in quarantine ledgers).
enum class BlockDefect : int {
  kNone = 0,
  kShortHeader = 1,    // fewer than kBlockHeaderSize bytes remain: torn append
  kBadMagic = 2,       // not a block boundary
  kBadVersion = 3,     // future/garbage version byte
  kBadLength = 4,      // length field fails the sanity bound
  kShortPayload = 5,   // payload extends past end of segment: torn append
  kBadCrc = 6,         // checksum mismatch: corruption
  kBadPayload = 7,     // CRC fine but column layout inconsistent
  kManifestMismatch = 8,  // block disagrees with its manifest entry
};
const char* BlockDefectName(BlockDefect defect);

struct ParsedBlock {
  BlockDefect defect = BlockDefect::kNone;
  BlockView block;            // into the parsed bytes, when defect == kNone
  uint64_t bytes_consumed = 0;  // header + payload, when parseable
  uint32_t crc = 0;           // header-recorded CRC, when header parseable
};

// Verifies the block starting at `offset` in `segment` in place: the
// whole CRC is checked before `block` views the columns. Never throws,
// never reads past the end: every malformation maps to a BlockDefect.
[[nodiscard]] ParsedBlock ParseBlockAt(std::string_view segment,
                                       uint64_t offset);

// -------------------------------------------------------------------------
// Manifest
// -------------------------------------------------------------------------

struct BlockEntry {
  uint32_t segment = 0;  // segment file number
  uint32_t index = 0;    // block ordinal within the segment
  uint64_t offset = 0;   // byte offset of the block header
  uint64_t length = 0;   // header + payload bytes
  uint32_t crc = 0;      // must equal the block's self-CRC
  uint64_t row_start = 0;  // global row id of the block's first record
  uint32_t row_count = 0;
  // Rows per sensor inside this block, sensor-ascending. This is the
  // quality metadata that must travel with the data: when a block is
  // quarantined, recovery knows exactly which trajectories lost how many
  // rows without being able to read the payload.
  std::vector<std::pair<SensorId, uint32_t>> sensor_rows;
};

// A quarantine verdict carried in the manifest so a quarantined block
// stays visible (never silently dropped) across reopens. Keeps the byte
// range: tail recovery must know the segment region the dead block
// occupies even though its payload is unreadable.
struct QuarantinedBlockEntry {
  uint32_t segment = 0;
  uint32_t index = 0;
  BlockDefect defect = BlockDefect::kNone;
  uint64_t offset = 0;
  uint64_t length = 0;
  uint64_t row_start = 0;
  uint32_t row_count = 0;
  std::vector<std::pair<SensorId, uint32_t>> sensor_rows;
};

// The committed state a manifest log replays to.
struct Manifest {
  uint64_t gen = 0;  // commits since the store was created
  std::string field_name;
  uint32_t num_segments = 0;  // segment files 0..num_segments-1 exist
  uint64_t rows = 0;          // total rows ever appended (incl. quarantined)
  std::vector<BlockEntry> blocks;
  std::vector<QuarantinedBlockEntry> quarantined;
};

// Manifest log layout: kManifestLogMagic, a u32 version, then frames of
// u32 payload length | u32 CRC32C over the length bytes and the payload |
// payload. Version 1 was the text manifest, which is no longer read.
inline constexpr char kManifestLogMagic[4] = {'S', 'M', 'L', 'G'};
inline constexpr uint32_t kManifestLogVersion = 2;
inline constexpr size_t kManifestLogHeaderSize = 8;
inline constexpr size_t kManifestFrameHeaderSize = 8;
// Sanity bound on one record, like kMaxBlockPayload for blocks.
inline constexpr uint32_t kMaxManifestRecord = 1u << 30;

[[nodiscard]] std::string ManifestLogHeader();

enum class ManifestRecordKind : uint8_t {
  kSnapshot = 1,  // the whole state; always and only a log's first record
  kEdit = 2,      // what one commit adds to its predecessor's state
};

// A tagged section a record may carry beyond the block lists, reserved
// for commit-scoped side data (quality rows, a stream resume point).
// Nothing writes one yet; decoding keeps them and replay ignores them.
struct ManifestExtension {
  uint32_t tag = 0;
  std::string bytes;
};

// The scalar fields every record carries. For an edit, gen, field_name,
// num_segments and rows are the values after the commit.
struct ManifestRecordHead {
  ManifestRecordKind kind = ManifestRecordKind::kEdit;
  uint64_t gen = 0;
  uint32_t prev_crc = 0;  // frame CRC of the record before this one
  std::string field_name;
  uint32_t num_segments = 0;
  uint64_t rows = 0;
};

struct ManifestRecord {
  ManifestRecordHead head;
  // Snapshot: every live block and every verdict. Edit: blocks sealed
  // since the previous record and new verdicts; a verdict replaces the
  // live block at the same (segment, index), if any.
  std::vector<BlockEntry> blocks;
  std::vector<QuarantinedBlockEntry> quarantined;
  std::vector<ManifestExtension> extensions;
};

// Appends one framed record to `log` and returns its frame CRC. The
// record's blocks are the concatenation of `blocks`, so a snapshot of
// committed + pending blocks needs no copy. Block positions are
// delta-coded against the previous block and sensor_rows as varint
// deltas, so an edit costs a few bytes per block plus two per sensor.
uint32_t AppendManifestRecord(
    std::string* log, const ManifestRecordHead& head,
    std::initializer_list<std::span<const BlockEntry>> blocks,
    std::span<const QuarantinedBlockEntry> quarantined,
    std::span<const ManifestExtension> extensions = {});

// Decodes one record payload (the bytes inside a verified frame). Every
// malformation -- truncation, an overlong varint, a count the remaining
// bytes cannot hold, a bad kind or defect code, trailing bytes -- is an
// InvalidArgument, never a crash or an unbounded allocation.
[[nodiscard]] StatusOr<ManifestRecord> DecodeManifestRecord(
    std::string_view payload);

// A manifest log replayed: its snapshot with every following edit whose
// frame CRC and predecessor link verify applied in order.
struct ManifestLogReplay {
  Manifest state;
  uint32_t snapshot_crc = 0;    // what CURRENT records for this log
  uint32_t last_crc = 0;        // frame CRC of the last replayed record
  uint64_t snapshot_bytes = 0;  // log header + snapshot frame
  uint64_t valid_bytes = 0;     // log prefix holding the replayed records
  uint32_t edits = 0;           // edits replayed, each linked to the last
  bool chain_intact = true;     // false: a CRC-valid record broke the chain
  Status stop;  // why replay ended before the end of the log (OK: it did not)
};

// Fails when no verified prefix exists: FailedPrecondition for a text
// (version 1) manifest, DataLoss for a torn or corrupt header or snapshot.
[[nodiscard]] StatusOr<ManifestLogReplay> ReplayManifestLog(
    std::string_view log);

[[nodiscard]] std::string ManifestFileName(uint64_t gen);
[[nodiscard]] std::string SegmentFileName(uint32_t segment);
// Parses "MANIFEST-NNNNNN" / "NNNNNN.seg"; false when `name` is neither.
[[nodiscard]] bool ParseManifestFileName(const std::string& name,
                                         uint64_t* gen);
[[nodiscard]] bool ParseSegmentFileName(const std::string& name,
                                        uint32_t* segment);

inline constexpr char kCurrentFileName[] = "CURRENT";
// CURRENT contents: "<manifest-log-name> <snapshot-crc-hex>\n".
[[nodiscard]] std::string SerializeCurrent(uint64_t gen,
                                           uint32_t snapshot_crc);
[[nodiscard]] Status ParseCurrent(std::string_view text, uint64_t* gen,
                                  uint32_t* snapshot_crc);

}  // namespace store
}  // namespace sidq
