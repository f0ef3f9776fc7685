#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>
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
//   MANIFEST-NNNNNN   one manifest per commit generation: canonical text
//                     listing every live block (location + CRC + row span
//                     + per-sensor row counts) plus carried-forward
//                     quarantine verdicts. Ends in a `commit <crc>` line
//                     so a torn manifest fails its own checksum. Each
//                     manifest names its predecessor's generation and
//                     commit CRC, forming a verifiable chain.
//   CURRENT           the name + commit CRC of the live manifest, itself
//                     published via AtomicWriteFile.
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
// manifest. Computed by the kernel layer's dispatched `crc32c` primitive:
// on the avx2/avx512 tiers three interleaved SSE4.2 crc32 streams merged
// with zero-shift tables, on scalar/sse2 and non-x86 builds a 256-entry
// table loop (SIDQ_FORCE_ISA picks the tier). Every tier yields the same
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

struct Manifest {
  uint64_t gen = 0;
  // Predecessor link: generation + commit CRC of the previous manifest
  // (gen 1 has none). Recovery walks this chain backwards over whatever
  // manifest files survive and reports how many links verify.
  uint64_t prev_gen = 0;
  uint32_t prev_crc = 0;
  std::string field_name;
  uint32_t num_segments = 0;  // segment files 0..num_segments-1 exist
  uint64_t rows = 0;          // total rows ever appended (incl. quarantined)
  std::vector<BlockEntry> blocks;
  std::vector<QuarantinedBlockEntry> quarantined;
};

// Canonical text serialization ending in `commit <crc32c>` over every
// preceding byte; a torn or bit-flipped manifest fails its own check.
[[nodiscard]] std::string SerializeManifest(const Manifest& m);

struct ParsedManifest {
  Manifest manifest;
  uint32_t commit_crc = 0;  // the self-CRC the commit line carried
};
// Fails with DataLoss when the commit CRC does not match (torn/corrupt)
// and InvalidArgument on any structural garbage.
[[nodiscard]] StatusOr<ParsedManifest> ParseManifest(std::string_view text);

[[nodiscard]] std::string ManifestFileName(uint64_t gen);
[[nodiscard]] std::string SegmentFileName(uint32_t segment);
// Parses "MANIFEST-NNNNNN" / "NNNNNN.seg"; false when `name` is neither.
[[nodiscard]] bool ParseManifestFileName(const std::string& name,
                                         uint64_t* gen);
[[nodiscard]] bool ParseSegmentFileName(const std::string& name,
                                        uint32_t* segment);

inline constexpr char kCurrentFileName[] = "CURRENT";
// CURRENT contents: "<manifest-file-name> <commit-crc-hex>\n".
[[nodiscard]] std::string SerializeCurrent(uint64_t gen, uint32_t commit_crc);
[[nodiscard]] Status ParseCurrent(std::string_view text, uint64_t* gen,
                                  uint32_t* commit_crc);

}  // namespace store
}  // namespace sidq
