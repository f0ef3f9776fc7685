#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/stid.h"
#include "core/types.h"

namespace sidq {
namespace stream {

// Why a record was diverted instead of entering the cleaned output. Ordered
// roughly by where in the admission path the check fires; the numeric value
// is part of the ledger's canonical JSON, so append only.
enum class QuarantineReason : uint8_t {
  kUnknownSensor = 0,   // strict rule set, no rule for this sensor
  kNonFinite = 1,       // NaN/inf value or coordinates
  kLate = 2,            // event time at or before the sensor watermark
  kDuplicate = 3,       // same (sensor, t) already admitted in-window
  kOutOfRange = 4,      // value outside the rule's [min, max]
  kWindowOverflow = 5,  // bounded window already at capacity
  kOutlier = 6,         // online robust-z flagged it at window close
  kIngestFault = 7,     // permanent fault injected at the ingest edge
  kWindowFault = 8,     // permanent fault injected at window close
  kStoreCorruptBlock = 9,  // durable-store block failed CRC/manifest check
  kStoreTornTail = 10,     // durable-store torn append cut off at recovery
};

[[nodiscard]] const char* QuarantineReasonName(QuarantineReason reason);

// One diverted record. `seq` is the event's global arrival index and the
// canonical sort key: ledgers built by differently-sharded replays merge
// into the same order because seq is unique per event.
struct QuarantineEntry {
  uint64_t seq = 0;
  SensorId sensor = kInvalidSensorId;
  Timestamp t = 0;
  double value = 0.0;
  QuarantineReason reason = QuarantineReason::kUnknownSensor;
};

// The quarantine ledger: the stream-side "reject table" that makes data
// quality auditable -- nothing is silently dropped, every exclusion carries
// a machine-readable reason code keyed back to the arrival log.
class QuarantineLedger {
 public:
  void Add(const QuarantineEntry& entry) { entries_.push_back(entry); }
  void Add(uint64_t seq, const StRecord& rec, QuarantineReason reason) {
    entries_.push_back({seq, rec.sensor, rec.t, rec.value, reason});
  }

  [[nodiscard]] size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] const std::vector<QuarantineEntry>& entries() const {
    return entries_;
  }

  // Sorts entries by seq. seq is unique within a log, so this is a total
  // order; shard-merged and serial ledgers canonicalize identically.
  void Canonicalize();

  // Appends `other`'s entries (used when merging per-shard ledgers; call
  // Canonicalize() afterwards).
  void Merge(const QuarantineLedger& other);

  // Canonical JSON array, one object per entry, in current entry order.
  [[nodiscard]] std::string ToJson() const;

 private:
  std::vector<QuarantineEntry> entries_;
};

}  // namespace stream
}  // namespace sidq
