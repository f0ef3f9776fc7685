#include "stream/quarantine.h"

#include <algorithm>
#include <sstream>

#include "obs/export.h"

namespace sidq {
namespace stream {

const char* QuarantineReasonName(QuarantineReason reason) {
  switch (reason) {
    case QuarantineReason::kUnknownSensor:
      return "unknown_sensor";
    case QuarantineReason::kNonFinite:
      return "non_finite";
    case QuarantineReason::kLate:
      return "late";
    case QuarantineReason::kDuplicate:
      return "duplicate";
    case QuarantineReason::kOutOfRange:
      return "out_of_range";
    case QuarantineReason::kWindowOverflow:
      return "window_overflow";
    case QuarantineReason::kOutlier:
      return "outlier";
    case QuarantineReason::kIngestFault:
      return "ingest_fault";
    case QuarantineReason::kWindowFault:
      return "window_fault";
    case QuarantineReason::kStoreCorruptBlock:
      return "store_corrupt_block";
    case QuarantineReason::kStoreTornTail:
      return "store_torn_tail";
  }
  return "unknown";
}

void QuarantineLedger::Canonicalize() {
  std::sort(entries_.begin(), entries_.end(),
            [](const QuarantineEntry& a, const QuarantineEntry& b) {
              return a.seq < b.seq;
            });
}

void QuarantineLedger::Merge(const QuarantineLedger& other) {
  entries_.insert(entries_.end(), other.entries_.begin(),
                  other.entries_.end());
}

std::string QuarantineLedger::ToJson() const {
  std::ostringstream out;
  out << "[";
  for (size_t i = 0; i < entries_.size(); ++i) {
    const QuarantineEntry& e = entries_[i];
    if (i > 0) out << ",";
    out << "\n  {\"seq\":" << e.seq << ",\"sensor\":" << e.sensor
        << ",\"t\":" << e.t
        << ",\"value\":" << obs::internal_json::FormatDouble(e.value)
        << ",\"reason\":\"" << QuarantineReasonName(e.reason) << "\"}";
  }
  if (!entries_.empty()) out << "\n";
  out << "]";
  return out.str();
}

}  // namespace stream
}  // namespace sidq
