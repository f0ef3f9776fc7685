#pragma once

// The five bench_e2e workloads. Each drives sidq only through the public
// calls of its layers (StreamEngine, Store, TrajectorySimilaritySearch,
// ProbabilisticRangeQueryMany, FleetRunner) with inputs generated from the
// seed, and fingerprints its results so runs and commits can be compared
// bit for bit.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/status.h"
#include "core/statusor.h"
#include "trace.h"

namespace sidq {
namespace e2e {

inline constexpr uint64_t kFnvOffset = 14695981039346656037ull;

// FNV-1a step over one 64-bit word.
inline uint64_t Fnv(uint64_t h, uint64_t v) {
  h ^= v;
  h *= 1099511628211ull;
  return h;
}

// Layer counts gathered while ops run; the traced run turns them into
// per-layer metrics.
struct Counters {
  uint64_t scan_rows_delivered = 0;
  uint64_t scan_rows_matched = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  uint64_t knn_calls = 0;
  uint64_t knn_dtw = 0;
  uint64_t knn_candidates = 0;
  uint64_t knn_pruned = 0;
  uint64_t prange_objects = 0;
  uint64_t prange_exact = 0;
  double exec_cpu_s = 0.0;
  double exec_wall_s = 0.0;
};

// Deterministic facts about one workload's inputs and first cycle: equal
// on every run with the same seed.
struct Facts {
  double open_ms = 0.0;  // Store::Open during set-up (0: no store)
  double disk_bytes_per_row = 0.0;
  uint64_t stream_ingested = 0;
  uint64_t stream_admitted = 0;
  uint64_t stream_windows_closed = 0;
  uint64_t objects_degraded = 0;
  int exec_workers = 0;
};

// What one timed op reports back to the measurement loop.
struct OpContext {
  Tracer* tracer = nullptr;
  Counters* counters = nullptr;
  uint64_t attempted = 0;  // timed calls made (Status-returning, or objects)
  uint64_t failed = 0;     // of those, non-OK
  uint64_t rows = 0;       // rows this op moved (the rows_per_s numerator)
  uint64_t checksum = kFnvOffset;
  // Latencies of the requests inside the op, for workloads whose op is
  // not itself one request (Workload::op_is_request() == false).
  std::vector<double> request_ms;

  void Count(const Status& st) {
    ++attempted;
    if (!st.ok()) ++failed;
  }
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Generates the inputs and loads the store: everything setup_s times.
  [[nodiscard]] virtual Status Setup() = 0;
  // One line describing the sizes in use.
  [[nodiscard]] virtual std::string Describe() const = 0;

  // Ops [0, prefix_ops()) are fingerprinted and verified; a run completes
  // them however short --seconds is. Past --seconds it stops at the next
  // multiple of stop_every() ops: by default a whole cycle, for workloads
  // whose ops differ in cost within a cycle.
  [[nodiscard]] virtual size_t prefix_ops() const = 0;
  [[nodiscard]] virtual size_t stop_every() const { return prefix_ops(); }
  // Ops with equal keys compute the same result; the loop checks that.
  [[nodiscard]] virtual uint64_t op_key(size_t i) const { return i; }
  [[nodiscard]] virtual bool op_is_request() const { return true; }

  // Untimed work before op i (e.g. a fresh store when a cycle restarts).
  [[nodiscard]] virtual Status Prepare(size_t i) = 0;
  // The timed op.
  virtual void Run(size_t i, OpContext* ctx) = 0;
  // Untimed, after op prefix_ops()-1: the workload's fingerprint.
  [[nodiscard]] virtual StatusOr<uint64_t> PrefixChecksum(
      const std::vector<uint64_t>& op_checksums);
  // Recomputes the prefix with independent references; non-OK on any
  // mismatch.
  [[nodiscard]] virtual Status Verify(const std::vector<uint64_t>& op_checksums,
                                      uint64_t prefix_checksum) = 0;

  [[nodiscard]] const Facts& facts() const { return facts_; }

 protected:
  Facts facts_;
};

inline constexpr const char* kWorkloadNames[] = {
    "ingest", "query_hot", "query_cold", "ingest_query_mix", "fleet_clean"};

// nullptr for an unknown name. Store workloads keep their files in
// `scratch_dir`/store.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       bool quick,
                                       const std::string& scratch_dir);

// Removes `dir` and the regular files directly inside it, best effort.
void RemoveDir(const std::string& dir);

}  // namespace e2e
}  // namespace sidq
