#pragma once

// Bench-side tracing for bench_e2e. Spans are recorded around the calls
// the benchmark makes into each sidq layer -- not inside the library --
// kept in memory, attributed to layers by self time, and written as
// Chrome trace JSON at exit. Per-record calls (StreamEngine::Push,
// Store::Append) are far too frequent to span one by one: they go into a
// log-linear nanosecond histogram and their time is charged to the
// enclosing span.
//
// Span names follow `<layer>.<op>`; the layer is the name's prefix and is
// one of kLayerNames. A layer's self time is the duration of its spans
// minus the time their child spans cover.

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace sidq {
namespace e2e {

inline constexpr int kNumLayers = 5;
// Index order of every per-layer array below.
inline constexpr std::array<const char*, kNumLayers> kLayerNames = {
    "glue", "stream", "store", "query", "exec"};

// Monotonic nanoseconds (steady_clock).
int64_t NowNs();

// Log-linear histogram over non-negative nanosecond values: exact below
// 32 ns, then 16 linear sub-buckets per power of two (<= 1/32 relative
// error at the bucket midpoint).
class LogHistogram {
 public:
  void Record(int64_t ns);
  [[nodiscard]] int64_t count() const { return count_; }
  [[nodiscard]] int64_t sum_ns() const { return sum_ns_; }
  // Midpoint of the bucket holding the q-quantile (nearest rank); 0 when
  // empty.
  [[nodiscard]] double Percentile(double q) const;

 private:
  static constexpr int kBuckets = 32 + 59 * 16;
  std::array<int64_t, kBuckets> buckets_{};
  int64_t count_ = 0;
  int64_t sum_ns_ = 0;
};

struct Span {
  const char* name = "";  // "<layer>.<op>", static storage
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  // index into the span list; -1 for a root
  uint32_t request = 0;
};

// Self time per layer and per span name, plus every duration per name.
struct Attribution {
  std::array<int64_t, kNumLayers> self_ns{};
  std::map<std::string, int64_t> self_ns_by_name;
  std::map<std::string, std::vector<int64_t>> durations_ns;
};

// Single-threaded span recorder. A disabled tracer records nothing and
// reads no clock, so untraced runs pay only a branch per span site.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  // Starts a new request id; spans begun afterwards carry it.
  void NextRequest() { ++request_; }

  int32_t Begin(const char* name);
  void End(int32_t id);

  // Histogram for a per-record call, or nullptr when disabled. Look it up
  // once per loop, not per record.
  LogHistogram* histogram(const char* name);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] const std::map<std::string, LogHistogram>& histograms() const {
    return histograms_;
  }
  [[nodiscard]] Attribution Attribute() const;

  // Chrome trace_event JSON (complete "X" events, microseconds) with the
  // histograms and `run` (a JSON object describing the run) under
  // "otherData".
  [[nodiscard]] std::string ToChromeJson(const std::string& run) const;

 private:
  bool enabled_;
  uint32_t request_ = 0;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
  std::map<std::string, LogHistogram> histograms_;
};

// RAII span; a no-op on a disabled tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer->enabled() ? tracer->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t id_;
};

}  // namespace e2e
}  // namespace sidq
