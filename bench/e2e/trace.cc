#include "trace.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace sidq {
namespace e2e {
namespace {

int BucketOf(int64_t ns) {
  const uint64_t v = ns < 0 ? 0 : static_cast<uint64_t>(ns);
  if (v < 32) return static_cast<int>(v);
  const int e = 63 - std::countl_zero(v);  // >= 5
  const int sub = static_cast<int>((v >> (e - 4)) & 15);
  return 32 + (e - 5) * 16 + sub;
}

double BucketMid(int b) {
  if (b < 32) return b;
  const int e = (b - 32) / 16 + 5;
  const int sub = (b - 32) % 16;
  const double lo = std::ldexp(16.0 + sub, e - 4);
  const double hi = std::ldexp(17.0 + sub, e - 4);
  return 0.5 * (lo + hi);
}

int LayerOf(const char* name) {
  const char* dot = std::strchr(name, '.');
  const size_t len = dot == nullptr ? std::strlen(name)
                                    : static_cast<size_t>(dot - name);
  for (int l = 0; l < kNumLayers; ++l) {
    if (std::strlen(kLayerNames[l]) == len &&
        std::strncmp(kLayerNames[l], name, len) == 0) {
      return l;
    }
  }
  std::fprintf(stderr, "bench_e2e: span '%s' names no layer\n", name);
  std::abort();
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void LogHistogram::Record(int64_t ns) {
  ++buckets_[BucketOf(ns)];
  ++count_;
  sum_ns_ += ns;
}

double LogHistogram::Percentile(double q) const {
  if (count_ == 0) return 0.0;
  const int64_t rank = std::max<int64_t>(
      1, static_cast<int64_t>(std::ceil(q * static_cast<double>(count_))));
  int64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += buckets_[b];
    if (seen >= rank) return BucketMid(b);
  }
  return BucketMid(kBuckets - 1);
}

int32_t Tracer::Begin(const char* name) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request_;
  span.start_ns = NowNs();
  spans_.push_back(span);
  const int32_t id = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void Tracer::End(int32_t id) {
  spans_[id].end_ns = NowNs();
  // Spans close in LIFO order (ScopedSpan); tolerate nothing else.
  if (open_.empty() || open_.back() != id) {
    std::fprintf(stderr, "bench_e2e: span '%s' closed out of order\n",
                 spans_[id].name);
    std::abort();
  }
  open_.pop_back();
}

LogHistogram* Tracer::histogram(const char* name) {
  return enabled_ ? &histograms_[name] : nullptr;
}

Attribution Tracer::Attribute() const {
  Attribution out;
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const int64_t dur = s.end_ns - s.start_ns;
    out.self_ns[LayerOf(s.name)] += dur - child_ns[i];
    out.self_ns_by_name[s.name] += dur - child_ns[i];
    out.durations_ns[s.name].push_back(dur);
  }
  return out;
}

std::string Tracer::ToChromeJson(const std::string& run) const {
  const int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  std::string out = "{\"traceEvents\":[";
  char buf[320];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                  "\"args\":{\"request\":%u,\"parent\":%d}}",
                  i == 0 ? "" : ",", s.name, kLayerNames[LayerOf(s.name)],
                  static_cast<double>(s.start_ns - t0) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.request,
                  s.parent);
    out += buf;
  }
  out += "\n],\"displayTimeUnit\":\"ns\",\"otherData\":{\"run\":";
  out += run;
  out += ",\"histograms\":{";
  bool first = true;
  for (const auto& [name, h] : histograms_) {
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\":{\"count\":%lld,\"sum_ns\":%lld,\"p50_ns\":%.1f,"
                  "\"p99_ns\":%.1f}",
                  first ? "" : ",", name.c_str(),
                  static_cast<long long>(h.count()),
                  static_cast<long long>(h.sum_ns()), h.Percentile(0.50),
                  h.Percentile(0.99));
    out += buf;
    first = false;
  }
  out += "}}}\n";
  return out;
}

}  // namespace e2e
}  // namespace sidq
