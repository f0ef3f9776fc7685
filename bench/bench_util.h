#pragma once

// Shared helpers for the experiment harness. Every bench binary regenerates
// one experiment from DESIGN.md and prints it as a markdown table so
// EXPERIMENTS.md can quote the output verbatim.
//
// The component benches (bench_exec_fleet, bench_kernels, bench_stream,
// bench_store) also print exactly one machine-readable line,
//
//   BENCH_JSON: {"bench":"...",...}
//
// built with JsonWriter and printed by EmitJson; scripts/bench_json.py
// records it as the matching BENCH_*.json artifact. Their equivalence
// gates go through Die and RequireEqual, which exit 1 naming what failed.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "core/status.h"
#include "obs/export.h"

namespace sidq {
namespace bench {

// A minimal markdown table writer: set headers, add rows of formatted
// cells, print.
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void AddRow(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  void Print() const {
    PrintRow(headers_);
    std::vector<std::string> rule;
    rule.reserve(headers_.size());
    for (const auto& h : headers_) {
      rule.push_back(std::string(std::max<size_t>(3, h.size()), '-'));
    }
    PrintRow(rule);
    for (const auto& row : rows_) PrintRow(row);
    std::printf("\n");
  }

 private:
  void PrintRow(const std::vector<std::string>& cells) const {
    std::printf("|");
    for (size_t i = 0; i < cells.size(); ++i) {
      const size_t width =
          i < headers_.size() ? std::max(headers_[i].size(), size_t{3}) : 3;
      std::printf(" %-*s |", static_cast<int>(width), cells[i].c_str());
    }
    std::printf("\n");
  }

  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string Fmt(const char* format, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, value);
  return buf;
}

inline std::string F1(double v) { return Fmt("%.1f", v); }
inline std::string F2(double v) { return Fmt("%.2f", v); }
inline std::string F3(double v) { return Fmt("%.3f", v); }
inline std::string FInt(double v) { return Fmt("%.0f", v); }

inline void Banner(const char* experiment, const char* title,
                   const char* claim) {
  std::printf("== %s: %s ==\n", experiment, title);
  std::printf("paper claim: %s\n\n", claim);
}

inline double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Prints "<what>: <status>" to stderr and exits 1.
[[noreturn]] inline void Die(const std::string& what, const Status& st) {
  std::fprintf(stderr, "%s: %s\n", what.c_str(), st.ToString().c_str());
  std::exit(1);
}

// The equivalence gate: unless `got` equals `want` (a checksum or a row
// count), prints "MISMATCH: <what>" with both values and exits 1.
inline void RequireEqual(const std::string& what, uint64_t want,
                         uint64_t got) {
  if (want == got) return;
  std::fprintf(stderr, "MISMATCH: %s: want %llu, got %llu\n", what.c_str(),
               static_cast<unsigned long long>(want),
               static_cast<unsigned long long>(got));
  std::exit(1);
}

// Ordered JSON writer for the BENCH_JSON payload. Members appear in call
// order, each number with the decimals its caller names. The writer starts
// inside the root object; Object/Array open a container, End closes the
// innermost one, and str() closes whatever is still open. Keys are ignored
// inside arrays. A non-finite number exits 1 naming its key path (e.g.
// "workloads.cpu_bound[1].speedup") instead of printing `nan`. Strings are
// escaped by obs::internal_json::EscapeString, so a bench that emits JSON
// links sidq_obs.
class JsonWriter {
 public:
  JsonWriter() {
    out_.push_back('{');
    stack_.push_back({'}', std::string()});
  }

  JsonWriter& Object(std::string_view key = {}) { return Open('{', key); }
  JsonWriter& Array(std::string_view key) { return Open('[', key); }
  JsonWriter& End() {
    out_ += stack_.back().close;
    stack_.pop_back();
    return *this;
  }

  JsonWriter& Str(std::string_view key, std::string_view value) {
    Member(key);
    Quote(value);
    return *this;
  }
  JsonWriter& Int(std::string_view key, uint64_t value) {
    Member(key);
    out_ += std::to_string(value);
    return *this;
  }
  JsonWriter& Num(std::string_view key, double value, int decimals) {
    const std::string path = Member(key);
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "BENCH_JSON: non-finite number at %s\n",
                   path.c_str());
      std::exit(1);
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
    out_ += buf;
    return *this;
  }
  JsonWriter& Bool(std::string_view key, bool value) {
    Member(key);
    out_ += value ? "true" : "false";
    return *this;
  }
  // Embeds `json`, an already-serialized single-line JSON value, verbatim.
  JsonWriter& Raw(std::string_view key, std::string_view json) {
    Member(key);
    out_ += json;
    return *this;
  }

  std::string str() const {
    std::string out = out_;
    for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
      out += it->close;
    }
    return out;
  }

 private:
  struct Frame {
    char close;
    std::string path;  // key path of this container; empty for the root
    size_t members = 0;
  };

  JsonWriter& Open(char open, std::string_view key) {
    std::string path = Member(key);
    out_ += open;
    stack_.push_back({open == '{' ? '}' : ']', std::move(path)});
    return *this;
  }

  // Starts the next member of the innermost container and returns its key
  // path.
  std::string Member(std::string_view key) {
    Frame& f = stack_.back();
    if (f.members++ > 0) out_ += ',';
    if (f.close == ']') {
      return f.path + "[" + std::to_string(f.members - 1) + "]";
    }
    Quote(key);
    out_ += ':';
    return f.path.empty() ? std::string(key) : f.path + "." + std::string(key);
  }

  void Quote(std::string_view s) {
    out_ += '"';
    out_ += obs::internal_json::EscapeString(std::string(s));
    out_ += '"';
  }

  std::string out_;
  std::vector<Frame> stack_;
};

// Prints the bench's one "BENCH_JSON: {...}" line.
inline void EmitJson(const JsonWriter& json) {
  std::printf("BENCH_JSON: %s\n", json.str().c_str());
}

}  // namespace bench
}  // namespace sidq
