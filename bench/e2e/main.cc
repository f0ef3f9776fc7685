// bench_e2e: the composed record -> stream -> store -> query path of sidq,
// measured end to end and attributed to layers.
//
//   bench_e2e --workload NAME --seed N [--seconds S] [--quick] [--verify]
//             [--trace-out FILE]
//
// One process runs one workload (workloads.h): it sets the workload up,
// then runs its ops in a closed loop with one client for --seconds,
// always completing the fingerprinted prefix. Untraced, it reports the
// end-to-end metrics. With --trace-out it runs the loop untraced for half
// the time, then the same ops again traced, reports per-layer metrics
// from the traced half, and writes the spans as Chrome trace JSON.
// --verify recomputes the prefix with independent references. Last, it
// sets the workload up four more times (not with --quick) and reports
// the median of the five set-up times as setup_s. End-to-end times are
// reference-clock times (see kReferenceGhz); the wall times are reported
// beside them. The last stdout line is `E2E_RESULT {json}`;
// bench/e2e/run.py reads it.
//
// Store workloads write under $TMPDIR (default /tmp) and remove their
// files on exit.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "kernels/dispatch.h"
#include "obs/export.h"
#include "trace.h"
#include "workloads.h"

namespace sidq {
namespace e2e {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool quick = false;
  bool verify = false;
  std::string trace_out;
};

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N [--seconds S] [--quick] "
               "[--verify] [--trace-out FILE]\n"
               "workloads:",
               argv0);
  for (const char* name : kWorkloadNames) std::fprintf(stderr, " %s", name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds" && has_value) {
      args.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace-out" && has_value) {
      args.trace_out = argv[++i];
    } else if (a == "--quick") {
      args.quick = true;
    } else if (a == "--verify") {
      args.verify = true;
    } else {
      Usage(argv[0]);
    }
  }
  if (args.workload.empty() || !have_seed || !(args.seconds >= 0.0)) {
    Usage(argv[0]);
  }
  return args;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Linear interpolation between the closest ranks.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// This process's resident-set high-water mark. VmHWM, not ru_maxrss:
// Linux carries ru_maxrss across execve, so it would report the parent
// that forked us whenever that is larger.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  struct rusage ru {};
  if (::getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Reference-clock time. Shared hosts move a core's clock between turbo
// steps as other tenants load the socket (3.1-4.0 GHz on the machine in
// README.md), and every wall time moves with it. The end-to-end times are
// therefore the cycles an op took, read as time at kReferenceGhz: wall
// time x measured clock / kReferenceGhz. A change to the code still moves
// them in full; the host's clock does not.
constexpr double kReferenceGhz = 3.0;

// The clock now, in GHz, read off a dependent multiply-add chain. Each
// step waits for the last, so a step takes 4 cycles (a 3-cycle imul and a
// 1-cycle add, on Intel Core/Xeon and AMD Zen) whatever the core could
// overlap. The fastest of three chains of ~50 us, so one interrupted
// chain does not count.
double ClockGhz() {
  constexpr int kSteps = 50'000;
  constexpr double kCyclesPerStep = 4.0;
  int64_t best = std::numeric_limits<int64_t>::max();
  uint64_t y = NowNs();
  for (int r = 0; r < 3; ++r) {
    const int64_t t0 = NowNs();
    for (int s = 0; s < kSteps; ++s) {
      y = y * 6364136223846793005ull + 1;
      asm volatile("" : "+r"(y));  // keep every step, in order
    }
    best = std::min(best, NowNs() - t0);
  }
  return kCyclesPerStep * kSteps /
         static_cast<double>(std::max<int64_t>(best, 1));
}

struct Phase {
  size_t ops = 0;
  int64_t op_ns = 0;    // summed op durations: the measured work
  int64_t wall_ns = 0;  // loop wall time less the untimed work between ops
  std::vector<double> request_ms;
  // The same at kReferenceGhz (end-to-end metrics use these).
  double ref_op_ns = 0.0;
  std::vector<double> ref_request_ms;
  std::vector<double> clock_ghz;  // every clock reading
  uint64_t rows = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<uint64_t> prefix_ops;
  uint64_t checksum = 0;
  std::string error;  // first failure or inconsistency; empty when none
  Counters counters;
};

// Closed loop, one client: op i+1 starts when op i returns. Runs the
// prefix_ops() prefix, then stops at the first multiple of stop_every()
// ops past `seconds`, or at `max_ops`. The clock is read before and after
// every op, and the op's reference-clock time uses the mean of the two.
Phase RunPhase(Workload* w, Tracer* tracer, double seconds, size_t max_ops) {
  Phase p;
  std::map<uint64_t, uint64_t> by_key;
  const size_t prefix = w->prefix_ops();
  const size_t stop_every = w->stop_every();
  const int64_t budget_ns = static_cast<int64_t>(
      std::min(seconds * 1e9, static_cast<double>(
                                  std::numeric_limits<int64_t>::max() / 2)));
  const int64_t start = NowNs();
  int64_t untimed_ns = 0;
  for (size_t i = 0; i < max_ops && p.error.empty(); ++i) {
    if (i >= prefix && i % stop_every == 0 && NowNs() - start >= budget_ns) {
      break;
    }
    int64_t u0 = NowNs();
    const double ghz_before = ClockGhz();
    const Status prepared = w->Prepare(i);
    untimed_ns += NowNs() - u0;
    if (!prepared.ok()) {
      p.error = "prepare: " + prepared.ToString();
      break;
    }
    OpContext ctx;
    ctx.tracer = tracer;
    ctx.counters = &p.counters;
    tracer->NextRequest();
    const int64_t t0 = NowNs();
    {
      ScopedSpan root(tracer, "glue.op");
      w->Run(i, &ctx);
    }
    const int64_t dt = NowNs() - t0;
    u0 = NowNs();
    p.clock_ghz.push_back(0.5 * (ghz_before + ClockGhz()));
    untimed_ns += NowNs() - u0;
    const double scale = p.clock_ghz.back() / kReferenceGhz;
    ++p.ops;
    p.op_ns += dt;
    p.ref_op_ns += static_cast<double>(dt) * scale;
    if (w->op_is_request()) ctx.request_ms = {static_cast<double>(dt) / 1e6};
    for (const double ms : ctx.request_ms) {
      p.request_ms.push_back(ms);
      p.ref_request_ms.push_back(ms * scale);
    }
    p.rows += ctx.rows;
    p.attempted += ctx.attempted;
    p.failed += ctx.failed;

    const auto [it, fresh] = by_key.emplace(w->op_key(i), ctx.checksum);
    if (!fresh && it->second != ctx.checksum) {
      p.error = "op " + std::to_string(i) +
                " disagrees with an earlier op computing the same result";
    }
    if (i < prefix) p.prefix_ops.push_back(ctx.checksum);
    if (i + 1 == prefix) {
      u0 = NowNs();
      const StatusOr<uint64_t> sum = w->PrefixChecksum(p.prefix_ops);
      untimed_ns += NowNs() - u0;
      if (sum.ok()) {
        p.checksum = *sum;
      } else {
        p.error = "prefix checksum: " + sum.status().ToString();
      }
    }
  }
  p.wall_ns = NowNs() - start - untimed_ns;
  return p;
}

// Appends `"name":value` pairs with every digit a double carries.
class JsonObject {
 public:
  void Add(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(value) ? value : 0.0);
    Raw(key, buf);
  }
  void Add(const std::string& key, uint64_t value) {
    Raw(key, std::to_string(value));
  }
  void Add(const std::string& key, bool value) {
    Raw(key, value ? "true" : "false");
  }
  void AddString(const std::string& key, const std::string& value) {
    std::string quoted(1, '"');
    quoted += obs::internal_json::EscapeString(value);
    quoted += '"';
    Raw(key, quoted);
  }
  void Raw(const std::string& key, const std::string& json) {
    body_ += body_.empty() ? "{" : ",";
    body_ += '"';
    body_ += key;
    body_ += "\":";
    body_ += json;
  }
  [[nodiscard]] std::string str() const {
    return body_.empty() ? "{}" : body_ + "}";
  }

 private:
  std::string body_;
};

// Per-layer metrics from the traced phase; names match BENCHMARK.json.
JsonObject LayerMetrics(const Tracer& tracer, const Phase& traced,
                        const Phase& untraced, const Facts& facts,
                        double open_ms) {
  const Attribution a = tracer.Attribute();
  const double wall = static_cast<double>(traced.wall_ns);
  const Counters& c = traced.counters;
  auto p50 = [&a](const char* name) {
    const auto it = a.durations_ns.find(name);
    if (it == a.durations_ns.end()) return 0.0;
    return Median(std::vector<double>(it->second.begin(), it->second.end()));
  };
  auto total = [&a](const char* name) {
    const auto it = a.durations_ns.find(name);
    double sum = 0.0;
    if (it != a.durations_ns.end()) {
      for (const int64_t d : it->second) sum += static_cast<double>(d);
    }
    return sum;
  };
  auto max_of = [&a](const char* name) {
    const auto it = a.durations_ns.find(name);
    if (it == a.durations_ns.end() || it->second.empty()) return 0.0;
    return static_cast<double>(
        *std::max_element(it->second.begin(), it->second.end()));
  };
  auto self_named = [&a](const char* name) {
    const auto it = a.self_ns_by_name.find(name);
    return it == a.self_ns_by_name.end() ? 0.0
                                         : static_cast<double>(it->second);
  };
  auto hist = [&tracer](const char* name) -> const LogHistogram* {
    const auto it = tracer.histograms().find(name);
    return it == tracer.histograms().end() ? nullptr : &it->second;
  };
  std::array<double, kNumLayers> share{};
  double share_sum = 0.0;
  for (int l = 0; l < kNumLayers; ++l) {
    share[l] = Ratio(static_cast<double>(a.self_ns[l]), wall);
    share_sum += share[l];
  }
  const LogHistogram* push = hist("stream.push");
  const LogHistogram* append = hist("store.append");

  JsonObject m;
  m.Add("stream.push_us_p50", push ? push->Percentile(0.50) / 1e3 : 0.0);
  m.Add("stream.push_us_p99", push ? push->Percentile(0.99) / 1e3 : 0.0);
  m.Add("stream.flush_ms_p50", p50("stream.flush") / 1e6);
  m.Add("stream.self_share", share[1]);
  m.Add("stream.admitted_ratio",
        Ratio(static_cast<double>(facts.stream_admitted),
              static_cast<double>(facts.stream_ingested)));
  m.Add("stream.windows_closed", facts.stream_windows_closed);
  m.Add("store.append_ns_per_row",
        append ? Ratio(static_cast<double>(append->sum_ns()),
                       static_cast<double>(append->count()))
               : 0.0);
  m.Add("store.commit_ms_p50", p50("store.commit") / 1e6);
  m.Add("store.commit_ms_max", max_of("store.commit") / 1e6);
  m.Add("store.write_self_share",
        Ratio(self_named("store.append") + self_named("store.commit"), wall));
  m.Add("store.scan_ms_p50", p50("store.scan") / 1e6);
  m.Add("store.scan_rows_per_s",
        Ratio(static_cast<double>(c.scan_rows_delivered),
              total("store.scan") / 1e9));
  m.Add("store.scan_self_share", Ratio(self_named("store.scan"), wall));
  m.Add("store.cache_hit_ratio",
        Ratio(static_cast<double>(c.cache_hits),
              static_cast<double>(c.cache_hits + c.cache_misses)));
  m.Add("store.cache_evictions", c.cache_evictions);
  m.Add("store.rows_examined_per_result",
        Ratio(static_cast<double>(c.scan_rows_delivered),
              static_cast<double>(c.scan_rows_matched)));
  m.Add("store.open_ms", open_ms);
  m.Add("store.self_share", share[2]);
  m.Add("store.disk_bytes_per_row", facts.disk_bytes_per_row);
  m.Add("query.build_ms_p50", p50("query.build") / 1e6);
  m.Add("query.knn_ms_p50", p50("query.knn") / 1e6);
  m.Add("query.prange_ms_p50", p50("query.prange") / 1e6);
  m.Add("query.self_share", share[3]);
  m.Add("query.knn_dtw_per_query",
        Ratio(static_cast<double>(c.knn_dtw), static_cast<double>(c.knn_calls)));
  m.Add("query.knn_pruned_ratio",
        Ratio(static_cast<double>(c.knn_pruned),
              static_cast<double>(c.knn_candidates)));
  m.Add("query.prange_exact_ratio",
        Ratio(static_cast<double>(c.prange_exact),
              static_cast<double>(c.prange_objects)));
  m.Add("exec.pass_s_p50", p50("exec.run") / 1e9);
  m.Add("exec.cpu_utilization",
        Ratio(c.exec_cpu_s, c.exec_wall_s * facts.exec_workers));
  m.Add("exec.self_share", share[4]);
  m.Add("exec.objects_degraded", facts.objects_degraded);
  m.Add("glue.self_share", share[0]);
  m.Add("trace.self_share_sum", share_sum);
  m.Add("trace.overhead_ratio", Ratio(traced.ref_op_ns, untraced.ref_op_ns));
  return m;
}

// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 5;

// mkdtemp under $TMPDIR; removed (with the store inside) on destruction.
class ScratchDir {
 public:
  ScratchDir() {
    const char* tmp = std::getenv("TMPDIR");
    std::string pattern = (tmp != nullptr && *tmp != '\0') ? tmp : "/tmp";
    pattern += "/sidq_e2e.XXXXXX";
    std::vector<char> buf(pattern.begin(), pattern.end());
    buf.push_back('\0');
    if (::mkdtemp(buf.data()) == nullptr) {
      std::fprintf(stderr, "bench_e2e: mkdtemp(%s) failed\n", pattern.c_str());
      std::exit(1);
    }
    path_ = buf.data();
  }
  ~ScratchDir() {
    RemoveDir(path_ + "/store");
    RemoveDir(path_);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

struct SetupTimes {
  std::vector<double> ref_s;  // at kReferenceGhz
  std::vector<double> wall_s;
  std::vector<double> open_ms;  // Store::Open inside the set-up
};

// Builds a fresh instance of the workload into `*w` and sets it up,
// recording its times. False on failure.
bool SetUp(const Args& args, const std::string& scratch,
           std::unique_ptr<Workload>* w, SetupTimes* times) {
  *w = MakeWorkload(args.workload, args.seed, args.quick, scratch);
  const double scale = ClockGhz() / kReferenceGhz;
  const int64_t t0 = NowNs();
  const Status st = (*w)->Setup();
  times->wall_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  times->ref_s.push_back(times->wall_s.back() * scale);
  if (!st.ok()) {
    std::fprintf(stderr, "bench_e2e: %s set-up failed: %s\n",
                 args.workload.c_str(), st.ToString().c_str());
    return false;
  }
  times->open_ms.push_back((*w)->facts().open_ms);
  return true;
}

// rows_per_s and the request percentiles of a phase's ops, in wall time
// or in reference-clock time.
void AddOpMetrics(const Phase& p, bool reference, JsonObject* out) {
  const double op_s =
      (reference ? p.ref_op_ns : static_cast<double>(p.op_ns)) / 1e9;
  const std::vector<double>& ms = reference ? p.ref_request_ms : p.request_ms;
  out->Add("rows_per_s", Ratio(static_cast<double>(p.rows), op_s));
  out->Add("request_p50_ms", Quantile(ms, 0.50));
  out->Add("request_p90_ms", Quantile(ms, 0.90));
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  if (std::find(std::begin(kWorkloadNames), std::end(kWorkloadNames),
                args.workload) == std::end(kWorkloadNames)) {
    Usage(argv[0]);
  }
  const ScratchDir scratch;
  const char* isa = kernels::IsaName(kernels::KernelDispatch::Active());

  SetupTimes setup;
  std::unique_ptr<Workload> w;
  if (!SetUp(args, scratch.path(), &w, &setup)) return 1;
  std::printf("workload %s seed %llu%s: %s\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              args.quick ? " (quick)" : "", w->Describe().c_str());
  std::printf("kernels.isa %s, hardware threads %u\n", isa,
              std::thread::hardware_concurrency());

  const bool traced = !args.trace_out.empty();
  Tracer off(false);
  const Phase untraced =
      RunPhase(w.get(), &off, traced ? args.seconds / 2 : args.seconds,
               std::numeric_limits<size_t>::max());
  const double peak_rss_mb = PeakRssMb();

  std::string error = untraced.error;
  Tracer on(true);
  Phase traced_phase;
  if (traced && error.empty()) {
    traced_phase = RunPhase(w.get(), &on, std::numeric_limits<double>::max(),
                            untraced.ops);
    error = traced_phase.error;
    if (error.empty() && traced_phase.checksum != untraced.checksum) {
      error = "traced run computed a different checksum";
    }
  }

  std::string verify = "skipped";
  if (args.verify && error.empty()) {
    const Status st = w->Verify(untraced.prefix_ops, untraced.checksum);
    verify = st.ok() ? "pass" : "fail";
    if (!st.ok()) error = "verify: " + st.ToString();
  }
  if (error.empty() && untraced.failed + traced_phase.failed > 0) {
    error = "timed calls failed";
  }

  // More set-ups for the setup_s median, after everything measured and
  // checked above, so they touch neither the ops' timings nor peak RSS.
  const Facts facts = w->facts();
  const std::string sizes = w->Describe();
  w.reset();
  const int setup_reps = args.quick ? 1 : kSetupReps;
  for (int r = 1; r < setup_reps && error.empty(); ++r) {
    std::unique_ptr<Workload> again;
    if (!SetUp(args, scratch.path(), &again, &setup)) return 1;
  }

  std::string layers;
  if (traced && error.empty()) {
    layers = LayerMetrics(on, traced_phase, untraced, facts,
                          Median(setup.open_ms))
                 .str();
    JsonObject run;
    run.AddString("workload", args.workload);
    run.Add("seed", args.seed);
    run.AddString("kernels.isa", isa);
    const Status st =
        obs::WriteTextFile(args.trace_out, on.ToChromeJson(run.str()));
    if (!st.ok()) error = "trace write: " + st.ToString();
  }

  JsonObject e2e;
  e2e.Add("setup_s", Median(setup.ref_s));
  AddOpMetrics(untraced, true, &e2e);
  e2e.Add("peak_rss_mb", peak_rss_mb);
  JsonObject wall;
  wall.Add("setup_s", Median(setup.wall_s));
  AddOpMetrics(untraced, false, &wall);

  JsonObject result;
  result.AddString("workload", args.workload);
  result.Add("seed", args.seed);
  result.Add("quick", args.quick);
  result.AddString("kernels.isa", isa);
  result.Add("hardware_threads",
             static_cast<uint64_t>(std::thread::hardware_concurrency()));
  result.AddString("sizes", sizes);
  char checksum[32];
  std::snprintf(checksum, sizeof(checksum), "%016llx",
                static_cast<unsigned long long>(untraced.checksum));
  result.AddString("checksum", checksum);
  result.AddString("verify", verify);
  result.AddString("error", error);
  result.Add("ops", static_cast<uint64_t>(untraced.ops));
  result.Add("requests", static_cast<uint64_t>(untraced.request_ms.size()));
  result.Add("measured_s", static_cast<double>(untraced.op_ns) / 1e9);
  result.Add("attempted", untraced.attempted + traced_phase.attempted);
  result.Add("failed", untraced.failed + traced_phase.failed);
  result.Add("clock_ghz", Median(untraced.clock_ghz));
  result.Raw("e2e", e2e.str());
  result.Raw("wall", wall.str());
  if (!layers.empty()) result.Raw("layers", layers);

  std::printf("E2E_RESULT %s\n", result.str().c_str());
  if (!error.empty()) {
    std::fprintf(stderr, "bench_e2e: %s: %s\n", args.workload.c_str(),
                 error.c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace e2e
}  // namespace sidq

int main(int argc, char** argv) { return sidq::e2e::Main(argc, argv); }
