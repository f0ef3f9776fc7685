#include "workloads.h"

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>

#include "core/pipeline.h"
#include "core/random.h"
#include "core/stid.h"
#include "core/trajectory.h"
#include "exec/fleet_runner.h"
#include "geometry/bbox.h"
#include "outlier/trajectory_outliers.h"
#include "query/similarity.h"
#include "query/uncertain_point.h"
#include "reduce/simplify.h"
#include "refine/kalman.h"
#include "sim/sensor_field.h"
#include "sim/trajectory_sim.h"
#include "store/format.h"
#include "store/store.h"
#include "store/vfs.h"
#include "stream/engine.h"
#include "stream/event_log.h"
#include "stream/replay.h"

namespace sidq {
namespace e2e {
namespace {

// Every workload lives in the same 8 km x 8 km square.
constexpr double kSide = 8000.0;
const geometry::BBox kBounds(0.0, 0.0, kSide, kSide);

// Query shape shared by query_hot, query_cold and ingest_query_mix.
constexpr size_t kKnnQueries = 4;
constexpr size_t kKnnK = 10;
constexpr size_t kRangeBoxes = 256;
constexpr double kTau = 0.5;
constexpr double kQueryJitterM = 10.0;

// Salts separating the substreams one --seed feeds.
constexpr uint64_t kDataSalt = 0x64617461;     // "data"
constexpr uint64_t kRequestSalt = 0x72657173;  // "reqs"

uint64_t Bits(double d) {
  uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

uint64_t HashRecord(uint64_t h, const StRecord& rec) {
  h = Fnv(h, rec.sensor);
  h = Fnv(h, static_cast<uint64_t>(rec.t));
  h = Fnv(h, Bits(rec.loc.x));
  h = Fnv(h, Bits(rec.loc.y));
  h = Fnv(h, Bits(rec.value));
  return Fnv(h, Bits(rec.stddev));
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

// ---------------------------------------------------------------------------
// Store helpers

void RemoveDir(const std::string& dir) {
  store::Vfs* vfs = store::DefaultVfs();
  const StatusOr<std::vector<std::string>> names = vfs->ListDir(dir);
  if (names.ok()) {
    for (const std::string& name : *names) {
      (void)vfs->Remove(dir + "/" + name);  // sidq: allow-ignored-status(best-effort scratch cleanup)
    }
  }
  ::rmdir(dir.c_str());
}

namespace {

// Opens an empty store in `dir`, discarding whatever was there.
StatusOr<std::unique_ptr<store::Store>> OpenFresh(
    const std::string& dir, const store::StoreOptions& options,
    double* open_ms) {
  RemoveDir(dir);
  const int64_t t0 = NowNs();
  StatusOr<std::unique_ptr<store::Store>> db =
      store::Store::Open(nullptr, dir, options);
  if (open_ms != nullptr) *open_ms = static_cast<double>(NowNs() - t0) / 1e6;
  return db;
}

// Segment bytes on disk divided by rows stored.
double DiskBytesPerRow(const store::Store& db) {
  store::Vfs* vfs = store::DefaultVfs();
  const StatusOr<std::vector<std::string>> names = vfs->ListDir(db.dir());
  if (!names.ok() || db.rows() == 0) return 0.0;
  uint64_t bytes = 0;
  for (const std::string& name : *names) {
    uint32_t segment = 0;
    if (!store::ParseSegmentFileName(name, &segment)) continue;
    const StatusOr<uint64_t> size = vfs->FileSize(db.dir() + "/" + name);
    if (size.ok()) bytes += *size;
  }
  return static_cast<double>(bytes) / static_cast<double>(db.rows());
}

// Runs one per-record call, timing it into `hist` when traced (non-null).
template <typename Fn>
Status Timed(LogHistogram* hist, Fn&& call) {
  if (hist == nullptr) return call();
  const int64_t t0 = NowNs();
  Status st = call();
  hist->Record(NowNs() - t0);
  return st;
}

// Appends `rows` inside one store.append span.
void AppendRows(store::Store* db, const StRecord* rows, size_t n,
                OpContext* ctx) {
  ScopedSpan span(ctx->tracer, "store.append");
  LogHistogram* hist = ctx->tracer->histogram("store.append");
  for (size_t i = 0; i < n; ++i) {
    ctx->Count(Timed(hist, [&] { return db->Append(rows[i]); }));
  }
}

void CommitStore(store::Store* db, OpContext* ctx) {
  ScopedSpan span(ctx->tracer, "store.commit");
  ctx->Count(db->Commit());
}

// ---------------------------------------------------------------------------
// Moving-object data shared by the query workloads

// Random-waypoint objects (cyclists roaming a 1.2 km home range each)
// observed with per-object Gaussian position error, as store rows in
// event-time order (time-major: row k*objects + o is object o's k-th
// sample). `stddev` carries the positioning accuracy. Home ranges keep
// trajectory MBRs apart, so kNN pruning has something to prune.
//
// Each home range is centred at a random spot in its own cell of a grid
// over the square, cells dealt to objects in a seeded order. Every run of
// the benchmark takes another seed, and the seed should change which
// inputs a run gets, not how much work they are: with centres drawn
// uniformly over the whole square, clumps and gaps made the DTW count per
// kNN query on query_hot range from 48 to 57 across ten seeds; with one
// centre per cell it ranges from 51 to 54.
std::vector<StRecord> MakeObjectRows(uint64_t seed, size_t objects,
                                     size_t samples, Timestamp interval_ms) {
  constexpr double kHomeHalfM = 600.0;
  Rng rng(DeriveSeed(seed, kDataSalt));
  sim::TrajectorySimulator::Options options;
  options.mean_speed_mps = 3.0;
  options.speed_jitter = 0.5;
  options.sample_interval_ms = interval_ms;
  const sim::TrajectorySimulator simulator(options, &rng);
  size_t grid = 1;
  while (grid * grid < objects) ++grid;
  const double cell = (kSide - 2.0 * kHomeHalfM) / static_cast<double>(grid);
  std::vector<size_t> cells(grid * grid);
  for (size_t c = 0; c < cells.size(); ++c) cells[c] = c;
  rng.Shuffle(cells);
  std::vector<Trajectory> truth;
  std::vector<double> accuracy;
  truth.reserve(objects);
  for (size_t o = 0; o < objects; ++o) {
    const double cx =
        kHomeHalfM +
        cell * (static_cast<double>(cells[o] % grid) + rng.Uniform(0.0, 1.0));
    const double cy =
        kHomeHalfM +
        cell * (static_cast<double>(cells[o] / grid) + rng.Uniform(0.0, 1.0));
    const geometry::BBox home(cx - kHomeHalfM, cy - kHomeHalfM,
                              cx + kHomeHalfM, cy + kHomeHalfM);
    truth.push_back(simulator.RandomWaypoint(home, samples, o));
    accuracy.push_back(rng.Uniform(3.0, 20.0));
  }
  std::vector<StRecord> rows;
  rows.reserve(objects * samples);
  for (size_t k = 0; k < samples; ++k) {
    for (size_t o = 0; o < objects; ++o) {
      const TrajectoryPoint& pt = truth[o][k];
      const geometry::Point seen(pt.p.x + rng.Gaussian(0.0, accuracy[o]),
                                 pt.p.y + rng.Gaussian(0.0, accuracy[o]));
      rows.emplace_back(o, pt.t, seen, truth[o].SpeedAt(k), accuracy[o]);
    }
  }
  return rows;
}

// One request: a time window and a bbox the scanned rows are filtered to,
// plus the key its query inputs are drawn from.
struct RequestSpec {
  Timestamp t_begin = 0;  // inclusive
  Timestamp t_end = 0;    // exclusive
  geometry::BBox box;
  // Objects with fewer matching rows are left out of the collection: an
  // eighth of the window's samples. DTW's scaled Sakoe-Chiba band has no
  // finite path between trajectories whose lengths differ by more than
  // ~32x, and a collection of such fragments makes kNN rank ties at
  // infinity, which no reference can reproduce.
  size_t min_points = 1;
  uint64_t key = 0;
};

// A bbox spanning 60-90% of the square along each axis.
geometry::BBox RandomWideBox(Rng* rng) {
  const double w = rng->Uniform(0.6, 0.9) * kSide;
  const double h = rng->Uniform(0.6, 0.9) * kSide;
  const double x = rng->Uniform(0.0, kSide - w);
  const double y = rng->Uniform(0.0, kSide - h);
  return geometry::BBox(x, y, x + w, y + h);
}

size_t MinPoints(Timestamp window_ms, Timestamp interval_ms) {
  return std::max<size_t>(1, static_cast<size_t>(window_ms / interval_ms / 8));
}

bool Matches(const RequestSpec& spec, const StRecord& rec) {
  return rec.t >= spec.t_begin && rec.t < spec.t_end &&
         spec.box.Contains(rec.loc);
}

// Groups matched rows into one trajectory per object, in object-id order,
// keeping objects with at least `min_points` rows.
std::vector<Trajectory> GroupByObject(const std::vector<StRecord>& rows,
                                      size_t objects, size_t min_points) {
  std::vector<std::vector<TrajectoryPoint>> per(objects);
  for (const StRecord& rec : rows) {
    if (rec.sensor < objects) per[rec.sensor].emplace_back(rec.t, rec.loc,
                                                           rec.stddev);
  }
  std::vector<Trajectory> out;
  for (size_t o = 0; o < objects; ++o) {
    if (per[o].size() < min_points) continue;  // min_points >= 1
    // Rows arrive in time order, so the points need no sort.
    out.emplace_back(o);
    out.back().mutable_points() = std::move(per[o]);
  }
  return out;
}

// The query inputs a request derives from its collection: noisy copies of
// stored objects for kNN, Gaussian last positions for the range query.
struct RequestInputs {
  std::vector<Trajectory> knn_queries;
  std::vector<query::UncertainPoint> points;
  std::vector<geometry::BBox> boxes;
};

RequestInputs MakeInputs(const std::vector<Trajectory>& collection,
                         const RequestSpec& spec, uint64_t seed) {
  Rng rng = Rng::ForKey(DeriveSeed(seed, kRequestSalt), spec.key);
  RequestInputs in;
  for (size_t q = 0; q < kKnnQueries && !collection.empty(); ++q) {
    const Trajectory& src = collection[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(collection.size()) - 1))];
    Trajectory noisy(src.object_id());
    noisy.Reserve(src.size());
    for (const TrajectoryPoint& pt : src.points()) {
      TrajectoryPoint moved = pt;
      moved.p.x += rng.Gaussian(0.0, kQueryJitterM);
      moved.p.y += rng.Gaussian(0.0, kQueryJitterM);
      noisy.AppendUnordered(moved);
    }
    in.knn_queries.push_back(std::move(noisy));
  }
  in.points.reserve(collection.size());
  for (const Trajectory& traj : collection) {
    in.points.push_back(query::UncertainPoint::MakeGaussian(
        traj.object_id(), traj.back().p, traj.back().accuracy));
  }
  in.boxes.reserve(kRangeBoxes);
  for (size_t b = 0; b < kRangeBoxes; ++b) {
    const double cx = rng.Uniform(0.0, kSide);
    const double cy = rng.Uniform(0.0, kSide);
    const double half = rng.Uniform(100.0, 400.0);
    in.boxes.emplace_back(cx - half, cy - half, cx + half, cy + half);
  }
  return in;
}

constexpr uint64_t kListEnd = ~0ull;

// The timed query stage: Build, kNN per query, one batched range query.
uint64_t RunQueries(const std::vector<Trajectory>& collection,
                    const RequestInputs& in, OpContext* ctx) {
  Tracer* tracer = ctx->tracer;
  Counters* counters = ctx->counters;
  uint64_t h = kFnvOffset;
  query::TrajectorySimilaritySearch search;
  {
    ScopedSpan span(tracer, "query.build");
    search.Build(&collection);
  }
  for (const Trajectory& q : in.knn_queries) {
    query::TrajectorySimilaritySearch::SearchStats stats;
    const StatusOr<std::vector<size_t>> ids = [&] {
      ScopedSpan span(tracer, "query.knn");
      return search.Knn(q, kKnnK, &stats);
    }();
    ctx->Count(ids.status());
    ++counters->knn_calls;
    counters->knn_dtw += stats.dtw_computed;
    counters->knn_candidates += stats.candidates;
    counters->knn_pruned += stats.pruned;
    if (ids.ok()) {
      for (const size_t i : *ids) h = Fnv(h, collection[i].object_id());
    }
    h = Fnv(h, kListEnd);
  }
  std::vector<query::PruningStats> stats;
  const std::vector<std::vector<ObjectId>> hits = [&] {
    ScopedSpan span(tracer, "query.prange");
    return query::ProbabilisticRangeQueryMany(in.points, in.boxes, kTau,
                                              &stats);
  }();
  for (const query::PruningStats& s : stats) {
    counters->prange_objects += s.total_objects;
    counters->prange_exact += s.evaluated_exact;
  }
  for (const std::vector<ObjectId>& ids : hits) {
    for (const ObjectId id : ids) h = Fnv(h, id);
    h = Fnv(h, kListEnd);
  }
  return h;
}

// Reference for RunQueries: DTW against every candidate, ranked by
// (distance, index), and one solo ProbabilisticRangeQuery per box.
uint64_t ReferenceQueries(const std::vector<Trajectory>& collection,
                          const RequestInputs& in) {
  const int band = query::TrajectorySimilaritySearch::Options{}.dtw_band;
  uint64_t h = kFnvOffset;
  for (const Trajectory& q : in.knn_queries) {
    std::vector<std::pair<double, size_t>> ranked;
    ranked.reserve(collection.size());
    for (size_t i = 0; i < collection.size(); ++i) {
      ranked.emplace_back(query::DtwDistance(q, collection[i], band), i);
    }
    const size_t k = std::min(kKnnK, ranked.size());
    std::partial_sort(ranked.begin(), ranked.begin() + k, ranked.end());
    for (size_t r = 0; r < k; ++r) {
      h = Fnv(h, collection[ranked[r].second].object_id());
    }
    h = Fnv(h, kListEnd);
  }
  for (const geometry::BBox& box : in.boxes) {
    for (const ObjectId id :
         query::ProbabilisticRangeQuery(in.points, box, kTau)) {
      h = Fnv(h, id);
    }
    h = Fnv(h, kListEnd);
  }
  return h;
}

// One request against the store: Scan with the request's filter, group
// per object, then the query stage. The per-row callback (predicate plus
// copying matches) runs inside Store::Scan and is charged to store.scan:
// it is the work a pushed-down predicate would replace.
uint64_t RunRequest(const store::Store& db, const RequestSpec& spec,
                    size_t objects, uint64_t seed, OpContext* ctx) {
  Counters* counters = ctx->counters;
  std::vector<StRecord> matched;
  uint64_t delivered = 0;
  const store::BlockCache::Stats before = db.cache_stats();
  {
    ScopedSpan span(ctx->tracer, "store.scan");
    ctx->Count(db.Scan([&](uint64_t, const StRecord& rec) {
      ++delivered;
      if (Matches(spec, rec)) matched.push_back(rec);
    }));
  }
  const store::BlockCache::Stats after = db.cache_stats();
  counters->scan_rows_delivered += delivered;
  counters->scan_rows_matched += matched.size();
  counters->cache_hits += after.hits - before.hits;
  counters->cache_misses += after.misses - before.misses;
  counters->cache_evictions += after.evictions - before.evictions;

  const std::vector<Trajectory> collection =
      GroupByObject(matched, objects, spec.min_points);
  const RequestInputs in = MakeInputs(collection, spec, seed);
  return RunQueries(collection, in, ctx);
}

// RunRequest's reference over the generated rows held in memory.
uint64_t ReferenceRequest(const std::vector<StRecord>& rows, size_t n_rows,
                          const RequestSpec& spec, size_t objects,
                          uint64_t seed) {
  std::vector<StRecord> matched;
  for (size_t r = 0; r < n_rows; ++r) {
    if (Matches(spec, rows[r])) matched.push_back(rows[r]);
  }
  const std::vector<Trajectory> collection =
      GroupByObject(matched, objects, spec.min_points);
  return ReferenceQueries(collection, MakeInputs(collection, spec, seed));
}

Status Mismatch(const char* what, size_t op, uint64_t got, uint64_t want) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%s: op %zu checksum %016llx, reference %016llx", what, op,
                static_cast<unsigned long long>(got),
                static_cast<unsigned long long>(want));
  return Status::DataLoss(buf);
}

// ---------------------------------------------------------------------------
// ingest: gateway groups of dirty sensor streams -> StreamEngine -> Store

class IngestWorkload : public Workload {
 public:
  IngestWorkload(uint64_t seed, bool quick, std::string dir)
      : seed_(seed),
        groups_(quick ? 4 : 32),
        fan_in_(quick ? 16 : 64),
        samples_(quick ? 120 : 1000),
        dir_(std::move(dir)) {}

  Status Setup() override {
    Rng rng(DeriveSeed(seed_, kDataSalt));
    const sim::ScalarField field = sim::ScalarField::MakeRandom(
        kBounds, 3, 20.0, 30.0, 300.0, 900.0, 3600.0, &rng);
    stream::ArrivalOptions arrivals;
    arrivals.mean_delay_ms = 20'000;
    arrivals.straggler_probability = 0.05;
    arrivals.straggler_delay_ms = 400'000;
    arrivals.duplicate_probability = 0.05;
    logs_.clear();
    sensors_ = 0;
    for (size_t g = 0; g < groups_; ++g) {
      const std::vector<geometry::Point> sensors =
          sim::DeploySensors(kBounds, static_cast<int>(fan_in_), &rng);
      StDataset dirty = sim::AddValueNoise(
          sim::SampleField(field, sensors, 0, 60'000,
                           static_cast<int>(samples_), "pm25"),
          0.8, &rng);
      dirty = sim::AddValueSpikes(dirty, 0.02, 400.0, &rng);
      stream::EventLog log = stream::RecordArrivals(dirty, arrivals, &rng);
      // SampleField numbers sensors from 0 in every group; give each
      // gateway its own id range.
      for (stream::StreamEvent& ev : log.events) ev.record.sensor += sensors_;
      sensors_ += sensors.size();
      logs_.push_back(std::move(log));
    }
    config_ = MakeStreamConfig();
    StatusOr<std::unique_ptr<store::Store>> db =
        OpenFresh(dir_, store::StoreOptions{}, &facts_.open_ms);
    if (!db.ok()) return db.status();
    store_ = std::move(*db);
    return Status::OK();
  }

  std::string Describe() const override {
    size_t events = 0;
    for (const stream::EventLog& log : logs_) events += log.size();
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "%zu gateway groups of %zu sensors x %zu samples: %zu "
                  "arrival-ordered events; one Commit per group",
                  groups_, fan_in_, samples_, events);
    return buf;
  }

  size_t prefix_ops() const override { return groups_; }
  // Every group has the same sensors and samples, so a run may stop after
  // any of them rather than finish a ~5 s cycle.
  size_t stop_every() const override { return 1; }
  uint64_t op_key(size_t i) const override { return i % groups_; }

  Status Prepare(size_t i) override {
    if (i % groups_ != 0) return Status::OK();
    store_.reset();
    StatusOr<std::unique_ptr<store::Store>> db =
        OpenFresh(dir_, store::StoreOptions{}, nullptr);
    if (!db.ok()) return db.status();
    store_ = std::move(*db);
    return Status::OK();
  }

  void Run(size_t i, OpContext* ctx) override {
    const stream::EventLog& log = logs_[i % groups_];
    Tracer* tracer = ctx->tracer;
    stream::StreamEngine engine(config_);
    engine.set_field_name(log.field_name);
    {
      ScopedSpan span(tracer, "stream.push");
      LogHistogram* hist = tracer->histogram("stream.push");
      for (const stream::StreamEvent& ev : log.events) {
        ctx->Count(Timed(hist, [&] { return engine.Push(ev); }));
      }
    }
    {
      ScopedSpan span(tracer, "stream.flush");
      ctx->Count(engine.Flush());
    }
    const stream::StreamOutput out = [&] {
      ScopedSpan span(tracer, "stream.take_output");
      return engine.TakeOutput();
    }();
    ctx->rows += log.size();
    const std::vector<StRecord> rows = out.cleaned.AllRecords();
    AppendRows(store_.get(), rows.data(), rows.size(), ctx);
    CommitStore(store_.get(), ctx);
    for (const StRecord& rec : rows) {
      ctx->checksum = HashRecord(ctx->checksum, rec);
    }
    if (!prefix_done_) {
      facts_.stream_ingested += static_cast<uint64_t>(out.ingested);
      for (const stream::SensorSummary& s : out.sensors) {
        facts_.stream_admitted += static_cast<uint64_t>(s.admitted);
        facts_.stream_windows_closed += static_cast<uint64_t>(s.windows_closed);
      }
    }
  }

  // Every stored row's bits in row-id order.
  StatusOr<uint64_t> PrefixChecksum(const std::vector<uint64_t>&) override {
    uint64_t h = kFnvOffset;
    const Status st = store_->Scan([&h](uint64_t row, const StRecord& rec) {
      h = HashRecord(Fnv(h, row), rec);
    });
    if (!st.ok()) return st;
    facts_.disk_bytes_per_row = DiskBytesPerRow(*store_);
    prefix_done_ = true;
    return h;
  }

  // stream::BatchReference per gateway group, appended in the same order.
  Status Verify(const std::vector<uint64_t>&, uint64_t prefix) override {
    uint64_t h = kFnvOffset;
    uint64_t row = 0;
    for (const stream::EventLog& log : logs_) {
      const stream::StreamOutput ref = stream::BatchReference(log, config_);
      for (const StRecord& rec : ref.cleaned.AllRecords()) {
        h = HashRecord(Fnv(h, row++), rec);
      }
    }
    if (h != prefix) return Mismatch("ingest store scan", groups_, prefix, h);
    return Status::OK();
  }

 private:
  // bench_stream's engine configuration: 60 s sampling, 2 min lateness,
  // 5 min windows, robust-z outlier gate.
  static stream::StreamConfig MakeStreamConfig() {
    stream::StreamConfig config;
    stream::SensorRule rule;
    rule.min_value = -50.0;
    rule.max_value = 500.0;
    rule.expected_interval_ms = 60'000;
    rule.max_lateness_ms = 120'000;
    rule.max_rate_per_s = 1.0;
    config.rules.set_default_rule(rule);
    config.window_ms = 300'000;
    config.window_capacity = 32;
    config.robust_z.z_threshold = 4.0;
    config.robust_z.min_samples = 6;
    return config;
  }

  uint64_t seed_;
  size_t groups_;
  size_t fan_in_;
  size_t samples_;
  std::string dir_;
  size_t sensors_ = 0;
  std::vector<stream::EventLog> logs_;
  stream::StreamConfig config_;
  std::unique_ptr<store::Store> store_;
  bool prefix_done_ = false;
};

// ---------------------------------------------------------------------------
// query_hot / query_cold: requests over a loaded trajectory store

class QueryWorkload : public Workload {
 public:
  struct Shape {
    size_t objects;
    size_t samples;
    Timestamp interval_ms;
    Timestamp window_ms;
    size_t cache_bytes;
    size_t prefix;  // requests fingerprinted and verified
  };

  QueryWorkload(uint64_t seed, Shape shape, std::string dir)
      : seed_(seed), shape_(shape), dir_(std::move(dir)) {}

  Status Setup() override {
    store_.reset();
    rows_ = MakeObjectRows(seed_, shape_.objects, shape_.samples,
                           shape_.interval_ms);
    store::StoreOptions options;
    {
      StatusOr<std::unique_ptr<store::Store>> db =
          OpenFresh(dir_, options, nullptr);
      if (!db.ok()) return db.status();
      for (const StRecord& rec : rows_) {
        const Status st = (*db)->Append(rec);
        if (!st.ok()) return st;
      }
      const Status st = (*db)->Close();
      if (!st.ok()) return st;
    }
    options.cache_bytes = shape_.cache_bytes;
    const int64_t t0 = NowNs();
    StatusOr<std::unique_ptr<store::Store>> db =
        store::Store::Open(nullptr, dir_, options);
    facts_.open_ms = static_cast<double>(NowNs() - t0) / 1e6;
    if (!db.ok()) return db.status();
    store_ = std::move(*db);
    if (store_->rows_readable() != rows_.size()) {
      return Status::DataLoss("reopened store lost rows");
    }
    facts_.disk_bytes_per_row = DiskBytesPerRow(*store_);
    return Status::OK();
  }

  std::string Describe() const override {
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "%zu objects x %zu samples every %llds: %zu rows; "
                  "%lld min windows; cache %zu KiB",
                  shape_.objects, shape_.samples,
                  static_cast<long long>(shape_.interval_ms / 1000),
                  rows_.size(),
                  static_cast<long long>(shape_.window_ms / 60'000),
                  shape_.cache_bytes >> 10);
    return buf;
  }

  size_t prefix_ops() const override { return shape_.prefix; }
  Status Prepare(size_t) override { return Status::OK(); }

  void Run(size_t i, OpContext* ctx) override {
    ctx->checksum = RunRequest(*store_, Spec(i), shape_.objects, seed_, ctx);
    ctx->rows += rows_.size();
  }

  // Each request recomputed from the generated rows in memory.
  Status Verify(const std::vector<uint64_t>& ops, uint64_t) override {
    for (size_t i = 0; i < ops.size(); ++i) {
      const uint64_t want = ReferenceRequest(rows_, rows_.size(), Spec(i),
                                             shape_.objects, seed_);
      if (ops[i] != want) return Mismatch("query request", i, ops[i], want);
    }
    return Status::OK();
  }

 private:
  RequestSpec Spec(size_t i) const {
    Rng rng = Rng::ForKey(DeriveSeed(seed_, kRequestSalt ^ 1), i);
    const Timestamp span =
        static_cast<Timestamp>(shape_.samples) * shape_.interval_ms;
    const int64_t slots = (span - shape_.window_ms) / shape_.interval_ms;
    RequestSpec spec;
    spec.t_begin = rng.UniformInt(0, slots) * shape_.interval_ms;
    spec.t_end = spec.t_begin + shape_.window_ms;
    spec.box = RandomWideBox(&rng);
    spec.min_points = MinPoints(shape_.window_ms, shape_.interval_ms);
    spec.key = i;
    return spec;
  }

  uint64_t seed_;
  Shape shape_;
  std::string dir_;
  std::vector<StRecord> rows_;
  std::unique_ptr<store::Store> store_;
};

// ---------------------------------------------------------------------------
// ingest_query_mix: a live fleet written epoch by epoch, queried on the
// most recent epoch after every commit

class MixWorkload : public Workload {
 public:
  MixWorkload(uint64_t seed, bool quick, std::string dir)
      : seed_(seed),
        objects_(quick ? 32 : 512),
        epochs_(quick ? 4 : 16),
        samples_per_epoch_(quick ? 20 : 60),
        dir_(std::move(dir)) {}

  Status Setup() override {
    store_.reset();
    rows_ = MakeObjectRows(seed_, objects_, epochs_ * samples_per_epoch_,
                           kIntervalMs);
    StatusOr<std::unique_ptr<store::Store>> db =
        OpenFresh(dir_, store::StoreOptions{}, &facts_.open_ms);
    if (!db.ok()) return db.status();
    store_ = std::move(*db);
    return Status::OK();
  }

  std::string Describe() const override {
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "%zu objects, %zu epochs x %zu samples every %llds "
                  "(%zu rows per epoch); %zu requests per commit",
                  objects_, epochs_, samples_per_epoch_,
                  static_cast<long long>(kIntervalMs / 1000), EpochRows(),
                  kRequestsPerEpoch);
    return buf;
  }

  // One op is one epoch: its writes, its Commit and its requests. A cycle
  // is every epoch on a fresh store; runs measure whole cycles, so they
  // never over-weight the small early epochs.
  size_t prefix_ops() const override { return epochs_; }
  uint64_t op_key(size_t i) const override { return i % epochs_; }
  bool op_is_request() const override { return false; }

  Status Prepare(size_t i) override {
    if (i % epochs_ != 0) return Status::OK();
    store_.reset();
    StatusOr<std::unique_ptr<store::Store>> db =
        OpenFresh(dir_, store::StoreOptions{}, nullptr);
    if (!db.ok()) return db.status();
    store_ = std::move(*db);
    return Status::OK();
  }

  void Run(size_t i, OpContext* ctx) override {
    const size_t e = i % epochs_;
    AppendRows(store_.get(), rows_.data() + e * EpochRows(), EpochRows(), ctx);
    CommitStore(store_.get(), ctx);
    ctx->rows += EpochRows();
    for (size_t q = 0; q < kRequestsPerEpoch; ++q) {
      ctx->tracer->NextRequest();
      const int64_t t0 = NowNs();
      {
        ScopedSpan span(ctx->tracer, "glue.request");
        ctx->checksum = Fnv(ctx->checksum, RunRequest(*store_, Spec(e, q),
                                                      objects_, seed_, ctx));
      }
      ctx->request_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
    }
  }

  StatusOr<uint64_t> PrefixChecksum(
      const std::vector<uint64_t>& ops) override {
    facts_.disk_bytes_per_row = DiskBytesPerRow(*store_);
    return Workload::PrefixChecksum(ops);
  }

  // Every request recomputed from the rows written so far, in memory.
  Status Verify(const std::vector<uint64_t>& ops, uint64_t) override {
    for (size_t e = 0; e < ops.size(); ++e) {
      uint64_t h = kFnvOffset;
      for (size_t q = 0; q < kRequestsPerEpoch; ++q) {
        h = Fnv(h, ReferenceRequest(rows_, (e + 1) * EpochRows(), Spec(e, q),
                                    objects_, seed_));
      }
      if (ops[e] != h) return Mismatch("mix epoch", e, ops[e], h);
    }
    return Status::OK();
  }

 private:
  static constexpr Timestamp kIntervalMs = 10'000;
  static constexpr size_t kRequestsPerEpoch = 4;
  static constexpr Timestamp kRecentMs = 600'000;

  size_t EpochRows() const { return objects_ * samples_per_epoch_; }

  // The most recent 10 minutes as of epoch e's commit.
  RequestSpec Spec(size_t e, size_t q) const {
    const uint64_t key = e * kRequestsPerEpoch + q;
    Rng rng = Rng::ForKey(DeriveSeed(seed_, kRequestSalt ^ 2), key);
    RequestSpec spec;
    spec.t_end = static_cast<Timestamp>((e + 1) * samples_per_epoch_) *
                 kIntervalMs;
    spec.t_begin = spec.t_end - kRecentMs;
    spec.box = RandomWideBox(&rng);
    spec.min_points = MinPoints(kRecentMs, kIntervalMs);
    spec.key = key;
    return spec;
  }

  uint64_t seed_;
  size_t objects_;
  size_t epochs_;
  size_t samples_per_epoch_;
  std::string dir_;
  std::vector<StRecord> rows_;
  std::unique_ptr<store::Store> store_;
};

// ---------------------------------------------------------------------------
// fleet_clean: batch cleaning passes on FleetRunner

uint64_t FleetChecksum(const std::vector<Trajectory>& fleet) {
  uint64_t h = kFnvOffset;
  for (const Trajectory& t : fleet) {
    h = Fnv(h, t.object_id());
    for (const TrajectoryPoint& pt : t.points()) {
      h = Fnv(h, static_cast<uint64_t>(pt.t));
      h = Fnv(h, Bits(pt.p.x));
      h = Fnv(h, Bits(pt.p.y));
    }
  }
  return h;
}

class FleetWorkload : public Workload {
 public:
  FleetWorkload(uint64_t seed, bool quick)
      : base_seed_(DeriveSeed(seed, kDataSalt)),
        trajectories_(quick ? 500 : 8'000),
        points_(quick ? 64 : 128) {}

  Status Setup() override {
    Rng rng(base_seed_);
    fleet_.clear();
    fleet_.reserve(trajectories_);
    for (size_t i = 0; i < trajectories_; ++i) {
      Trajectory t(static_cast<ObjectId>(i));
      t.Reserve(points_);
      double x = rng.Uniform(0.0, 5000.0);
      double y = rng.Uniform(0.0, 5000.0);
      double vx = rng.Gaussian(0.0, 8.0);
      double vy = rng.Gaussian(0.0, 8.0);
      for (size_t k = 0; k < points_; ++k) {
        t.AppendUnordered(TrajectoryPoint(static_cast<Timestamp>(k) * 1000,
                                          geometry::Point(x, y), 8.0));
        vx += rng.Gaussian(0.0, 1.0);
        vy += rng.Gaussian(0.0, 1.0);
        x += vx;
        y += vy;
      }
      fleet_.push_back(std::move(t));
    }
    // bench_exec's cpu_bound pipeline: jitter -> speed-outlier repair ->
    // Kalman smoothing -> DP-SED simplification.
    pipeline_ = TrajectoryPipeline();
    pipeline_.AddSeeded(
        "gps_jitter", [](const Trajectory& in, Rng& r) -> StatusOr<Trajectory> {
          Trajectory out(in.object_id());
          out.Reserve(in.size());
          for (const TrajectoryPoint& pt : in.points()) {
            TrajectoryPoint moved = pt;
            moved.p.x += r.Gaussian(0.0, 6.0);
            moved.p.y += r.Gaussian(0.0, 6.0);
            out.AppendUnordered(moved);
          }
          return out;
        });
    pipeline_.Add(std::make_unique<outlier::SpeedOutlierRepairStage>());
    pipeline_.Add("kalman_smooth",
                  [](const Trajectory& in) -> StatusOr<Trajectory> {
                    return refine::KalmanFilter2D().Smooth(in);
                  });
    pipeline_.Add("dp_sed_simplify",
                  [](const Trajectory& in) -> StatusOr<Trajectory> {
                    return reduce::DouglasPeuckerSed(in, 3.0);
                  });
    facts_.exec_workers = kWorkers;
    return Status::OK();
  }

  std::string Describe() const override {
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "%zu trajectories x %zu points per pass, %d workers, "
                  "shard size %zu",
                  trajectories_, points_, kWorkers, kShardSize);
    return buf;
  }

  size_t prefix_ops() const override { return 1; }
  uint64_t op_key(size_t) const override { return 0; }
  Status Prepare(size_t) override { return Status::OK(); }

  void Run(size_t, OpContext* ctx) override {
    exec::FleetRunner::Options options;
    options.num_threads = kWorkers;
    options.shard_size = kShardSize;
    options.base_seed = base_seed_;
    const exec::FleetRunner runner(&pipeline_, options);
    const double cpu0 = ProcessCpuSeconds();
    const int64_t t0 = NowNs();
    const exec::FleetResult result = [&] {
      ScopedSpan span(ctx->tracer, "exec.run");
      return runner.Run(fleet_);
    }();
    ctx->counters->exec_wall_s += static_cast<double>(NowNs() - t0) / 1e9;
    ctx->counters->exec_cpu_s += ProcessCpuSeconds() - cpu0;
    for (const Status& st : result.statuses) ctx->Count(st);
    ctx->rows += trajectories_ * points_;
    ctx->checksum = FleetChecksum(result.cleaned);
    facts_.objects_degraded = result.objects_degraded;
  }

  // Serial TrajectoryPipeline::RunBatch over the same fleet.
  Status Verify(const std::vector<uint64_t>& ops, uint64_t) override {
    const StatusOr<std::vector<Trajectory>> serial =
        pipeline_.RunBatch(fleet_, base_seed_);
    if (!serial.ok()) return serial.status();
    const uint64_t want = FleetChecksum(*serial);
    if (ops.empty() || ops[0] != want) {
      return Mismatch("fleet pass", 0, ops.empty() ? 0 : ops[0], want);
    }
    return Status::OK();
  }

 private:
  // One fewer than the 4 vCPUs the benchmark is sized for: with a worker
  // on every vCPU, any other runnable thread (the kernel writing back the
  // last run's store, say) stalls a worker and stretches the pass.
  static constexpr int kWorkers = 3;
  static constexpr size_t kShardSize = 64;

  uint64_t base_seed_;
  size_t trajectories_;
  size_t points_;
  std::vector<Trajectory> fleet_;
  TrajectoryPipeline pipeline_;
};

}  // namespace

StatusOr<uint64_t> Workload::PrefixChecksum(
    const std::vector<uint64_t>& op_checksums) {
  uint64_t h = kFnvOffset;
  for (const uint64_t c : op_checksums) h = Fnv(h, c);
  return h;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       bool quick,
                                       const std::string& scratch_dir) {
  const std::string dir = scratch_dir + "/store";
  if (name == "ingest") {
    return std::make_unique<IngestWorkload>(seed, quick, dir);
  }
  if (name == "query_hot") {
    const QueryWorkload::Shape shape =
        quick ? QueryWorkload::Shape{32, 240, 30'000, 1'800'000, 64ull << 20, 4}
              : QueryWorkload::Shape{256, 960, 30'000, 7'200'000, 64ull << 20,
                                     32};
    return std::make_unique<QueryWorkload>(seed, shape, dir);
  }
  if (name == "query_cold") {
    const QueryWorkload::Shape shape =
        quick ? QueryWorkload::Shape{64, 240, 30'000, 1'800'000, 256ull << 10, 2}
              : QueryWorkload::Shape{512, 960, 30'000, 3'600'000, 4ull << 20,
                                     8};
    return std::make_unique<QueryWorkload>(seed, shape, dir);
  }
  if (name == "ingest_query_mix") {
    return std::make_unique<MixWorkload>(seed, quick, dir);
  }
  if (name == "fleet_clean") {
    return std::make_unique<FleetWorkload>(seed, quick);
  }
  return nullptr;
}

}  // namespace e2e
}  // namespace sidq
