// The headline robustness gate of the durable store: a crash-point sweep.
//
// A seeded workload (appends + periodic commits, crossing block and
// segment boundaries) runs against a FaultVfs that kills I/O at exactly
// one numbered vfs operation, for EVERY operation the fault-free run
// performs, under three crash styles (clean power cut before the op, torn
// append, bit-flipped append). After each injected crash the surviving
// MemVfs state -- exactly the synced bytes plus fsynced directory entries
// -- is recovered with a plain Store::Open, and the sweep asserts:
//
//   (a) recovery always succeeds (Open never errors on crash debris);
//   (b) the recovered state is prefix-consistent and bit-identical to the
//       fault-free run on every surviving record, and rows committed
//       before the crash are never lost;
//   (c) a second recovery is a no-op (idempotent), and the store accepts
//       appends afterwards.
//
// The aggressive chaos steps of the CI asan and tsan jobs run this with
// SIDQ_CHAOS_AGGRESSIVE, which widens the sweep with extra torn/bit-flip
// seeds and adds seeded FailPoint chaos (injected EIO and lost fsyncs) on
// top.

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/failpoint.h"
#include "core/stid.h"
#include "real_store_dir.h"
#include "store/store.h"
#include "store/vfs.h"

namespace sidq {
namespace store {
namespace {

bool Aggressive() { return std::getenv("SIDQ_CHAOS_AGGRESSIVE") != nullptr; }

uint64_t Bits(double v) {
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

bool BitIdentical(const StRecord& a, const StRecord& b) {
  return a.sensor == b.sensor && a.t == b.t && Bits(a.loc.x) == Bits(b.loc.x) &&
         Bits(a.loc.y) == Bits(b.loc.y) && Bits(a.value) == Bits(b.value) &&
         Bits(a.stddev) == Bits(b.stddev);
}

// Same deterministic record stream as store_test.cc, NaN included so the
// bit-identity assertion has teeth.
StRecord MakeRecord(uint64_t i) {
  StRecord r;
  r.sensor = 1 + (i % 5);
  r.t = static_cast<Timestamp>(1000 * i);
  r.loc = geometry::Point(0.25 * static_cast<double>(i),
                          -0.5 * static_cast<double>(i));
  r.value = 20.0 + 0.125 * static_cast<double>(i);
  r.stddev = 0.5;
  if (i == 7) r.value = std::numeric_limits<double>::quiet_NaN();
  return r;
}

StoreOptions SweepOptions() {
  StoreOptions o;
  o.block_records = 8;        // many small blocks -> many vfs ops
  o.segment_target_blocks = 3;  // roll segments inside the workload
  o.field_name = "sweep";
  return o;
}

constexpr uint64_t kWorkloadRows = 60;
constexpr uint64_t kCommitEvery = 20;

// Drives the seeded workload. Stops at the first I/O failure (the injected
// crash); `durable_rows` reports the rows covered by the last Commit() that
// returned OK -- the durability floor recovery must honour.
Status RunWorkload(Vfs* vfs, uint64_t* durable_rows) {
  *durable_rows = 0;
  SIDQ_ASSIGN_OR_RETURN(std::unique_ptr<Store> store,
                        Store::Open(vfs, "db", SweepOptions()));
  for (uint64_t i = 0; i < kWorkloadRows; ++i) {
    SIDQ_RETURN_IF_ERROR(store->Append(MakeRecord(i)));
    if ((i + 1) % kCommitEvery == 0) {
      SIDQ_RETURN_IF_ERROR(store->Commit());
      *durable_rows = i + 1;
    }
  }
  SIDQ_RETURN_IF_ERROR(store->Close());
  *durable_rows = kWorkloadRows;
  return Status::OK();
}

// Scans a store into row-id -> record form.
std::map<uint64_t, StRecord> ScanAll(const Store& store) {
  std::map<uint64_t, StRecord> rows;
  const Status st = store.Scan([&](uint64_t row, const StRecord& rec) {
    rows[row] = rec;
  });
  EXPECT_TRUE(st.ok()) << st;
  return rows;
}

// One full crash experiment at (style, at_op, seed). Sets *fired iff the
// plan actually triggered (at_op within the workload's op range).
void RunCrashExperiment(FaultVfs::CrashStyle style, int64_t at_op,
                        uint64_t seed, const std::map<uint64_t, StRecord>& want,
                        const char* label, bool* fired) {
  *fired = false;
  MemVfs base;
  FaultVfs fault(&base);
  FaultVfs::CrashPlan plan;
  plan.at_op = at_op;
  plan.style = style;
  plan.seed = seed;
  fault.set_plan(plan);

  uint64_t durable_rows = 0;
  const Status workload = RunWorkload(&fault, &durable_rows);
  if (!fault.crashed()) {
    // Plan out of range: the run must have completed cleanly.
    EXPECT_TRUE(workload.ok()) << label << ": " << workload;
    return;
  }
  *fired = true;
  EXPECT_FALSE(workload.ok()) << label << ": crash fired but workload passed";

  // (a) Recovery always succeeds, on exactly the crash-durable state.
  StatusOr<std::unique_ptr<Store>> recovered =
      Store::Open(&base, "db", SweepOptions());
  ASSERT_TRUE(recovered.ok()) << label << ": " << recovered.status();
  const RecoveryReport& report = (*recovered)->recovery();

  // (b) Prefix-consistent: the readable rows are exactly 0..K-1 for some K
  // (crash injection never corrupts committed interior blocks, so nothing
  // may be quarantined), K covers every committed row, and every surviving
  // record is bit-identical to the fault-free run.
  const std::map<uint64_t, StRecord> got = ScanAll(**recovered);
  EXPECT_TRUE(report.quarantined.empty())
      << label << ": " << report.Summary();
  EXPECT_EQ(report.rows_lost, 0u) << label;
  const uint64_t recovered_rows = (*recovered)->rows_readable();
  ASSERT_EQ(got.size(), recovered_rows) << label;
  EXPECT_GE(recovered_rows, durable_rows)
      << label << ": committed rows lost (" << report.Summary() << ")";
  EXPECT_LE(recovered_rows, kWorkloadRows) << label;
  uint64_t next = 0;
  for (const auto& [row, rec] : got) {
    ASSERT_EQ(row, next) << label << ": row-id gap";
    const auto it = want.find(row);
    ASSERT_NE(it, want.end()) << label;
    EXPECT_TRUE(BitIdentical(rec, it->second))
        << label << ": row " << row << " differs from fault-free run";
    ++next;
  }

  // (c) Reopen-after-recovery is idempotent: same rows, same generation,
  // nothing further to repair.
  StatusOr<std::unique_ptr<Store>> again =
      Store::Open(&base, "db", SweepOptions());
  ASSERT_TRUE(again.ok()) << label << ": " << again.status();
  EXPECT_EQ((*again)->manifest_gen(), (*recovered)->manifest_gen()) << label;
  EXPECT_FALSE((*again)->recovery().tail_truncated)
      << label << ": second recovery repaired again (not idempotent)";
  EXPECT_EQ((*again)->recovery().orphan_segments_removed, 0u) << label;
  const std::map<uint64_t, StRecord> got2 = ScanAll(**again);
  ASSERT_EQ(got2.size(), got.size()) << label;
  for (const auto& [row, rec] : got2) {
    EXPECT_TRUE(BitIdentical(rec, got.at(row))) << label << ": row " << row;
  }

  // The recovered store accepts and persists new appends.
  {
    Store& w = **again;
    const uint64_t base_row = w.rows();
    for (uint64_t i = 0; i < 5; ++i) {
      ASSERT_TRUE(w.Append(MakeRecord(base_row + i)).ok()) << label;
    }
    ASSERT_TRUE(w.Close().ok()) << label;
  }
  StatusOr<std::unique_ptr<Store>> final_open =
      Store::Open(&base, "db", SweepOptions());
  ASSERT_TRUE(final_open.ok()) << label;
  EXPECT_EQ((*final_open)->rows_readable(), recovered_rows + 5) << label;
}

TEST(StoreCrashTest, FaultFreeBaseline) {
  MemVfs base;
  FaultVfs fault(&base);  // no plan
  uint64_t durable_rows = 0;
  const Status st = RunWorkload(&fault, &durable_rows);
  ASSERT_TRUE(st.ok()) << st;
  EXPECT_EQ(durable_rows, kWorkloadRows);
  ASSERT_GT(fault.ops(), 0);

  StatusOr<std::unique_ptr<Store>> reopened =
      Store::Open(&base, "db", SweepOptions());
  ASSERT_TRUE(reopened.ok());
  const std::map<uint64_t, StRecord> rows = ScanAll(**reopened);
  ASSERT_EQ(rows.size(), kWorkloadRows);
  for (const auto& [row, rec] : rows) {
    EXPECT_TRUE(BitIdentical(rec, MakeRecord(row))) << row;
  }
}

TEST(StoreCrashTest, SweepEveryFaultSite) {
  // Fault-free reference: total op count and expected bytes.
  int64_t total_ops = 0;
  std::map<uint64_t, StRecord> want;
  {
    MemVfs base;
    FaultVfs fault(&base);
    uint64_t durable_rows = 0;
    ASSERT_TRUE(RunWorkload(&fault, &durable_rows).ok());
    total_ops = fault.ops();
    StatusOr<std::unique_ptr<Store>> reopened =
        Store::Open(&base, "db", SweepOptions());
    ASSERT_TRUE(reopened.ok());
    want = ScanAll(**reopened);
  }
  ASSERT_EQ(want.size(), kWorkloadRows);

  struct StyleSeed {
    FaultVfs::CrashStyle style;
    uint64_t seed;
    const char* name;
  };
  std::vector<StyleSeed> styles = {
      {FaultVfs::CrashStyle::kBeforeOp, 0, "before-op"},
      {FaultVfs::CrashStyle::kTornAppend, 1, "torn"},
      {FaultVfs::CrashStyle::kBitFlip, 2, "flip"},
  };
  if (Aggressive()) {
    styles.push_back({FaultVfs::CrashStyle::kTornAppend, 101, "torn-b"});
    styles.push_back({FaultVfs::CrashStyle::kBitFlip, 202, "flip-b"});
  }

  int fired = 0;
  for (const StyleSeed& s : styles) {
    for (int64_t at_op = 0; at_op < total_ops; ++at_op) {
      const std::string label = std::string(s.name) + "@op" +
                                std::to_string(at_op) + " seed " +
                                std::to_string(s.seed);
      bool did_fire = false;
      RunCrashExperiment(s.style, at_op, s.seed, want, label.c_str(),
                         &did_fire);
      if (did_fire) ++fired;
      if (HasFatalFailure()) {
        FAIL() << "sweep aborted at " << label;
      }
    }
  }
  // The sweep is vacuous unless the plans actually fired.
  EXPECT_GE(fired, static_cast<int>(styles.size()) *
                       (total_ops > 4 ? total_ops - 4 : 1));
}

// Seeded FailPoint chaos on the vfs sites, no crash plan: injected EIO on
// appends/renames must surface as errors without wedging the store, and a
// LOST fsync (reported success, nothing durable) followed by a crash must
// still recover to a consistent prefix -- the commit protocol may trust an
// fsync only as far as the manifest chain can verify afterwards.
TEST(StoreCrashTest, TransientAppendErrorsSurfaceAndDoNotWedge) {
  FailPointConfig cfg;
  cfg.action = FailPointAction::kTransientError;
  cfg.fail_first_n = 1;  // first append on each key errors, then passes
  ArmFailPoint(kVfsAppendFailPoint, cfg);

  MemVfs base;
  FaultVfs fault(&base);
  uint64_t durable_rows = 0;
  const Status st = RunWorkload(&fault, &durable_rows);
  EXPECT_FALSE(st.ok());  // the injected EIO surfaced, never swallowed
  DisarmAllFailPoints();

  // The surviving bytes still recover.
  StatusOr<std::unique_ptr<Store>> recovered =
      Store::Open(&base, "db", SweepOptions());
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  for (const auto& [row, rec] : ScanAll(**recovered)) {
    EXPECT_TRUE(BitIdentical(rec, MakeRecord(row))) << row;
  }
}

// --- manifest log crash cases -------------------------------------------
//
// A longer workload of one-block commits, so the manifest log takes many
// edits and rolls over to new snapshots. Each case crashes inside one
// kind of commit and requires recovery to serve exactly one committed
// generation: the previous one or the new one, never a blend, with
// every surviving row bit-identical and a clean second open.

constexpr uint64_t kLogCommits = 24;
constexpr uint64_t kLogRowsPerCommit = 8;  // one block per commit

// The fault-free run's shape: vfs ops and CURRENT after each commit.
struct LogRun {
  std::vector<int64_t> ops_after;     // ops_after[c]: after commit c
  std::vector<std::string> current;   // current[c]: CURRENT after commit c
};

// Runs the workload, stopping at the first failure. `run` (may be null)
// records its shape; `durable_gen` is the last commit that returned OK.
Status RunLogWorkload(FaultVfs* vfs, LogRun* run, uint64_t* durable_gen) {
  *durable_gen = 0;
  SIDQ_ASSIGN_OR_RETURN(std::unique_ptr<Store> store,
                        Store::Open(vfs, "db", SweepOptions()));
  uint64_t row = 0;
  for (uint64_t c = 0; c < kLogCommits; ++c) {
    for (uint64_t i = 0; i < kLogRowsPerCommit; ++i) {
      SIDQ_RETURN_IF_ERROR(store->Append(MakeRecord(row++)));
    }
    SIDQ_RETURN_IF_ERROR(store->Commit());
    *durable_gen = c + 1;
    if (run != nullptr) {
      run->ops_after.push_back(vfs->ops());
      SIDQ_ASSIGN_OR_RETURN(std::string current, vfs->ReadFile("db/CURRENT"));
      run->current.push_back(std::move(current));
    }
  }
  return store->Close();
}

std::vector<std::string> LogFiles(const MemVfs& vfs) {
  std::vector<std::string> logs;
  const StatusOr<std::vector<std::string>> names = vfs.ListDir("db");
  if (!names.ok()) return logs;
  for (const std::string& name : *names) {
    uint64_t gen = 0;
    if (ParseManifestFileName(name, &gen)) logs.push_back(name);
  }
  return logs;
}

// What a crash left of the manifest: the log CURRENT names, and whether
// another log that replays also exists.
struct LogDebris {
  std::string current_log;
  bool other_valid_log = false;
};

LogDebris InspectLogs(const MemVfs& vfs) {
  LogDebris out;
  const StatusOr<std::string> current = vfs.ReadFile("db/CURRENT");
  uint64_t gen = 0;
  uint32_t crc = 0;
  if (current.ok() && ParseCurrent(*current, &gen, &crc).ok()) {
    out.current_log = ManifestFileName(gen);
  }
  for (const std::string& name : LogFiles(vfs)) {
    if (name == out.current_log) continue;
    const StatusOr<std::string> log = vfs.ReadFile("db/" + name);
    if (log.ok() && ReplayManifestLog(*log).ok()) out.other_valid_log = true;
  }
  return out;
}

// Crashes at `at_op` in `style`, recovers, and checks the generation
// served is `want_gen` (or, when `alt_gen` is nonzero, `alt_gen`), that
// rows are a bit-identical prefix covering every committed row, that a
// second open repairs nothing, and that the next commit leaves exactly
// one log behind, named by CURRENT.
void CrashAndRecoverLog(FaultVfs::CrashStyle style, int64_t at_op,
                        uint64_t seed, uint64_t want_gen, uint64_t alt_gen,
                        const std::string& label, LogDebris* debris,
                        uint64_t* discarded) {
  MemVfs base;
  FaultVfs fault(&base);
  fault.set_plan({at_op, style, seed});
  uint64_t durable_gen = 0;
  const Status st = RunLogWorkload(&fault, nullptr, &durable_gen);
  ASSERT_TRUE(fault.crashed()) << label << ": " << st;
  *debris = InspectLogs(base);

  StatusOr<std::unique_ptr<Store>> recovered =
      Store::Open(&base, "db", SweepOptions());
  ASSERT_TRUE(recovered.ok()) << label << ": " << recovered.status();
  const Store& r = **recovered;
  *discarded = r.recovery().manifest_bytes_discarded;
  EXPECT_TRUE(r.manifest_gen() == want_gen ||
              (alt_gen != 0 && r.manifest_gen() == alt_gen))
      << label << ": gen " << r.manifest_gen() << ", want " << want_gen;
  EXPECT_GE(r.manifest_gen(), durable_gen) << label;
  EXPECT_TRUE(r.recovery().current_valid) << label;
  EXPECT_TRUE(r.recovery().chain_intact) << label;
  EXPECT_TRUE(r.recovery().quarantined.empty()) << label;
  const std::map<uint64_t, StRecord> got = ScanAll(r);
  EXPECT_GE(got.size(), r.manifest_gen() * kLogRowsPerCommit) << label;
  uint64_t next = 0;
  for (const auto& [row, rec] : got) {
    ASSERT_EQ(row, next++) << label;
    EXPECT_TRUE(BitIdentical(rec, MakeRecord(row))) << label << " row " << row;
  }

  StatusOr<std::unique_ptr<Store>> again =
      Store::Open(&base, "db", SweepOptions());
  ASSERT_TRUE(again.ok()) << label;
  EXPECT_EQ((*again)->manifest_gen(), r.manifest_gen()) << label;
  EXPECT_EQ((*again)->recovery().manifest_bytes_discarded, 0u) << label;
  EXPECT_EQ(ScanAll(**again).size(), got.size()) << label;

  // The next commit extends what was recovered and removes the debris.
  const uint64_t gen = r.manifest_gen();
  const uint64_t rows = (*again)->rows();
  ASSERT_TRUE((*again)->Append(MakeRecord(rows)).ok()) << label;
  ASSERT_TRUE((*again)->Close().ok()) << label;
  const std::vector<std::string> logs = LogFiles(base);
  ASSERT_EQ(logs.size(), 1u) << label;
  EXPECT_EQ(InspectLogs(base).current_log, logs[0]) << label;
  StatusOr<std::unique_ptr<Store>> final_open =
      Store::Open(&base, "db", SweepOptions());
  ASSERT_TRUE(final_open.ok()) << label;
  EXPECT_EQ((*final_open)->manifest_gen(), gen + 1) << label;
  EXPECT_EQ((*final_open)->rows_readable(), rows + 1) << label;
  EXPECT_EQ((*final_open)->recovery().Summary().rfind("clean", 0), 0u)
      << label << ": " << (*final_open)->recovery().Summary();
}

LogRun FaultFreeLogRun() {
  MemVfs base;
  FaultVfs fault(&base);
  LogRun run;
  uint64_t durable_gen = 0;
  EXPECT_TRUE(RunLogWorkload(&fault, &run, &durable_gen).ok());
  EXPECT_EQ(durable_gen, kLogCommits);
  return run;
}

// A commit c > 0 that appended an edit (CURRENT unchanged) or rolled the
// log to a new snapshot (CURRENT repointed).
std::vector<uint64_t> CommitsWhere(const LogRun& run, bool snapshot) {
  std::vector<uint64_t> out;
  for (uint64_t c = 1; c < run.current.size(); ++c) {
    if ((run.current[c] != run.current[c - 1]) == snapshot) out.push_back(c);
  }
  return out;
}

TEST(StoreCrashTest, TornEditRecordIsCutAndServesThePreviousGeneration) {
  const LogRun run = FaultFreeLogRun();
  const std::vector<uint64_t> edits = CommitsWhere(run, /*snapshot=*/false);
  ASSERT_GE(edits.size(), 4u);
  const std::vector<std::pair<FaultVfs::CrashStyle, uint64_t>> styles = {
      {FaultVfs::CrashStyle::kTornAppend, 3},
      {FaultVfs::CrashStyle::kTornAppend, 41},
      {FaultVfs::CrashStyle::kBitFlip, 5},
  };
  int cut = 0;
  for (const uint64_t c : edits) {
    for (const auto& [style, seed] : styles) {
      // Commit c is generation c + 1; any crash inside it serves c.
      for (int64_t op = run.ops_after[c - 1]; op < run.ops_after[c]; ++op) {
        const std::string label = "commit " + std::to_string(c) + " op " +
                                  std::to_string(op) + " seed " +
                                  std::to_string(seed);
        LogDebris debris;
        uint64_t discarded = 0;
        CrashAndRecoverLog(style, op, seed, c, 0, label, &debris, &discarded);
        if (HasFatalFailure()) FAIL() << "aborted at " << label;
        if (discarded > 0) ++cut;
      }
    }
  }
  // The sweep is vacuous unless some crash left a torn or flipped edit.
  EXPECT_GE(cut, static_cast<int>(edits.size()));
}

// Sweeps every op of every commit that rolled the log; returns how many
// crashes left each kind of debris.
void SweepSnapshotCommits(int* new_log_before_repoint,
                          int* old_log_after_repoint) {
  const LogRun run = FaultFreeLogRun();
  const std::vector<uint64_t> snapshots = CommitsWhere(run, true);
  ASSERT_GE(snapshots.size(), 2u);
  *new_log_before_repoint = 0;
  *old_log_after_repoint = 0;
  for (const uint64_t c : snapshots) {
    const std::string new_log = ManifestFileName(c + 1);
    for (int64_t op = run.ops_after[c - 1]; op < run.ops_after[c]; ++op) {
      const std::string label =
          "snapshot commit " + std::to_string(c) + " op " + std::to_string(op);
      LogDebris debris;
      uint64_t discarded = 0;
      CrashAndRecoverLog(FaultVfs::CrashStyle::kBeforeOp, op, 0, c, c + 1,
                         label, &debris, &discarded);
      if (::testing::Test::HasFatalFailure()) {
        FAIL() << "aborted at " << label;
      }
      if (debris.current_log != new_log && debris.other_valid_log) {
        ++*new_log_before_repoint;
      }
      if (debris.current_log == new_log && debris.other_valid_log) {
        ++*old_log_after_repoint;
      }
    }
  }
}

TEST(StoreCrashTest, CrashBetweenSnapshotAndCurrentRepointServesOldLog) {
  int before = 0, after = 0;
  SweepSnapshotCommits(&before, &after);
  EXPECT_GE(before, 1) << "no crash left a new log CURRENT did not name";
}

TEST(StoreCrashTest, CrashBetweenRepointAndGcServesNewLog) {
  int before = 0, after = 0;
  SweepSnapshotCommits(&before, &after);
  EXPECT_GE(after, 1) << "no crash left a superseded log behind";
}

TEST(StoreCrashTest, LostFsyncThenCrashStillRecoversConsistently) {
  // Every fsync lies (reports success, persists nothing), then the power
  // cut hits after the workload. Everything unsynced vanishes; recovery
  // must still come up consistent -- possibly empty, never wrong. Both
  // workloads run: the short one and the one whose commits roll the
  // manifest log over to new snapshots.
  for (const bool log_workload : {false, true}) {
    FailPointConfig cfg;
    cfg.action = FailPointAction::kCorrupt;  // vfs sync site: lost fsync
    cfg.probability = 1.0;
    ArmFailPoint(kVfsSyncFailPoint, cfg);

    MemVfs base;
    FaultVfs fault(&base);
    uint64_t durable = 0;
    if (log_workload) {
      // sidq: allow-ignored-status(the lost fsyncs make a "success" a lie)
      (void)RunLogWorkload(&fault, nullptr, &durable);
    } else {
      // sidq: allow-ignored-status(the lost fsyncs make a "success" a lie)
      (void)RunWorkload(&fault, &durable);
    }
    DisarmAllFailPoints();
    base.SimulateCrash();

    StatusOr<std::unique_ptr<Store>> recovered =
        Store::Open(&base, "db", SweepOptions());
    ASSERT_TRUE(recovered.ok()) << recovered.status();
    const std::map<uint64_t, StRecord> got = ScanAll(**recovered);
    uint64_t next = 0;
    for (const auto& [row, rec] : got) {
      ASSERT_EQ(row, next++);
      EXPECT_TRUE(BitIdentical(rec, MakeRecord(row))) << row;
    }
    // Idempotent reopen, as everywhere.
    StatusOr<std::unique_ptr<Store>> again =
        Store::Open(&base, "db", SweepOptions());
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(ScanAll(**again).size(), got.size());
  }
}

// A MemVfs whose next Sync of a manifest log fails once armed, after the
// appended bytes reached the file: an fsync error without a crash.
class FailLogSyncVfs : public MemVfs {
 public:
  void Arm() { armed_ = true; }

  StatusOr<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, WriteMode mode) override {
    SIDQ_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> file,
                          MemVfs::NewWritableFile(path, mode));
    if (path.find("MANIFEST-") == std::string::npos) return file;
    return {std::make_unique<File>(this, std::move(file))};
  }

 private:
  class File : public WritableFile {
   public:
    File(FailLogSyncVfs* vfs, std::unique_ptr<WritableFile> base)
        : vfs_(vfs), base_(std::move(base)) {}
    Status Append(const char* data, size_t n) override {
      return base_->Append(data, n);
    }
    Status Sync() override {
      if (vfs_->armed_) {
        vfs_->armed_ = false;
        return Status::Unavailable("injected fsync error");
      }
      return base_->Sync();
    }
    Status Close() override { return base_->Close(); }

   private:
    FailLogSyncVfs* vfs_;
    std::unique_ptr<WritableFile> base_;
  };

  bool armed_ = false;
};

// A commit whose log fsync fails leaves its record in the file. The next
// commit must not append after it (replay would then see two records for
// one generation and break the chain); it starts a fresh log instead, and
// the reopened store is clean and complete.
TEST(StoreCrashTest, FailedLogSyncIsRetriedIntoAFreshLog) {
  FailLogSyncVfs vfs;
  uint64_t row = 0;
  {
    StatusOr<std::unique_ptr<Store>> opened =
        Store::Open(&vfs, "db", SweepOptions());
    ASSERT_TRUE(opened.ok());
    Store& store = **opened;
    for (int commit = 0; commit < 2; ++commit) {
      for (int i = 0; i < 10; ++i) {
        ASSERT_TRUE(store.Append(MakeRecord(row++)).ok());
      }
      ASSERT_TRUE(store.Commit().ok());
    }
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(store.Append(MakeRecord(row++)).ok());
    }
    vfs.Arm();
    EXPECT_FALSE(store.Commit().ok());
    EXPECT_EQ(store.manifest_gen(), 2u);
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(store.Append(MakeRecord(row++)).ok());
    }
    ASSERT_TRUE(store.Commit().ok());
    EXPECT_EQ(store.manifest_gen(), 3u);
    ASSERT_TRUE(store.Close().ok());
  }
  EXPECT_EQ(LogFiles(vfs).size(), 1u);
  StatusOr<std::unique_ptr<Store>> reopened =
      Store::Open(&vfs, "db", SweepOptions());
  ASSERT_TRUE(reopened.ok());
  const RecoveryReport& report = (*reopened)->recovery();
  EXPECT_EQ((*reopened)->manifest_gen(), 3u);
  EXPECT_TRUE(report.chain_intact);
  EXPECT_EQ(report.tail_blocks_recovered, 0u);
  EXPECT_EQ(report.Summary().rfind("clean", 0), 0u) << report.Summary();
  const std::map<uint64_t, StRecord> got = ScanAll(**reopened);
  ASSERT_EQ(got.size(), row);
  for (const auto& [r, rec] : got) {
    EXPECT_TRUE(BitIdentical(rec, MakeRecord(r))) << r;
  }
}

// --- compaction crash sweep ----------------------------------------------
//
// Compaction rewrites committed segment files in place (via .cmp temps,
// a manifest publish, and atomic renames), so its crash surface is
// different from the append path: a crash must leave recovery serving
// either the PRE-compaction or the POST-compaction generation
// bit-identically -- never a blend of old and new segment layouts -- and
// reopening again must change nothing further.

StoreOptions CompactionOptions() {
  StoreOptions o;
  o.block_records = 8;
  o.segment_target_blocks = 3;
  o.field_name = "compact-sweep";
  return o;
}

constexpr uint64_t kCompactionRows = 48;  // 6 blocks over segments 0..1

// Deterministically builds a quarantine-pocked store in `dir`: 48 rows
// committed, one interior block of (rolled) segment 0 corrupted, one
// reopen+close so the quarantine verdict is itself committed.
// Byte-identical every call, on any Vfs.
void BuildPockedStore(Vfs* vfs, const std::string& dir) {
  {
    StatusOr<std::unique_ptr<Store>> store =
        Store::Open(vfs, dir, CompactionOptions());
    ASSERT_TRUE(store.ok()) << store.status();
    for (uint64_t i = 0; i < kCompactionRows; ++i) {
      ASSERT_TRUE((*store)->Append(MakeRecord(i)).ok());
    }
    ASSERT_TRUE((*store)->Close().ok());
  }
  // Flip one bit inside the second block, the way bad media would, and
  // write the segment back whole and synced.
  const std::string seg_path = dir + "/000000.seg";
  StatusOr<std::string> seg = vfs->ReadFile(seg_path);
  ASSERT_TRUE(seg.ok());
  const ParsedBlock first = ParseBlockAt(*seg, 0);
  ASSERT_EQ(first.defect, BlockDefect::kNone);
  char& byte = (*seg)[first.bytes_consumed + 20];
  byte = static_cast<char>(byte ^ 0x10);
  {
    StatusOr<std::unique_ptr<WritableFile>> f =
        vfs->NewWritableFile(seg_path, WriteMode::kTruncate);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->Append(*seg).ok());
    ASSERT_TRUE((*f)->Sync().ok());
    ASSERT_TRUE((*f)->Close().ok());
  }
  {
    StatusOr<std::unique_ptr<Store>> store =
        Store::Open(vfs, dir, CompactionOptions());
    ASSERT_TRUE(store.ok()) << store.status();
    ASSERT_EQ((*store)->recovery().quarantined.size(), 1u);
    ASSERT_TRUE((*store)->Close().ok());  // commits the quarantine
  }
}

// Runs Open + Compact + Close through `vfs`; *report holds the last
// successful pass.
Status RunCompaction(Vfs* vfs, const std::string& dir,
                     CompactionReport* report) {
  SIDQ_ASSIGN_OR_RETURN(std::unique_ptr<Store> store,
                        Store::Open(vfs, dir, CompactionOptions()));
  SIDQ_RETURN_IF_ERROR(store->Compact(report));
  return store->Close();
}

// Runs over any Vfs: compaction must reclaim and preserve rows in MemVfs
// and on the real filesystem alike.
void ExpectCompactionReclaimsAndPreservesRows(Vfs* vfs,
                                              const std::string& dir) {
  BuildPockedStore(vfs, dir);
  if (::testing::Test::HasFatalFailure()) return;
  const std::string seg_path = dir + "/000000.seg";

  std::map<uint64_t, StRecord> pre;
  uint64_t pre_gen = 0;
  {
    StatusOr<std::unique_ptr<Store>> store =
        Store::Open(vfs, dir, CompactionOptions());
    ASSERT_TRUE(store.ok());
    pre = ScanAll(**store);
    pre_gen = (*store)->manifest_gen();
  }
  const StatusOr<uint64_t> size_before = vfs->FileSize(seg_path);
  ASSERT_TRUE(size_before.ok());

  CompactionReport report;
  ASSERT_TRUE(RunCompaction(vfs, dir, &report).ok());
  EXPECT_EQ(report.segments_compacted, 1u);
  EXPECT_EQ(report.blocks_dropped, 1u);
  EXPECT_EQ(report.blocks_rewritten, 2u);  // 3-block segment minus 1 dead
  EXPECT_GT(report.bytes_reclaimed, 0u);
  EXPECT_GT(report.manifest_gen, pre_gen);

  // The dead block's bytes are physically gone ...
  const StatusOr<uint64_t> size_after = vfs->FileSize(seg_path);
  ASSERT_TRUE(size_after.ok());
  EXPECT_EQ(*size_before - *size_after, report.bytes_reclaimed);
  EXPECT_FALSE(vfs->Exists(seg_path + ".cmp"));

  // ... while every readable row, the row-id gap, and the quarantine
  // verdict (now a tombstone) survive bit-identically.
  StatusOr<std::unique_ptr<Store>> reopened =
      Store::Open(vfs, dir, CompactionOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  const Store& r = **reopened;
  ASSERT_EQ(r.recovery().quarantined.size(), 1u);
  EXPECT_EQ(r.recovery().quarantined[0].length, 0u);  // tombstoned
  EXPECT_EQ(r.recovery().quarantined[0].defect, BlockDefect::kBadCrc);
  EXPECT_EQ(r.recovery().rows_lost, 8u);
  const std::map<uint64_t, StRecord> post = ScanAll(r);
  ASSERT_EQ(post.size(), pre.size());
  for (const auto& [row, rec] : post) {
    EXPECT_TRUE(BitIdentical(rec, pre.at(row))) << row;
  }
  // Idempotent: a second pass finds nothing eligible.
  CompactionReport again;
  ASSERT_TRUE((*reopened)->Compact(&again).ok());
  EXPECT_EQ(again.segments_compacted, 0u);
}

TEST(StoreCrashTest, CompactionFaultFreeReclaimsAndPreservesRows) {
  MemVfs vfs;
  ExpectCompactionReclaimsAndPreservesRows(&vfs, "db");
}

TEST(StoreCrashTest, CompactionFaultFreeReclaimsAndPreservesRowsOnRealVfs) {
  RealStoreDir dir;
  ASSERT_TRUE(dir.ok());
  ExpectCompactionReclaimsAndPreservesRows(DefaultVfs(), dir.db());
}

TEST(StoreCrashTest, CompactionCrashSweepNeverBlendsGenerations) {
  // Fault-free reference: op count, pre/post row images, pre/post gens.
  std::map<uint64_t, StRecord> want;
  uint64_t pre_gen = 0, post_gen = 0;
  int64_t total_ops = 0;
  {
    MemVfs base;
    BuildPockedStore(&base, "db");
    if (HasFatalFailure()) return;
    {
      StatusOr<std::unique_ptr<Store>> store =
          Store::Open(&base, "db", CompactionOptions());
      ASSERT_TRUE(store.ok());
      pre_gen = (*store)->manifest_gen();
      want = ScanAll(**store);
    }
    FaultVfs fault(&base);
    CompactionReport report;
    ASSERT_TRUE(RunCompaction(&fault, "db", &report).ok());
    total_ops = fault.ops();
    post_gen = report.manifest_gen;
  }
  ASSERT_GT(total_ops, 0);
  ASSERT_GT(post_gen, pre_gen);
  ASSERT_EQ(want.size(), kCompactionRows - 8);

  struct StyleSeed {
    FaultVfs::CrashStyle style;
    uint64_t seed;
    const char* name;
  };
  std::vector<StyleSeed> styles = {
      {FaultVfs::CrashStyle::kBeforeOp, 0, "before-op"},
      {FaultVfs::CrashStyle::kTornAppend, 7, "torn"},
      {FaultVfs::CrashStyle::kBitFlip, 11, "flip"},
  };
  if (Aggressive()) {
    styles.push_back({FaultVfs::CrashStyle::kTornAppend, 131, "torn-b"});
    styles.push_back({FaultVfs::CrashStyle::kBitFlip, 257, "flip-b"});
  }

  int fired = 0;
  for (const StyleSeed& s : styles) {
    for (int64_t at_op = 0; at_op < total_ops; ++at_op) {
      const std::string label = std::string("compact-") + s.name + "@op" +
                                std::to_string(at_op);
      MemVfs base;
      BuildPockedStore(&base, "db");
      if (HasFatalFailure()) {
        FAIL() << "fixture build failed at " << label;
      }
      FaultVfs fault(&base);
      FaultVfs::CrashPlan plan;
      plan.at_op = at_op;
      plan.style = s.style;
      plan.seed = s.seed;
      fault.set_plan(plan);
      CompactionReport report;
      const Status st = RunCompaction(&fault, "db", &report);
      if (!fault.crashed()) {
        EXPECT_TRUE(st.ok()) << label << ": " << st;
        continue;
      }
      ++fired;
      EXPECT_FALSE(st.ok()) << label << ": crash fired but pass succeeded";

      // Recovery on the crash-durable bytes: never an error, and the
      // served generation is exactly pre or post -- a blend would show
      // as lost rows, changed bytes, or a gen outside the pair.
      StatusOr<std::unique_ptr<Store>> recovered =
          Store::Open(&base, "db", CompactionOptions());
      ASSERT_TRUE(recovered.ok()) << label << ": " << recovered.status();
      const Store& r = **recovered;
      EXPECT_TRUE(r.manifest_gen() == pre_gen || r.manifest_gen() == post_gen)
          << label << ": gen " << r.manifest_gen() << " not in {" << pre_gen
          << "," << post_gen << "}";
      ASSERT_EQ(r.recovery().quarantined.size(), 1u) << label;
      EXPECT_EQ(r.recovery().rows_lost, 8u) << label;
      const std::map<uint64_t, StRecord> got = ScanAll(r);
      ASSERT_EQ(got.size(), want.size()) << label << ": readable rows blended";
      for (const auto& [row, rec] : got) {
        const auto it = want.find(row);
        ASSERT_NE(it, want.end()) << label << ": unexpected row " << row;
        ASSERT_TRUE(BitIdentical(rec, it->second))
            << label << ": row " << row << " bytes blended";
      }
      // Recovery leaves no compaction debris behind.
      EXPECT_FALSE(base.Exists("db/000000.seg.cmp")) << label;

      // Idempotent reopen: same generation, nothing further repaired.
      StatusOr<std::unique_ptr<Store>> again =
          Store::Open(&base, "db", CompactionOptions());
      ASSERT_TRUE(again.ok()) << label << ": " << again.status();
      EXPECT_EQ((*again)->manifest_gen(), r.manifest_gen()) << label;
      EXPECT_FALSE((*again)->recovery().tail_truncated) << label;
      EXPECT_EQ((*again)->recovery().orphan_segments_removed, 0u) << label;
      EXPECT_EQ(ScanAll(**again).size(), got.size()) << label;

      // And a re-run of compaction completes the interrupted pass.
      CompactionReport retry;
      ASSERT_TRUE((*again)->Compact(&retry).ok()) << label;
      ASSERT_TRUE((*again)->Close().ok()) << label;
      StatusOr<std::unique_ptr<Store>> final_open =
          Store::Open(&base, "db", CompactionOptions());
      ASSERT_TRUE(final_open.ok()) << label;
      ASSERT_EQ(ScanAll(**final_open).size(), want.size()) << label;
      if (HasFatalFailure()) {
        FAIL() << "sweep aborted at " << label;
      }
    }
  }
  EXPECT_GE(fired, static_cast<int>(styles.size()));
}

}  // namespace
}  // namespace store
}  // namespace sidq
