#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/status.h"
#include "core/statusor.h"

namespace sidq {
namespace store {

// -------------------------------------------------------------------------
// Vfs: the single seam between sidq and the filesystem.
//
// Every byte the store (and the hardened writers in core/io.cc,
// obs/export.cc, stream/event_log.cc) persists goes through this
// interface. That is the whole point: durability bugs live at the
// filesystem boundary -- short writes on a full disk, torn appends on
// power loss, fsyncs the kernel acknowledged but a dying drive dropped --
// and a seam makes every one of those failure modes injectable and
// therefore testable. RealVfs is thin POSIX; MemVfs models the
// crash-visible state machine of a journaled filesystem (what survives a
// power cut is exactly the synced prefix of each file plus the dir entries
// made durable by SyncDir); FaultVfs wraps MemVfs and kills I/O at an
// enumerable crash point or at seeded FailPoint sites.
//
// Durability contract implemented by all backends:
//   - Append is buffered: bytes are crash-durable only after Sync()
//     succeeds AND the file's directory entry is durable.
//   - A new file's directory entry becomes durable via SyncDir(parent);
//     so does a Rename. AtomicWriteFile below sequences
//     tmp-write + fsync + rename + dir-fsync for the classic atomic
//     publish.
//   - Rename is atomic: readers see the old content or the new, never a
//     mix.
//
// sidq-lint rule R15 bans raw std::ofstream / fopen outside
// src/store/vfs.cc, so this seam cannot silently grow bypasses.
// -------------------------------------------------------------------------

// A sequential output file. Append order is write order; nothing is
// crash-durable before Sync().
class WritableFile {
 public:
  virtual ~WritableFile() = default;

  [[nodiscard]] virtual Status Append(const char* data, size_t n) = 0;
  [[nodiscard]] Status Append(const std::string& data) {
    return Append(data.data(), data.size());
  }
  // Makes every appended byte crash-durable (fsync).
  [[nodiscard]] virtual Status Sync() = 0;
  // Closes the descriptor, reporting (not swallowing) close errors; the
  // destructor closes silently as a last resort.
  [[nodiscard]] virtual Status Close() = 0;
};

enum class WriteMode {
  kTruncate,  // create or wipe
  kAppend,    // create or continue at the end
};

// A positional-read handle for the out-of-core scan path (Store v2). Every
// backend copies into the caller's `scratch` (pread on RealVfs), so no
// read result aliases file-backed memory and resident memory stays the
// caller's buffers. Read returns how many bytes it wrote to `scratch`:
// min(n, size - offset), short (0 at/after EOF) rather than an error.
// Each Read and Size observes the file as it is now, so a handle opened
// before the file grew sees the appended bytes, and one held across a
// Truncate reads short.
//
// After a Remove/Rename of the underlying path, discard the handle (the
// BlockReader's Invalidate hook does this): a RealVfs handle would keep
// reading the old file, a MemVfs handle fails NotFound.
class RandomAccessFile {
 public:
  virtual ~RandomAccessFile() = default;

  [[nodiscard]] virtual StatusOr<size_t> Read(uint64_t offset, size_t n,
                                              char* scratch) = 0;
  [[nodiscard]] virtual StatusOr<uint64_t> Size() = 0;
};

class Vfs {
 public:
  virtual ~Vfs() = default;

  [[nodiscard]] virtual StatusOr<std::unique_ptr<WritableFile>>
  NewWritableFile(const std::string& path, WriteMode mode) = 0;
  // Whole-file read. Inside src/store/ this is reserved for the small
  // bounded control files (manifests, CURRENT); segment data goes through
  // NewRandomAccessFile + the BlockReader so peak RSS stays bounded by
  // the cache budget (sidq-lint R16 enforces the split).
  [[nodiscard]] virtual StatusOr<std::string> ReadFile(
      const std::string& path) const = 0;
  // Positional-read handle for bounded block reads.
  [[nodiscard]] virtual StatusOr<std::unique_ptr<RandomAccessFile>>
  NewRandomAccessFile(const std::string& path) const = 0;
  [[nodiscard]] virtual StatusOr<uint64_t> FileSize(
      const std::string& path) const = 0;
  [[nodiscard]] virtual bool Exists(const std::string& path) const = 0;
  // Sorted basenames of regular files directly inside `dir`.
  [[nodiscard]] virtual StatusOr<std::vector<std::string>> ListDir(
      const std::string& dir) const = 0;
  [[nodiscard]] virtual Status Rename(const std::string& from,
                                      const std::string& to) = 0;
  [[nodiscard]] virtual Status Truncate(const std::string& path,
                                        uint64_t size) = 0;
  [[nodiscard]] virtual Status Remove(const std::string& path) = 0;
  [[nodiscard]] virtual Status CreateDir(const std::string& dir) = 0;
  // Makes the directory's current entries (creates, renames, removes)
  // crash-durable.
  [[nodiscard]] virtual Status SyncDir(const std::string& dir) = 0;
};

// Process-wide POSIX Vfs singleton (stateless, thread-safe).
Vfs* DefaultVfs();

// The atomic publish every sidq writer uses: write `path`.tmp, fsync,
// rename over `path`, fsync the directory. A crash at any point leaves
// either the complete old file or the complete new one -- never a
// truncated parse-as-valid prefix.
[[nodiscard]] Status AtomicWriteFile(Vfs* vfs, const std::string& path,
                                     const std::string& content);

// Reads `path` through `vfs` (nullptr = DefaultVfs()).
[[nodiscard]] StatusOr<std::string> ReadFileToString(const Vfs* vfs,
                                                     const std::string& path);

// Directory portion of `path` ("" when none).
[[nodiscard]] std::string ParentDir(const std::string& path);

// -------------------------------------------------------------------------
// MemVfs: in-memory filesystem with an explicit crash model, for the
// crash-point sweep. Externally synchronized (the store is single-writer;
// tests drive it from one thread).
//
// Crash semantics of SimulateCrash():
//   - every file's content reverts to its synced prefix;
//   - directory operations (create/rename/remove) not yet covered by a
//     SyncDir of their parent are undone, newest first -- a tmp file that
//     was renamed over a target without a dir fsync reverts to the old
//     target content;
//   - open WritableFile handles go stale and fail every later call.
// -------------------------------------------------------------------------
class MemVfs : public Vfs {
 public:
  MemVfs() = default;

  StatusOr<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, WriteMode mode) override;
  StatusOr<std::string> ReadFile(const std::string& path) const override;
  StatusOr<std::unique_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) const override;
  StatusOr<uint64_t> FileSize(const std::string& path) const override;
  bool Exists(const std::string& path) const override;
  StatusOr<std::vector<std::string>> ListDir(
      const std::string& dir) const override;
  Status Rename(const std::string& from, const std::string& to) override;
  Status Truncate(const std::string& path, uint64_t size) override;
  Status Remove(const std::string& path) override;
  Status CreateDir(const std::string& dir) override;
  Status SyncDir(const std::string& dir) override;

  // Power cut: unsynced bytes and un-fsynced directory operations vanish.
  void SimulateCrash();

  // Test hooks.
  [[nodiscard]] size_t num_files() const { return files_.size(); }
  // Flips one bit of `path` at byte `offset` (durable and volatile alike):
  // the media-corruption injection the CRC sweep uses.
  [[nodiscard]] Status CorruptByte(const std::string& path, uint64_t offset,
                                   uint8_t xor_mask);

 private:
  friend class MemWritableFile;
  friend class MemRandomAccessFile;

  struct MemFile {
    std::string data;
    size_t synced = 0;  // crash-durable prefix length
  };
  struct DirOp {
    enum Kind { kCreate, kRename, kRemove } kind;
    std::string a, b;              // kRename: a -> b
    std::optional<MemFile> saved;  // overwritten/removed content
  };

  std::map<std::string, MemFile> files_;
  std::map<std::string, bool> dirs_;
  // Un-fsynced directory operations, undone in reverse on crash.
  std::vector<DirOp> journal_;
  // Bumped by SimulateCrash(); stale handles compare against it.
  uint64_t generation_ = 0;
};

// -------------------------------------------------------------------------
// FaultVfs: deterministic crash-fault injection over a MemVfs.
//
// Every mutating call is one numbered "op". Two injection mechanisms:
//
//   1. CrashPlan: kill I/O at exactly op `at_op`. kBeforeOp drops the op
//      whole (power cut between writes); kTornAppend persists a seeded
//      prefix of the append before dying (torn page); kBitFlip persists
//      the append with one seeded bit flipped (media corruption at the
//      moment of loss). After the crash fires, every call -- on the vfs
//      and on any open handle -- fails kUnavailable, and the base MemVfs
//      reverts to crash-durable state; recovery then reopens the base.
//      Enumerating at_op over [0, ops()) is the crash-point sweep.
//
//   2. FailPoint sites (core/failpoint.h), keyed by op number, for seeded
//      probabilistic chaos without a crash:
//        store.vfs.append  transient/permanent -> injected EIO before any
//                          byte is written; corrupt -> one seeded bit flip
//                          in the appended data (write "succeeds");
//        store.vfs.sync    corrupt -> LOST FSYNC: reports success without
//                          making anything durable; errors -> injected
//                          EIO;
//        store.vfs.rename  transient/permanent -> injected EIO, rename
//                          not performed.
// -------------------------------------------------------------------------
class FaultVfs : public Vfs {
 public:
  enum class CrashStyle {
    kBeforeOp,    // op never happens
    kTornAppend,  // seeded prefix of the append becomes durable
    kBitFlip,     // append lands with one seeded bit flipped, then crash
  };
  struct CrashPlan {
    int64_t at_op = -1;  // < 0: never crash
    CrashStyle style = CrashStyle::kBeforeOp;
    uint64_t seed = 0;  // drives torn prefix length / flipped bit position
  };

  explicit FaultVfs(MemVfs* base) : base_(base) {}

  void set_plan(const CrashPlan& plan) { plan_ = plan; }
  [[nodiscard]] int64_t ops() const { return ops_; }
  [[nodiscard]] bool crashed() const { return crashed_; }

  StatusOr<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, WriteMode mode) override;
  StatusOr<std::string> ReadFile(const std::string& path) const override;
  // Reads are not numbered ops (the crash plan enumerates MUTATING I/O);
  // a read after the crash fired fails kUnavailable like everything else.
  StatusOr<std::unique_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) const override;
  StatusOr<uint64_t> FileSize(const std::string& path) const override;
  bool Exists(const std::string& path) const override;
  StatusOr<std::vector<std::string>> ListDir(
      const std::string& dir) const override;
  Status Rename(const std::string& from, const std::string& to) override;
  Status Truncate(const std::string& path, uint64_t size) override;
  Status Remove(const std::string& path) override;
  Status CreateDir(const std::string& dir) override;
  Status SyncDir(const std::string& dir) override;

 private:
  friend class FaultWritableFile;
  friend class FaultRandomAccessFile;

  // Claims the next op number; returns the crash/injection verdict for a
  // non-append op (append handles torn/flip itself). `site` may be null
  // (op counts toward the crash plan but has no FailPoint). For kCorrupt
  // verdicts *corrupt is set and OK returned; callers that cannot corrupt
  // pass nullptr and the verdict degrades to pass.
  [[nodiscard]] Status BeginOp(const char* site, bool* corrupt);
  void Crash();

  MemVfs* base_;
  CrashPlan plan_;
  int64_t ops_ = 0;
  bool crashed_ = false;
};

// Chaos site names (armed via ArmFailPoint in tests).
inline constexpr char kVfsAppendFailPoint[] = "store.vfs.append";
inline constexpr char kVfsSyncFailPoint[] = "store.vfs.sync";
inline constexpr char kVfsRenameFailPoint[] = "store.vfs.rename";

}  // namespace store
}  // namespace sidq
