#include "store/vfs.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "core/failpoint.h"

namespace sidq {
namespace store {

namespace {

// SplitMix64: the seeded-but-cheap mixer used to place torn-write cut
// points and flipped bits deterministically per (seed, op).
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::string ErrnoMessage(const std::string& what, const std::string& path) {
  return what + " " + path + ": " + std::strerror(errno);
}

}  // namespace

std::string ParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return "";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

// ---------------------------------------------------------------------------
// RealVfs: thin POSIX. Raw fds rather than iostreams so every syscall
// result is checked -- std::ofstream swallows short writes and close
// errors, which is exactly the failure mode this seam exists to kill.
// ---------------------------------------------------------------------------

namespace {

class RealWritableFile : public WritableFile {
 public:
  RealWritableFile(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}
  ~RealWritableFile() override {
    if (fd_ >= 0) ::close(fd_);  // last-resort; Close() reports errors
  }

  Status Append(const char* data, size_t n) override {
    if (fd_ < 0) return Status::FailedPrecondition("append to closed file " + path_);
    while (n > 0) {
      const ssize_t w = ::write(fd_, data, n);
      if (w < 0) {
        if (errno == EINTR) continue;
        return Status::DataLoss(ErrnoMessage("short write to", path_));
      }
      data += w;
      n -= static_cast<size_t>(w);
    }
    return Status::OK();
  }

  Status Sync() override {
    if (fd_ < 0) return Status::FailedPrecondition("sync of closed file " + path_);
    if (::fsync(fd_) != 0) {
      return Status::DataLoss(ErrnoMessage("fsync failed for", path_));
    }
    return Status::OK();
  }

  Status Close() override {
    if (fd_ < 0) return Status::OK();
    const int fd = fd_;
    fd_ = -1;
    if (::close(fd) != 0) {
      // A failing close can mean deferred write errors (NFS, full disk):
      // data loss, not a shrug.
      return Status::DataLoss(ErrnoMessage("close failed for", path_));
    }
    return Status::OK();
  }

 private:
  int fd_;
  std::string path_;
};

// Positional reads through pread into the caller's buffer. The kernel
// answers each call against the file as it is now, so growth and
// truncation need no bookkeeping here: a read at or past EOF is short.
class RealRandomAccessFile : public RandomAccessFile {
 public:
  RealRandomAccessFile(int fd, std::string path)
      : fd_(fd), path_(std::move(path)) {}
  ~RealRandomAccessFile() override { ::close(fd_); }

  StatusOr<size_t> Read(uint64_t offset, size_t n, char* scratch) override {
    size_t got = 0;
    while (got < n) {
      const ssize_t r = ::pread(fd_, scratch + got, n - got,
                                static_cast<off_t>(offset + got));
      if (r < 0) {
        if (errno == EINTR) continue;
        return Status::Unavailable(ErrnoMessage("pread failed for", path_));
      }
      if (r == 0) break;  // EOF
      got += static_cast<size_t>(r);
    }
    return got;
  }

  StatusOr<uint64_t> Size() override {
    struct stat st;
    if (::fstat(fd_, &st) != 0) {
      return Status::Unavailable(ErrnoMessage("fstat failed for", path_));
    }
    return static_cast<uint64_t>(st.st_size);
  }

 private:
  int fd_;
  std::string path_;
};

class RealVfs : public Vfs {
 public:
  StatusOr<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, WriteMode mode) override {
    int flags = O_WRONLY | O_CREAT | O_CLOEXEC;
    flags |= (mode == WriteMode::kTruncate) ? O_TRUNC : O_APPEND;
    const int fd = ::open(path.c_str(), flags, 0644);
    if (fd < 0) {
      return Status::Unavailable(ErrnoMessage("cannot open", path));
    }
    return {std::make_unique<RealWritableFile>(fd, path)};
  }

  StatusOr<std::string> ReadFile(const std::string& path) const override {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
      if (errno == ENOENT) return Status::NotFound("no such file: " + path);
      return Status::Unavailable(ErrnoMessage("cannot open", path));
    }
    std::string out;
    char buf[1 << 16];
    for (;;) {
      const ssize_t r = ::read(fd, buf, sizeof(buf));
      if (r < 0) {
        if (errno == EINTR) continue;
        const Status st = Status::Unavailable(ErrnoMessage("read failed for", path));
        ::close(fd);
        return st;
      }
      if (r == 0) break;
      out.append(buf, static_cast<size_t>(r));
    }
    ::close(fd);
    return out;
  }

  StatusOr<std::unique_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) const override {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
      if (errno == ENOENT) return Status::NotFound("no such file: " + path);
      return Status::Unavailable(ErrnoMessage("cannot open", path));
    }
    return {std::make_unique<RealRandomAccessFile>(fd, path)};
  }

  StatusOr<uint64_t> FileSize(const std::string& path) const override {
    struct stat st;
    if (::stat(path.c_str(), &st) != 0) {
      if (errno == ENOENT) return Status::NotFound("no such file: " + path);
      return Status::Unavailable(ErrnoMessage("stat failed for", path));
    }
    return static_cast<uint64_t>(st.st_size);
  }

  bool Exists(const std::string& path) const override {
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
  }

  StatusOr<std::vector<std::string>> ListDir(
      const std::string& dir) const override {
    DIR* d = ::opendir(dir.c_str());
    if (d == nullptr) {
      if (errno == ENOENT) return Status::NotFound("no such directory: " + dir);
      return Status::Unavailable(ErrnoMessage("cannot open directory", dir));
    }
    std::vector<std::string> names;
    while (struct dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      if (name == "." || name == "..") continue;
      struct stat st;
      if (::stat((dir + "/" + name).c_str(), &st) == 0 && S_ISREG(st.st_mode)) {
        names.push_back(name);
      }
    }
    ::closedir(d);
    std::sort(names.begin(), names.end());
    return names;
  }

  Status Rename(const std::string& from, const std::string& to) override {
    if (::rename(from.c_str(), to.c_str()) != 0) {
      if (errno == ENOENT) return Status::NotFound("no such file: " + from);
      return Status::Unavailable(ErrnoMessage("rename failed for", from + " -> " + to));
    }
    return Status::OK();
  }

  Status Truncate(const std::string& path, uint64_t size) override {
    if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0) {
      if (errno == ENOENT) return Status::NotFound("no such file: " + path);
      return Status::Unavailable(ErrnoMessage("truncate failed for", path));
    }
    return Status::OK();
  }

  Status Remove(const std::string& path) override {
    if (::unlink(path.c_str()) != 0) {
      if (errno == ENOENT) return Status::NotFound("no such file: " + path);
      return Status::Unavailable(ErrnoMessage("unlink failed for", path));
    }
    return Status::OK();
  }

  Status CreateDir(const std::string& dir) override {
    if (::mkdir(dir.c_str(), 0755) == 0) return Status::OK();
    if (errno == EEXIST) {
      struct stat st;
      if (::stat(dir.c_str(), &st) == 0 && S_ISDIR(st.st_mode)) {
        return Status::OK();
      }
      return Status::AlreadyExists("path exists but is not a directory: " + dir);
    }
    return Status::Unavailable(ErrnoMessage("mkdir failed for", dir));
  }

  Status SyncDir(const std::string& dir) override {
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd < 0) {
      return Status::Unavailable(ErrnoMessage("cannot open directory", dir));
    }
    const int rc = ::fsync(fd);
    ::close(fd);
    if (rc != 0) {
      return Status::DataLoss(ErrnoMessage("fsync failed for directory", dir));
    }
    return Status::OK();
  }
};

}  // namespace

Vfs* DefaultVfs() {
  // Meyers singleton: RealVfs is stateless, so destruction order at exit
  // cannot strand anyone holding the pointer.
  static RealVfs vfs;
  return &vfs;
}

Status AtomicWriteFile(Vfs* vfs, const std::string& path,
                       const std::string& content) {
  if (vfs == nullptr) vfs = DefaultVfs();
  const std::string tmp = path + ".tmp";
  SIDQ_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> file,
                        vfs->NewWritableFile(tmp, WriteMode::kTruncate));
  SIDQ_RETURN_IF_ERROR(file->Append(content));
  SIDQ_RETURN_IF_ERROR(file->Sync());
  SIDQ_RETURN_IF_ERROR(file->Close());
  SIDQ_RETURN_IF_ERROR(vfs->Rename(tmp, path));
  const std::string dir = ParentDir(path);
  if (!dir.empty()) {
    SIDQ_RETURN_IF_ERROR(vfs->SyncDir(dir));
  }
  return Status::OK();
}

StatusOr<std::string> ReadFileToString(const Vfs* vfs,
                                       const std::string& path) {
  if (vfs == nullptr) vfs = DefaultVfs();
  return vfs->ReadFile(path);
}

// ---------------------------------------------------------------------------
// MemVfs
// ---------------------------------------------------------------------------

namespace {
// Set by MemVfs on SimulateCrash via the handle's generation check.
constexpr char kStaleHandle[] = "stale file handle (post-crash)";
}  // namespace

class MemWritableFile : public WritableFile {
 public:
  MemWritableFile(MemVfs* vfs, std::string path, uint64_t generation)
      : vfs_(vfs), path_(std::move(path)), generation_(generation) {}

  Status Append(const char* data, size_t n) override {
    SIDQ_ASSIGN_OR_RETURN(MemVfs::MemFile * f, Live());
    f->data.append(data, n);
    return Status::OK();
  }

  Status Sync() override {
    SIDQ_ASSIGN_OR_RETURN(MemVfs::MemFile * f, Live());
    f->synced = f->data.size();
    return Status::OK();
  }

  Status Close() override {
    closed_ = true;
    return Status::OK();
  }

 private:
  StatusOr<MemVfs::MemFile*> Live() {
    if (closed_) return Status::FailedPrecondition("file closed: " + path_);
    if (generation_ != vfs_->generation_) return Status::Unavailable(kStaleHandle);
    auto it = vfs_->files_.find(path_);
    if (it == vfs_->files_.end()) return Status::Unavailable(kStaleHandle);
    return &it->second;
  }

  MemVfs* vfs_;
  std::string path_;
  uint64_t generation_;
  bool closed_ = false;
};

// Mem positional reads re-resolve the path on every call, so a handle
// held across a crash / rename / remove degrades to NotFound instead of
// serving stale bytes -- the strictest form of the "discard handles after
// mutation" contract, which keeps the crash sweeps honest.
class MemRandomAccessFile : public RandomAccessFile {
 public:
  MemRandomAccessFile(const MemVfs* vfs, std::string path)
      : vfs_(vfs), path_(std::move(path)) {}

  StatusOr<size_t> Read(uint64_t offset, size_t n, char* scratch) override {
    auto it = vfs_->files_.find(path_);
    if (it == vfs_->files_.end()) {
      return Status::NotFound("no such file: " + path_);
    }
    const std::string& data = it->second.data;
    if (offset >= data.size()) return size_t{0};
    const size_t len = std::min(n, data.size() - offset);
    std::memcpy(scratch, data.data() + offset, len);
    return len;
  }

  StatusOr<uint64_t> Size() override {
    auto it = vfs_->files_.find(path_);
    if (it == vfs_->files_.end()) {
      return Status::NotFound("no such file: " + path_);
    }
    return static_cast<uint64_t>(it->second.data.size());
  }

 private:
  const MemVfs* vfs_;
  std::string path_;
};

StatusOr<std::unique_ptr<WritableFile>> MemVfs::NewWritableFile(
    const std::string& path, WriteMode mode) {
  auto it = files_.find(path);
  if (it == files_.end()) {
    // Brand-new file: the dir entry is volatile until SyncDir(parent).
    journal_.push_back(DirOp{DirOp::kCreate, path, "", std::nullopt});
    files_[path] = MemFile{};
  } else if (mode == WriteMode::kTruncate) {
    // Truncating an existing file: undone wholesale on crash unless the
    // parent dir is synced (conservative -- the real-world outcome is
    // "old content, new content, or garbage"; we model the recoverable
    // worst case deterministically).
    journal_.push_back(DirOp{DirOp::kCreate, path, "", it->second});
    it->second = MemFile{};
  }
  return {std::make_unique<MemWritableFile>(this, path, generation_)};
}

StatusOr<std::string> MemVfs::ReadFile(const std::string& path) const {
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound("no such file: " + path);
  return it->second.data;
}

StatusOr<std::unique_ptr<RandomAccessFile>> MemVfs::NewRandomAccessFile(
    const std::string& path) const {
  if (files_.count(path) == 0) {
    return Status::NotFound("no such file: " + path);
  }
  return {std::make_unique<MemRandomAccessFile>(this, path)};
}

StatusOr<uint64_t> MemVfs::FileSize(const std::string& path) const {
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound("no such file: " + path);
  return static_cast<uint64_t>(it->second.data.size());
}

bool MemVfs::Exists(const std::string& path) const {
  return files_.count(path) > 0 || dirs_.count(path) > 0;
}

StatusOr<std::vector<std::string>> MemVfs::ListDir(
    const std::string& dir) const {
  std::vector<std::string> names;
  for (const auto& [path, file] : files_) {
    (void)file;
    if (ParentDir(path) == dir) {
      names.push_back(path.substr(dir.size() + 1));
    }
  }
  if (names.empty() && dirs_.count(dir) == 0) {
    return Status::NotFound("no such directory: " + dir);
  }
  return names;  // std::map iteration order is already sorted
}

Status MemVfs::Rename(const std::string& from, const std::string& to) {
  auto it = files_.find(from);
  if (it == files_.end()) return Status::NotFound("no such file: " + from);
  std::optional<MemFile> overwritten;
  auto dst = files_.find(to);
  if (dst != files_.end()) overwritten = dst->second;
  journal_.push_back(DirOp{DirOp::kRename, from, to, std::move(overwritten)});
  files_[to] = std::move(it->second);
  files_.erase(from);
  return Status::OK();
}

Status MemVfs::Truncate(const std::string& path, uint64_t size) {
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound("no such file: " + path);
  if (size > it->second.data.size()) {
    return Status::InvalidArgument("truncate beyond end of " + path);
  }
  // Recovery's tail cut: modelled as immediately durable (recovery syncs
  // before committing anyway, and a re-crash just re-runs the same cut).
  it->second.data.resize(size);
  it->second.synced = std::min(it->second.synced, static_cast<size_t>(size));
  return Status::OK();
}

Status MemVfs::Remove(const std::string& path) {
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound("no such file: " + path);
  journal_.push_back(DirOp{DirOp::kRemove, path, "", it->second});
  files_.erase(it);
  return Status::OK();
}

Status MemVfs::CreateDir(const std::string& dir) {
  // Directory creation is modelled as immediately durable; the store
  // creates its directory once, before any data it must protect exists.
  dirs_[dir] = true;
  return Status::OK();
}

Status MemVfs::SyncDir(const std::string& dir) {
  // Directory fsync pins every pending create/rename/remove whose entries
  // live in `dir`.
  auto affected = [&](const DirOp& op) {
    if (op.kind == DirOp::kRename) {
      return ParentDir(op.a) == dir && ParentDir(op.b) == dir;
    }
    return ParentDir(op.a) == dir;
  };
  journal_.erase(
      std::remove_if(journal_.begin(), journal_.end(), affected),
      journal_.end());
  return Status::OK();
}

void MemVfs::SimulateCrash() {
  // Undo un-fsynced directory operations, newest first.
  for (auto it = journal_.rbegin(); it != journal_.rend(); ++it) {
    switch (it->kind) {
      case DirOp::kCreate:
        if (it->saved.has_value()) {
          files_[it->a] = std::move(*it->saved);
        } else {
          files_.erase(it->a);
        }
        break;
      case DirOp::kRename: {
        auto dst = files_.find(it->b);
        if (dst != files_.end()) {
          files_[it->a] = std::move(dst->second);
          files_.erase(it->b);
        }
        if (it->saved.has_value()) {
          files_[it->b] = std::move(*it->saved);
        }
        break;
      }
      case DirOp::kRemove:
        files_[it->a] = std::move(*it->saved);
        break;
    }
  }
  journal_.clear();
  // Unsynced bytes vanish.
  for (auto& [path, file] : files_) {
    (void)path;
    file.data.resize(file.synced);
  }
  ++generation_;
}

Status MemVfs::CorruptByte(const std::string& path, uint64_t offset,
                           uint8_t xor_mask) {
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound("no such file: " + path);
  if (offset >= it->second.data.size()) {
    return Status::OutOfRange("corrupt offset beyond end of " + path);
  }
  it->second.data[offset] =
      static_cast<char>(it->second.data[offset] ^ xor_mask);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// FaultVfs
// ---------------------------------------------------------------------------

namespace {
constexpr char kCrashed[] = "vfs crashed (injected)";
}  // namespace

class FaultWritableFile : public WritableFile {
 public:
  FaultWritableFile(FaultVfs* vfs, std::unique_ptr<WritableFile> base,
                    std::string path)
      : vfs_(vfs), base_(std::move(base)), path_(std::move(path)) {}

  Status Append(const char* data, size_t n) override {
    if (vfs_->crashed_) return Status::Unavailable(kCrashed);
    const int64_t op = vfs_->ops_++;
    // Crash plan: this append is the kill point.
    if (op == vfs_->plan_.at_op) {
      switch (vfs_->plan_.style) {
        case FaultVfs::CrashStyle::kBeforeOp:
          vfs_->Crash();
          return Status::Unavailable(kCrashed);
        case FaultVfs::CrashStyle::kTornAppend: {
          // A seeded strict prefix of the append reaches the medium (torn
          // page), made durable so recovery actually sees it.
          const size_t torn =
              n == 0 ? 0
                     : static_cast<size_t>(
                           Mix64(vfs_->plan_.seed ^ static_cast<uint64_t>(op)) %
                           n);
          if (torn > 0) {
            (void)base_->Append(data, torn);  // sidq: allow-ignored-status(crashing anyway; best-effort torn prefix)
            (void)base_->Sync();  // sidq: allow-ignored-status(crashing anyway; best-effort torn prefix)
          }
          vfs_->Crash();
          return Status::Unavailable(kCrashed);
        }
        case FaultVfs::CrashStyle::kBitFlip: {
          // The full append lands, but one seeded bit flips on the way
          // down (media corruption at the moment of loss).
          std::string corrupted(data, n);
          if (n > 0) {
            const uint64_t bit =
                Mix64(vfs_->plan_.seed ^ static_cast<uint64_t>(op) ^
                      0x5bd1e995ull) %
                (static_cast<uint64_t>(n) * 8);
            corrupted[bit / 8] =
                static_cast<char>(corrupted[bit / 8] ^ (1u << (bit % 8)));
          }
          (void)base_->Append(corrupted.data(), corrupted.size());  // sidq: allow-ignored-status(crashing anyway; best-effort corrupt write)
          (void)base_->Sync();  // sidq: allow-ignored-status(crashing anyway; best-effort corrupt write)
          vfs_->Crash();
          return Status::Unavailable(kCrashed);
        }
      }
    }
    // FailPoint chaos (no crash): injected EIO or silent corruption.
    if (auto fp = EvaluateFailPoint(kVfsAppendFailPoint,
                                    static_cast<uint64_t>(op))) {
      switch (fp->action) {
        case FailPointAction::kTransientError:
          return Status::Unavailable("injected EIO (transient) on append to " +
                                     path_);
        case FailPointAction::kPermanentError:
          return Status::DataLoss("injected EIO on append to " + path_);
        case FailPointAction::kCorrupt: {
          std::string corrupted(data, n);
          if (n > 0) {
            const uint64_t bit =
                Mix64(fp->seed ^ static_cast<uint64_t>(op)) %
                (static_cast<uint64_t>(n) * 8);
            corrupted[bit / 8] =
                static_cast<char>(corrupted[bit / 8] ^ (1u << (bit % 8)));
          }
          return base_->Append(corrupted.data(), corrupted.size());
        }
        case FailPointAction::kStall:
          break;  // no clock at this layer; treat as pass
      }
    }
    return base_->Append(data, n);
  }

  Status Sync() override {
    if (vfs_->crashed_) return Status::Unavailable(kCrashed);
    const int64_t op = vfs_->ops_++;
    if (op == vfs_->plan_.at_op) {
      // Any style at a sync point means "died before the fsync".
      vfs_->Crash();
      return Status::Unavailable(kCrashed);
    }
    if (auto fp = EvaluateFailPoint(kVfsSyncFailPoint,
                                    static_cast<uint64_t>(op))) {
      switch (fp->action) {
        case FailPointAction::kTransientError:
          return Status::Unavailable("injected EIO (transient) on fsync of " +
                                     path_);
        case FailPointAction::kPermanentError:
          return Status::DataLoss("injected EIO on fsync of " + path_);
        case FailPointAction::kCorrupt:
          // LOST FSYNC: the drive acknowledged and dropped it. The caller
          // believes the bytes are durable; a later crash proves otherwise.
          return Status::OK();
        case FailPointAction::kStall:
          break;
      }
    }
    return base_->Sync();
  }

  Status Close() override {
    if (vfs_->crashed_) return Status::Unavailable(kCrashed);
    const int64_t op = vfs_->ops_++;
    if (op == vfs_->plan_.at_op) {
      vfs_->Crash();
      return Status::Unavailable(kCrashed);
    }
    return base_->Close();
  }

 private:
  FaultVfs* vfs_;
  std::unique_ptr<WritableFile> base_;
  std::string path_;
};

Status FaultVfs::BeginOp(const char* site, bool* corrupt) {
  if (crashed_) return Status::Unavailable(kCrashed);
  const int64_t op = ops_++;
  if (op == plan_.at_op) {
    // Non-append ops have no partial version; every style degrades to
    // "crash before the op happens".
    Crash();
    return Status::Unavailable(kCrashed);
  }
  if (site != nullptr) {
    if (auto fp = EvaluateFailPoint(site, static_cast<uint64_t>(op))) {
      switch (fp->action) {
        case FailPointAction::kTransientError:
          return Status::Unavailable(std::string("injected EIO (transient) at ") +
                                     site);
        case FailPointAction::kPermanentError:
          return Status::DataLoss(std::string("injected EIO at ") + site);
        case FailPointAction::kCorrupt:
          if (corrupt != nullptr) *corrupt = true;
          return Status::OK();
        case FailPointAction::kStall:
          return Status::OK();
      }
    }
  }
  return Status::OK();
}

void FaultVfs::Crash() {
  crashed_ = true;
  base_->SimulateCrash();
}

StatusOr<std::unique_ptr<WritableFile>> FaultVfs::NewWritableFile(
    const std::string& path, WriteMode mode) {
  SIDQ_RETURN_IF_ERROR(BeginOp(nullptr, nullptr));
  SIDQ_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> base,
                        base_->NewWritableFile(path, mode));
  return {std::make_unique<FaultWritableFile>(this, std::move(base), path)};
}

StatusOr<std::string> FaultVfs::ReadFile(const std::string& path) const {
  if (crashed_) return Status::Unavailable(kCrashed);
  return base_->ReadFile(path);
}

// Positional reads pass through un-numbered (the crash plan enumerates
// mutating I/O only, so adding the read path cannot shift existing sweep
// op indices); once the crash fired, every read fails like the rest.
class FaultRandomAccessFile : public RandomAccessFile {
 public:
  FaultRandomAccessFile(const FaultVfs* vfs,
                        std::unique_ptr<RandomAccessFile> base)
      : vfs_(vfs), base_(std::move(base)) {}

  StatusOr<size_t> Read(uint64_t offset, size_t n, char* scratch) override {
    if (vfs_->crashed_) return Status::Unavailable(kCrashed);
    return base_->Read(offset, n, scratch);
  }

  StatusOr<uint64_t> Size() override {
    if (vfs_->crashed_) return Status::Unavailable(kCrashed);
    return base_->Size();
  }

 private:
  const FaultVfs* vfs_;
  std::unique_ptr<RandomAccessFile> base_;
};

StatusOr<std::unique_ptr<RandomAccessFile>> FaultVfs::NewRandomAccessFile(
    const std::string& path) const {
  if (crashed_) return Status::Unavailable(kCrashed);
  SIDQ_ASSIGN_OR_RETURN(std::unique_ptr<RandomAccessFile> base,
                        base_->NewRandomAccessFile(path));
  return {std::make_unique<FaultRandomAccessFile>(this, std::move(base))};
}

StatusOr<uint64_t> FaultVfs::FileSize(const std::string& path) const {
  if (crashed_) return Status::Unavailable(kCrashed);
  return base_->FileSize(path);
}

bool FaultVfs::Exists(const std::string& path) const {
  if (crashed_) return false;
  return base_->Exists(path);
}

StatusOr<std::vector<std::string>> FaultVfs::ListDir(
    const std::string& dir) const {
  if (crashed_) return Status::Unavailable(kCrashed);
  return base_->ListDir(dir);
}

Status FaultVfs::Rename(const std::string& from, const std::string& to) {
  SIDQ_RETURN_IF_ERROR(BeginOp(kVfsRenameFailPoint, nullptr));
  return base_->Rename(from, to);
}

Status FaultVfs::Truncate(const std::string& path, uint64_t size) {
  SIDQ_RETURN_IF_ERROR(BeginOp(nullptr, nullptr));
  return base_->Truncate(path, size);
}

Status FaultVfs::Remove(const std::string& path) {
  SIDQ_RETURN_IF_ERROR(BeginOp(nullptr, nullptr));
  return base_->Remove(path);
}

Status FaultVfs::CreateDir(const std::string& dir) {
  SIDQ_RETURN_IF_ERROR(BeginOp(nullptr, nullptr));
  return base_->CreateDir(dir);
}

Status FaultVfs::SyncDir(const std::string& dir) {
  // The sync FailPoint site covers directory fsyncs too: kCorrupt here is
  // a lost dir fsync -- the rename "succeeded" but the entry never became
  // durable.
  bool lost = false;
  SIDQ_RETURN_IF_ERROR(BeginOp(kVfsSyncFailPoint, &lost));
  if (lost) return Status::OK();
  return base_->SyncDir(dir);
}

}  // namespace store
}  // namespace sidq
