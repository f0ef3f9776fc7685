// A scratch store directory on the real filesystem, for store tests that
// run over DefaultVfs() as well as MemVfs. Each instance is a fresh
// mkdtemp directory under ::testing::TempDir(): ctest runs test processes
// in parallel, so a fixed name would be shared between them. The store
// lives in its "db" subdirectory; the destructor removes the files the
// store left there through Vfs::Remove, then the two directories.

#pragma once

#include <unistd.h>

#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "store/vfs.h"

namespace sidq {
namespace store {

class RealStoreDir {
 public:
  RealStoreDir() {
    std::string tmpl = ::testing::TempDir() + "/sidq_store_XXXXXX";
    if (::mkdtemp(tmpl.data()) != nullptr) root_ = tmpl;
  }
  ~RealStoreDir() {
    if (root_.empty()) return;
    Vfs* vfs = DefaultVfs();
    const StatusOr<std::vector<std::string>> names = vfs->ListDir(db());
    if (names.ok()) {
      for (const std::string& name : *names) {
        EXPECT_TRUE(vfs->Remove(db() + "/" + name).ok()) << name;
      }
    }
    ::rmdir(db().c_str());
    ::rmdir(root_.c_str());
  }
  RealStoreDir(const RealStoreDir&) = delete;
  RealStoreDir& operator=(const RealStoreDir&) = delete;

  // False when mkdtemp failed; the test should stop.
  bool ok() const { return !root_.empty(); }
  // The store directory (created by Store::Open).
  std::string db() const { return root_ + "/db"; }

 private:
  std::string root_;
};

}  // namespace store
}  // namespace sidq
