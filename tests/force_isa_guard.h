// Restores SIDQ_FORCE_ISA and the resolved kernel tier when a test scope
// exits, however it exits, so a test that pins a tier (by setting the
// variable and calling KernelDispatch::ReinitForTest) cannot leak it into
// later tests.

#pragma once

#include <cstdlib>
#include <string>

#include "kernels/dispatch.h"

namespace sidq {
namespace kernels {

class ForceIsaGuard {
 public:
  ForceIsaGuard() {
    const char* v = std::getenv("SIDQ_FORCE_ISA");
    if (v != nullptr) saved_ = v;
    had_ = v != nullptr;
  }
  ~ForceIsaGuard() {
    if (had_) {
      setenv("SIDQ_FORCE_ISA", saved_.c_str(), 1);
    } else {
      unsetenv("SIDQ_FORCE_ISA");
    }
    KernelDispatch::ReinitForTest();
  }
  ForceIsaGuard(const ForceIsaGuard&) = delete;
  ForceIsaGuard& operator=(const ForceIsaGuard&) = delete;

 private:
  std::string saved_;
  bool had_ = false;
};

}  // namespace kernels
}  // namespace sidq
