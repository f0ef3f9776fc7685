#pragma once

#include <cstddef>

#include "core/arena.h"
#include "core/trajectory.h"
#include "core/types.h"

namespace sidq {
namespace kernels {

// Non-owning columnar (structure-of-arrays) view over trajectory samples.
// The hot loops in similarity, outlier detection, and map matching stream
// x/y/t columns; a 32-byte AoS TrajectoryPoint wastes three quarters of
// every cache line on fields those loops never read, and its layout defeats
// auto-vectorization. The dispatched kernels (dispatch.h) all take raw
// column pointers from this view.
struct SoaView {
  const double* x = nullptr;
  const double* y = nullptr;
  const Timestamp* t = nullptr;
  size_t size = 0;

  [[nodiscard]] bool empty() const { return size == 0; }
};

// Copies the planar coordinates and timestamps of `tr` into three columns
// allocated from `scope`. The view is valid until the scope rewinds and
// describes the points as they were at the call: nothing is memoized on the
// trajectory, so a later write to it is seen by the next copy.
SoaView CopyColumns(const Trajectory& tr, ArenaScope* scope);

}  // namespace kernels
}  // namespace sidq
