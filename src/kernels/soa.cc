#include "kernels/soa.h"

#include <array>

#include "core/mutex.h"

namespace sidq {
namespace kernels {

SoaBuffer SoaBuffer::FromTrajectory(const Trajectory& tr) {
  SoaBuffer buf;
  const std::vector<TrajectoryPoint>& pts = tr.points();
  buf.xs_.reserve(pts.size());
  buf.ys_.reserve(pts.size());
  buf.ts_.reserve(pts.size());
  for (const TrajectoryPoint& pt : pts) {
    buf.xs_.push_back(pt.p.x);
    buf.ys_.push_back(pt.p.y);
    buf.ts_.push_back(pt.t);
  }
  return buf;
}

namespace {

// Striped locks guarding Trajectory::derived_cache() slots: the slot itself
// is a plain (unsynchronized) member, so concurrent Of() calls on the same
// object serialize here. Striping by object address keeps the table tiny
// while making collisions (two distinct trajectories sharing a stripe)
// merely a throughput, never a correctness, concern.
//
// The guarded data (the cache slot) lives outside this TU, so the
// lock<->data relation cannot be expressed with SIDQ_GUARDED_BY; the
// capability map in DESIGN.md ("Concurrency & locking discipline") records
// it instead, and the annotated MutexLock below keeps the acquire/release
// pairing under analysis.
constexpr size_t kCacheStripes = 64;

Mutex& StripeFor(const Trajectory* tr) {
  static std::array<Mutex, kCacheStripes> stripes;
  const size_t h = reinterpret_cast<uintptr_t>(tr) / alignof(Trajectory);
  return stripes[h % kCacheStripes];
}

}  // namespace

TrajectoryView TrajectoryView::Of(const Trajectory& tr) {
  std::shared_ptr<const SoaBuffer> buffer;
  {
    const MutexLock lock(StripeFor(&tr));
    Trajectory::DerivedCache& slot = tr.derived_cache();
    if (slot.revision == tr.revision() && slot.value != nullptr) {
      buffer = std::static_pointer_cast<const SoaBuffer>(slot.value);
    } else {
      buffer =
          std::make_shared<const SoaBuffer>(SoaBuffer::FromTrajectory(tr));
      slot.value = buffer;
      slot.revision = tr.revision();
    }
  }
  return TrajectoryView(buffer, buffer->view());
}

}  // namespace kernels
}  // namespace sidq
