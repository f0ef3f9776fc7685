#include "kernels/soa.h"

namespace sidq {
namespace kernels {

SoaView CopyColumns(const Trajectory& tr, ArenaScope* scope) {
  const size_t n = tr.size();
  double* xs = scope->AllocArray<double>(n);
  double* ys = scope->AllocArray<double>(n);
  Timestamp* ts = scope->AllocArray<Timestamp>(n);
  for (size_t i = 0; i < n; ++i) {
    xs[i] = tr[i].p.x;
    ys[i] = tr[i].p.y;
    ts[i] = tr[i].t;
  }
  return SoaView{xs, ys, ts, n};
}

}  // namespace kernels
}  // namespace sidq
