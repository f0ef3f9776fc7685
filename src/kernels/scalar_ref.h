#pragma once

#include <cstddef>

#include "core/trajectory.h"

namespace sidq {
namespace kernels {
namespace scalar {

// Scalar reference implementations of the kernel-layer primitives. These
// mirror the pre-kernel AoS loops (the original query/similarity.cc code)
// operation-for-operation and their translation unit is compiled with
// auto-vectorization disabled (src/kernels/CMakeLists.txt), so they are the
// honest "before" baseline for bench_kernels and the oracle the property
// tests compare the vectorized kernels against bit-for-bit.

// Original DtwDistance: two-row DP with the scaled Sakoe-Chiba band.
double DtwDistance(const Trajectory& a, const Trajectory& b, int band);

// Original DiscreteFrechetDistance.
double FrechetDistance(const Trajectory& a, const Trajectory& b);

// Original EdrDistance.
double EdrDistance(const Trajectory& a, const Trajectory& b,
                   double epsilon_m);

// Original LcssSimilarity.
double LcssSimilarity(const Trajectory& a, const Trajectory& b,
                      double epsilon_m, Timestamp delta_ms);

// AoS consecutive-sample distances: out[i] = Distance(tr[i].p, tr[i+1].p).
void ConsecutiveDist(const Trajectory& tr, double* out);

// AoS point-to-samples distances: out[i] = Distance(tr[i].p, p).
void PointToManyDist(const geometry::Point& p, const Trajectory& tr,
                     double* out);

}  // namespace scalar
}  // namespace kernels
}  // namespace sidq
