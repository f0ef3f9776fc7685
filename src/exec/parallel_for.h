#pragma once

#include <cstddef>
#include <functional>

namespace sidq {
namespace exec {

// Fork-join: runs fn(i) for every i in [0, n) and returns once every call
// has finished. With threads <= 1 the calls run inline on the caller in
// index order. Otherwise min(threads, n) std::threads claim indices from
// one atomic counter (so lower indices start first) and the caller joins
// them. There is no queue, lock or future: fn writes its result into a
// per-index slot, and the join publishes those writes to the caller.
//
// This is the only place in the tree that spawns std::thread (sidq-lint
// rule R6); everything else parallelizes through it or exec::FleetRunner.
void ParallelFor(size_t n, size_t threads,
                 const std::function<void(size_t)>& fn);

}  // namespace exec
}  // namespace sidq
