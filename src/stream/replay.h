#pragma once

#include "core/exec_context.h"
#include "core/statusor.h"
#include "obs/observer.h"
#include "stream/engine.h"
#include "stream/event_log.h"

namespace sidq {
namespace stream {

struct ReplayOptions {
  // 1 = serial replay; > 1 shards *sensors* across that many engines, one
  // per exec::ParallelFor index. All engine state is per-sensor, so a
  // sensor shard replays exactly the serial decision sequence and the
  // merged output is bit-identical to the serial replay for any worker
  // count.
  int num_threads = 1;
  obs::ObsSinks sinks;
  const Clock* clock = nullptr;
  const ExecContext* ctx = nullptr;
};

// Replays `log` through the stream engine and returns the canonical
// output. Fails only on cooperative cancellation / deadline; a sharded
// replay reports the failure of its lowest-index shard. Data problems land
// in the output's quarantine ledger instead.
[[nodiscard]] StatusOr<StreamOutput> Replay(const EventLog& log,
                                            const StreamConfig& config,
                                            const ReplayOptions& options = {});

// The batch pipeline the stream engine must reproduce bit-for-bit: per
// sensor, one admission pass over all its events (identical
// AdmissionFilter, identical arrival order), then every window the filter
// holds released in ascending event-time order through the same
// ProcessWindow. No watermark-driven incremental closes, no chaos sites --
// if Replay() == BatchReference() on a log, the engine's incremental
// machinery added latency structure without changing a single bit of
// output. That equality is the differential contract the stream tests pin
// at 1/2/8 workers.
[[nodiscard]] StreamOutput BatchReference(const EventLog& log,
                                          const StreamConfig& config);

}  // namespace stream
}  // namespace sidq
