// R8 fixture, strict scope: wall-clock sources in the streaming layer. A
// watermark fed by the machine clock makes lateness depend on arrival wall
// time, so the same event log replays differently every run.

#include <chrono>

namespace bad {

long WallClockWatermark() {
  return std::chrono::steady_clock::now().time_since_epoch().count();  // expect-lint: R8
}

long GlobalSteadyClockWatermark(long lateness_ms) {
  const long now = SteadyClock::Global()->NowMs();  // expect-lint: R8
  return now - lateness_ms;
}

// Clean pattern: the watermark is a pure function of admitted EVENT time.
long EventTimeWatermark(long max_admitted_event_t, long lateness_ms) {
  return max_admitted_event_t - lateness_ms;
}

}  // namespace bad
