// R8 fixture, strict scope: src/obs/ takes every timestamp from the
// injected Clock, so any std::chrono clock or SteadyClock is a finding and
// `allow-wallclock` does not waive it.

#include <chrono>

namespace bad {

long Now() {
  return std::chrono::steady_clock::now().time_since_epoch().count();  // expect-lint: R8
}

long GlobalSteadyClockNow() {
  return SteadyClock::Global()->NowMs();  // expect-lint: R8
}

long WaivedNow() {
  // sidq: allow-wallclock(no waiver applies in src/obs/)  // expect-lint: S4
  return std::chrono::system_clock::now().time_since_epoch().count();  // expect-lint: R8
}

}  // namespace bad
