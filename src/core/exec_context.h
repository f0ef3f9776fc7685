#pragma once

#include <atomic>
#include <cstdint>

#include "core/clock.h"
#include "core/status.h"

namespace sidq {

// Execution context threaded through FleetRunner, TrajectoryPipeline, and
// the expensive inner loops (HMM Viterbi layers, DTW and Frechet
// anti-diagonals, particle filter steps). Bundles a deadline against an
// injectable Clock with a shared cancellation flag, so long-running kernels
// can stop cooperatively instead of running to completion after the answer
// stopped mattering.
//
// The context itself is immutable and safe to share across threads; the
// cancellation flag is an external atomic (typically owned by the fleet
// runner) observed with acquire loads. ExecContext therefore holds no
// capability of its own -- it is lock-free by construction, and appears in
// the capability map (DESIGN.md "Concurrency & locking discipline") as an
// atomics-only structure: nothing here may ever take a sidq::Mutex, or a
// cooperative Check() inside a locked region could invert the lock order.
class ExecContext {
 public:
  // No clock, no deadline, no cancellation: Check() always returns OK and
  // Stall() is a no-op.
  ExecContext() = default;

  // Clock + cancellation, no deadline. `clock` (nullable) must outlive the
  // context; it serves retry backoff and injected stalls.
  explicit ExecContext(const Clock* clock,
                       const std::atomic<bool>* cancel = nullptr)
      : clock_(clock), cancel_(cancel) {}

  // Context whose deadline is `budget_ms` from the clock's current reading;
  // budget_ms <= 0 (or a null clock) means no deadline, clock retained.
  static ExecContext After(const Clock* clock, int64_t budget_ms,
                           const std::atomic<bool>* cancel = nullptr) {
    ExecContext ctx(clock, cancel);
    if (clock != nullptr && budget_ms > 0) {
      ctx.has_deadline_ = true;
      ctx.deadline_ms_ = clock->NowMs() + budget_ms;
    }
    return ctx;
  }

  // The cooperative check: kCancelled when the shared flag is set,
  // kDeadlineExceeded when the clock passed the deadline, OK otherwise.
  // Cheap enough to call once per DP layer or anti-diagonal / filter step.
  [[nodiscard]] Status Check() const {
    if (cancel_ != nullptr && cancel_->load(std::memory_order_acquire)) {
      return Status::Cancelled("execution cancelled");
    }
    if (has_deadline_ && clock_->NowMs() > deadline_ms_) {
      return Status::DeadlineExceeded("deadline exceeded");
    }
    return Status::OK();
  }

  [[nodiscard]] bool has_deadline() const { return has_deadline_; }
  // Milliseconds left before the deadline (may be negative); deadline-free
  // contexts report INT64_MAX.
  [[nodiscard]] int64_t RemainingMs() const {
    if (!has_deadline_) return INT64_MAX;
    return deadline_ms_ - clock_->NowMs();
  }

  // Sleeps on the context's clock (instant under VirtualClock). Used by
  // retry backoff and by injected chaos stalls; a no-op without a clock, so
  // clockless retries are immediate by design.
  void Stall(int64_t ms) const {
    if (clock_ != nullptr && ms > 0) clock_->SleepMs(ms);
  }

  [[nodiscard]] const Clock* clock() const { return clock_; }

 private:
  const Clock* clock_ = nullptr;
  bool has_deadline_ = false;
  int64_t deadline_ms_ = 0;
  const std::atomic<bool>* cancel_ = nullptr;
};

}  // namespace sidq
