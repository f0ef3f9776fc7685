#pragma once

#include <cstdint>
#include <string>

#include "core/status.h"

namespace sidq {

// Hook interface the pipeline machinery reports execution events into.
// Core stays dependency-free: this header defines only the narrow contract;
// the implementation (metrics counters, trace spans) lives in src/obs/.
//
// Call pattern per stage, strictly nested:
//
//   OnStageBegin(stage)
//     OnAttemptBegin(rung_or_stage, 0) ... OnAttemptEnd(..., 0, status)
//     [OnRetry(rung_or_stage, 0, backoff_ms)]      transient failure
//     OnAttemptBegin(rung_or_stage, 1) ...
//     [OnDegrade(ladder, rung, rung_name, cause)]  ladder fell a rung
//   OnStageEnd(stage, status)
//
// For a LadderStage the attempt-level names are the *rung* names while the
// stage-level name is the ladder's. Observers are per-run objects owned by
// the caller (one per trajectory in fleet execution) and are only touched
// from the thread running that trajectory, so implementations need no
// internal locking for per-run state.
//
// Timing contract: observers that measure durations must read time from an
// injected Clock (core/clock.h), never from wall clocks directly -- under
// VirtualClock this makes every observation a pure function of the inputs,
// which is what lets tests golden-file whole traces (DESIGN.md
// "Observability").
class RunObserver {
 public:
  virtual ~RunObserver() = default;

  // Brackets all attempts (and ladder rungs) of one pipeline stage.
  virtual void OnStageBegin(const std::string& stage) = 0;
  virtual void OnStageEnd(const std::string& stage, const Status& status) = 0;

  // Brackets one TrajectoryStage::Apply call; `attempt` is 0-based per stage/rung.
  virtual void OnAttemptBegin(const std::string& stage, int attempt) = 0;
  virtual void OnAttemptEnd(const std::string& stage, int attempt,
                            const Status& status) = 0;

  // A transient failure of `stage` is about to be retried after backing off
  // `backoff_ms` on the run's clock (0 when retries are clockless). Fires
  // once per retry, i.e. exactly as often as RunTrace::retries increments.
  virtual void OnRetry(const std::string& stage, int attempt,
                       int64_t backoff_ms) = 0;

  // `ladder` fell to 0-based rung `rung` (`rung_name`) because the rungs
  // above it failed, the topmost with `cause`.
  virtual void OnDegrade(const std::string& ladder, int rung,
                         const std::string& rung_name, const Status& cause) = 0;
};

}  // namespace sidq
