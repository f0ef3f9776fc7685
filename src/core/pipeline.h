#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/exec_context.h"
#include "core/observer.h"
#include "core/quality.h"
#include "core/random.h"
#include "core/retry.h"
#include "core/status.h"
#include "core/statusor.h"
#include "core/trajectory.h"

namespace sidq {

// One recorded fall down a degradation ladder: `stage` ran rung `rung`
// (`rung_name`) because the rungs above it failed, the topmost with `cause`.
struct DegradeEvent {
  std::string stage;
  int rung = 0;
  std::string rung_name;
  Status cause;
};

// Per-trajectory resilience trace filled during a pipeline run: how many
// retries were spent and which stages fell down their ladder. The fleet
// runner folds this into per-object quality annotations.
struct RunTrace {
  int retries = 0;
  std::vector<DegradeEvent> degraded;

  [[nodiscard]] bool degraded_mode() const { return !degraded.empty(); }
};

// Execution environment for one pipeline run over one trajectory. All
// pointers are optional and borrowed:
//   rng        stage randomness substream (nullptr = unseeded run)
//   retry_rng  backoff-jitter substream, separate from `rng` so a retry
//              never perturbs what the stages compute
//   exec       deadline + cooperative cancellation, shared across workers
//   retry      per-stage retry policy for transient failures
//   trace      receives retries/degradations (owned by the caller)
//   obs        observability hook (stage/attempt/retry/degrade events);
//              see core/observer.h for the nesting contract
struct StageContext {
  Rng* rng = nullptr;
  Rng* retry_rng = nullptr;
  const ExecContext* exec = nullptr;
  const RetryPolicy* retry = nullptr;
  RunTrace* trace = nullptr;
  RunObserver* obs = nullptr;
};

// A single trajectory-cleaning step. Implementations live in the refine /
// uncertainty / outlier / fault / reduce modules; the pipeline composes them.
class TrajectoryStage {
 public:
  virtual ~TrajectoryStage() = default;
  virtual std::string name() const = 0;

  // Cleans one trajectory. Batch/fleet execution sets ctx.rng to a
  // substream derived from (base_seed, trajectory id), so randomized stages
  // stay bit-identical no matter how the batch is sharded across threads
  // (the determinism contract in DESIGN.md). Stages that can honour
  // deadlines/cancellation read ctx.exec; deterministic stages ignore ctx.
  virtual StatusOr<Trajectory> Apply(const Trajectory& input,
                                     const StageContext& ctx) const = 0;
};

// Runs one stage attempt-by-attempt under the context's retry policy:
// transient failures (IsTransient) back off on the context clock -- jitter
// drawn from ctx.retry_rng -- and re-run, up to retry->max_retries extra
// attempts; retrying stops early once the context is cancelled or past its
// deadline. Retries are counted into ctx.trace. Without a policy this is a
// single plain Apply call.
StatusOr<Trajectory> RunStageWithRetry(const TrajectoryStage& stage,
                                       const Trajectory& input,
                                       const StageContext& ctx);

// Callable forms a stage can be built from. The builders below wrap the
// plain and seeded forms into the context form of LambdaStage; a seeded
// callable run without ctx.rng draws from a fixed private stream, so
// single-trajectory runs stay reproducible too.
using PlainStageFn = std::function<StatusOr<Trajectory>(const Trajectory&)>;
using SeededStageFn =
    std::function<StatusOr<Trajectory>(const Trajectory&, Rng&)>;

// Adapts a context-aware callable into a TrajectoryStage.
class LambdaStage : public TrajectoryStage {
 public:
  using Fn = std::function<StatusOr<Trajectory>(const Trajectory&,
                                                const StageContext&)>;
  LambdaStage(std::string name, Fn fn)
      : name_(std::move(name)), fn_(std::move(fn)) {}

  std::string name() const override { return name_; }
  [[nodiscard]] StatusOr<Trajectory> Apply(const Trajectory& input,
                                           const StageContext& ctx)
      const override {
    return fn_(input, ctx);
  }

 private:
  std::string name_;
  Fn fn_;
};

// Graceful-degradation ladder: an ordered list of rungs implementing the
// same logical stage at decreasing fidelity and cost (e.g. HMM map matcher
// -> geometric nearest-road snap; particle filter -> Kalman -> passthrough).
// Each rung runs with per-rung retries (RunStageWithRetry); when a rung
// fails terminally with anything but kCancelled -- including
// kDeadlineExceeded from a cooperative kernel -- the ladder falls to the
// next rung and records a DegradeEvent in the trace. Rungs below the top
// should be cheap and deadline-free so they can still rescue an object
// whose budget is already spent. The ladder fails only when every rung
// failed, with the last rung's error.
class LadderStage : public TrajectoryStage {
 public:
  explicit LadderStage(std::string name) : name_(std::move(name)) {}

  LadderStage& AddRung(std::unique_ptr<TrajectoryStage> rung) {
    rungs_.push_back(std::move(rung));
    return *this;
  }
  LadderStage& AddRung(std::string rung_name, PlainStageFn fn);
  LadderStage& AddRungCtx(std::string rung_name, LambdaStage::Fn fn) {
    return AddRung(
        std::make_unique<LambdaStage>(std::move(rung_name), std::move(fn)));
  }

  size_t num_rungs() const { return rungs_.size(); }
  std::string name() const override { return name_; }

  [[nodiscard]] StatusOr<Trajectory> Apply(const Trajectory& input,
                                           const StageContext& ctx)
      const override;

 private:
  std::string name_;
  std::vector<std::unique_ptr<TrajectoryStage>> rungs_;
};

// Quality report captured after one pipeline stage.
struct StageReport {
  std::string stage_name;
  DqReport report;
};

// Composes cleaning stages into a quality-management pipeline and, when a
// profiler is attached, records the DQ report after every stage -- the
// "means to resolve DQ issues" workflow of Section 2.1.
class TrajectoryPipeline {
 public:
  TrajectoryPipeline() = default;

  // Appends a stage; returns *this for chaining.
  TrajectoryPipeline& Add(std::unique_ptr<TrajectoryStage> stage) {
    stages_.push_back(std::move(stage));
    return *this;
  }
  TrajectoryPipeline& Add(std::string name, PlainStageFn fn);
  TrajectoryPipeline& AddSeeded(std::string name, SeededStageFn fn);
  TrajectoryPipeline& AddCtx(std::string name, LambdaStage::Fn fn) {
    return Add(std::make_unique<LambdaStage>(std::move(name), std::move(fn)));
  }

  size_t num_stages() const { return stages_.size(); }
  const TrajectoryStage& stage(size_t i) const { return *stages_[i]; }

  // Runs all stages in order. Fails fast on the first stage error. Stages
  // draw from ctx.rng (fleet execution derives one substream per
  // trajectory), observe ctx.exec (deadline / cancellation), retry
  // transient failures under ctx.retry, and record retries/degradations
  // into ctx.trace; every field is optional.
  [[nodiscard]] StatusOr<Trajectory> Run(const Trajectory& input,
                                         const StageContext& ctx = {}) const;

  // Runs all stages, profiling the data before the first stage and after
  // every stage against `truth` (may be nullptr). `reports` receives
  // num_stages()+1 entries, the first named "input". `ctx` is used exactly
  // as in Run().
  [[nodiscard]] StatusOr<Trajectory> RunProfiled(
      const Trajectory& input, const Trajectory* truth,
      const TrajectoryProfiler& profiler, std::vector<StageReport>* reports,
      const StageContext& ctx = {}) const;

  // Serial reference implementation of batch cleaning: trajectory i is
  // cleaned with the substream DeriveSeed(base_seed, inputs[i].object_id()).
  // exec::FleetRunner is required to produce bit-identical results to this
  // loop for every worker count and shard size. Fails fast on the first
  // trajectory whose pipeline run fails.
  [[nodiscard]] StatusOr<std::vector<Trajectory>> RunBatch(
      const std::vector<Trajectory>& inputs, uint64_t base_seed) const;

 private:
  StatusOr<Trajectory> RunStages(const Trajectory& input,
                                 const StageContext& ctx,
                                 const Trajectory* truth,
                                 const TrajectoryProfiler* profiler,
                                 std::vector<StageReport>* reports) const;

  std::vector<std::unique_ptr<TrajectoryStage>> stages_;
};

}  // namespace sidq
