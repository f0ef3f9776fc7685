#include "core/pipeline.h"

namespace sidq {

StatusOr<Trajectory> RunStageWithRetry(const TrajectoryStage& stage,
                                       const Trajectory& input,
                                       const StageContext& ctx) {
  for (int attempt = 0;; ++attempt) {
    if (ctx.obs != nullptr) ctx.obs->OnAttemptBegin(stage.name(), attempt);
    auto result = stage.Apply(input, ctx);
    if (ctx.obs != nullptr) {
      ctx.obs->OnAttemptEnd(stage.name(), attempt,
                            result.ok() ? Status::OK() : result.status());
    }
    if (result.ok()) return result;
    const Status& st = result.status();
    if (st.code() == StatusCode::kCancelled) return result;
    const bool can_retry =
        ctx.retry != nullptr && ctx.retry->ShouldRetry(st, attempt) &&
        (ctx.exec == nullptr || ctx.exec->Check().ok());
    if (!can_retry) return result;
    if (ctx.trace != nullptr) ++ctx.trace->retries;
    int64_t backoff = 0;
    if (ctx.retry_rng != nullptr) {
      backoff = ctx.retry->BackoffMs(attempt, *ctx.retry_rng);
    }
    if (ctx.obs != nullptr) ctx.obs->OnRetry(stage.name(), attempt, backoff);
    if (ctx.retry_rng != nullptr && ctx.exec != nullptr) {
      ctx.exec->Stall(backoff);
    }
  }
}

namespace {

// Stream a seeded stage draws from when the run carries no ctx.rng.
constexpr uint64_t kFallbackSeed = 0x51D95EEDull;

LambdaStage::Fn FromPlain(PlainStageFn fn) {
  return [fn = std::move(fn)](const Trajectory& input, const StageContext&) {
    return fn(input);
  };
}

LambdaStage::Fn FromSeeded(SeededStageFn fn) {
  return [fn = std::move(fn)](const Trajectory& input,
                              const StageContext& ctx) {
    if (ctx.rng != nullptr) return fn(input, *ctx.rng);
    Rng fallback(kFallbackSeed);
    return fn(input, fallback);
  };
}

// Runs one pipeline stage, prefixing a failure with the stage's name.
StatusOr<Trajectory> ApplyStage(const TrajectoryStage& stage,
                                const Trajectory& input,
                                const StageContext& ctx) {
  auto result = RunStageWithRetry(stage, input, ctx);
  if (!result.ok()) {
    return Status(result.status().code(),
                  "stage '" + stage.name() +
                      "' failed: " + result.status().message());
  }
  return result;
}

}  // namespace

LadderStage& LadderStage::AddRung(std::string rung_name, PlainStageFn fn) {
  return AddRungCtx(std::move(rung_name), FromPlain(std::move(fn)));
}

TrajectoryPipeline& TrajectoryPipeline::Add(std::string name,
                                            PlainStageFn fn) {
  return AddCtx(std::move(name), FromPlain(std::move(fn)));
}

TrajectoryPipeline& TrajectoryPipeline::AddSeeded(std::string name,
                                                  SeededStageFn fn) {
  return AddCtx(std::move(name), FromSeeded(std::move(fn)));
}

StatusOr<Trajectory> LadderStage::Apply(const Trajectory& input,
                                        const StageContext& ctx) const {
  if (rungs_.empty()) {
    return Status::FailedPrecondition("ladder stage '" + name_ +
                                      "' has no rungs");
  }
  Status last = Status::OK();
  for (size_t r = 0; r < rungs_.size(); ++r) {
    auto result = RunStageWithRetry(*rungs_[r], input, ctx);
    if (result.ok()) {
      if (r > 0) {
        if (ctx.trace != nullptr) {
          ctx.trace->degraded.push_back(DegradeEvent{
              name_, static_cast<int>(r), rungs_[r]->name(), last});
        }
        if (ctx.obs != nullptr) {
          ctx.obs->OnDegrade(name_, static_cast<int>(r), rungs_[r]->name(),
                             last);
        }
      }
      return result;
    }
    if (result.status().code() == StatusCode::kCancelled) return result;
    last = result.status();
  }
  return Status(last.code(), "ladder '" + name_ + "' exhausted all " +
                                 std::to_string(rungs_.size()) +
                                 " rungs, last: " + last.message());
}

StatusOr<Trajectory> TrajectoryPipeline::Run(const Trajectory& input,
                                             const StageContext& ctx) const {
  return RunStages(input, ctx, nullptr, nullptr, nullptr);
}

StatusOr<Trajectory> TrajectoryPipeline::RunProfiled(
    const Trajectory& input, const Trajectory* truth,
    const TrajectoryProfiler& profiler,
    std::vector<StageReport>* reports, const StageContext& ctx) const {
  return RunStages(input, ctx, truth, &profiler, reports);
}

StatusOr<Trajectory> TrajectoryPipeline::RunStages(
    const Trajectory& input, const StageContext& ctx,
    const Trajectory* truth, const TrajectoryProfiler* profiler,
    std::vector<StageReport>* reports) const {
  auto profile_one = [&](const std::string& name, const Trajectory& tr) {
    if (profiler == nullptr || reports == nullptr) return;
    std::vector<Trajectory> obs{tr};
    std::vector<Trajectory> tru;
    if (truth != nullptr) tru.push_back(*truth);
    StageReport sr;
    sr.stage_name = name;
    sr.report = profiler->Profile(obs, truth != nullptr ? &tru : nullptr);
    reports->push_back(std::move(sr));
  };

  profile_one("input", input);
  Trajectory current = input;
  for (const auto& stage : stages_) {
    // Between stages only cancellation stops the run outright; an expired
    // deadline is left for the stages' cooperative checks, so a ladder
    // whose fallback rung is cheap can still rescue the object.
    if (ctx.exec != nullptr) {
      Status st = ctx.exec->Check();
      if (st.code() == StatusCode::kCancelled) return st;
    }
    if (ctx.obs != nullptr) ctx.obs->OnStageBegin(stage->name());
    auto result = ApplyStage(*stage, current, ctx);
    if (ctx.obs != nullptr) {
      ctx.obs->OnStageEnd(stage->name(),
                          result.ok() ? Status::OK() : result.status());
    }
    if (!result.ok()) return result.status();
    current = std::move(result).value();
    profile_one(stage->name(), current);
  }
  return current;
}

StatusOr<std::vector<Trajectory>> TrajectoryPipeline::RunBatch(
    const std::vector<Trajectory>& inputs, uint64_t base_seed) const {
  std::vector<Trajectory> out;
  out.reserve(inputs.size());
  for (const Trajectory& input : inputs) {
    Rng rng = Rng::ForKey(base_seed, input.object_id());
    auto result = Run(input, {.rng = &rng});
    if (!result.ok()) return result.status();
    out.push_back(std::move(result).value());
  }
  return out;
}

}  // namespace sidq
