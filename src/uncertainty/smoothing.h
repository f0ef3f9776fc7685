#pragma once

#include <string>

#include "core/pipeline.h"
#include "core/statusor.h"
#include "core/trajectory.h"

namespace sidq {
namespace uncertainty {

// Smoothing-based trajectory uncertainty elimination (Section 2.2.2):
// exploits temporal autocorrelation of consecutive points to damp
// measurement volatility.

// Centred moving average over a window of `half_window` points each side.
[[nodiscard]] StatusOr<Trajectory> MovingAverageSmooth(const Trajectory& input,
                                         size_t half_window);

// First-order exponential smoothing with factor alpha in (0, 1]; alpha = 1
// reproduces the input.
[[nodiscard]] StatusOr<Trajectory> ExponentialSmooth(const Trajectory& input, double alpha);

// Pipeline stage adapters.
class MovingAverageStage : public TrajectoryStage {
 public:
  explicit MovingAverageStage(size_t half_window)
      : half_window_(half_window) {}
  std::string name() const override { return "moving_average_smooth"; }
  [[nodiscard]] StatusOr<Trajectory> Apply(const Trajectory& input,
                                           const StageContext&) const override {
    return MovingAverageSmooth(input, half_window_);
  }

 private:
  size_t half_window_;
};

class ExponentialSmoothStage : public TrajectoryStage {
 public:
  explicit ExponentialSmoothStage(double alpha) : alpha_(alpha) {}
  std::string name() const override { return "exponential_smooth"; }
  [[nodiscard]] StatusOr<Trajectory> Apply(const Trajectory& input,
                                           const StageContext&) const override {
    return ExponentialSmooth(input, alpha_);
  }

 private:
  double alpha_;
};

}  // namespace uncertainty
}  // namespace sidq
