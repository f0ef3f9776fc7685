#pragma once

#include <string>
#include <vector>

#include "core/pipeline.h"
#include "core/statusor.h"
#include "core/trajectory.h"

namespace sidq {
namespace outlier {

// Trajectory-point outlier detection (Section 2.2.3). Each detector
// returns one flag per input point; RemoveFlagged / RepairFlagged turn
// flags into cleaned trajectories.

// Constraint-based: a point is an outlier when the speeds of both adjacent
// segments exceed a mobility bound -- the object would have had to jump
// away and back (Yan et al. / Zheng-style mobility constraints).
class SpeedConstraintDetector {
 public:
  struct Options {
    double max_speed_mps = 45.0;
  };

  explicit SpeedConstraintDetector(Options options) : options_(options) {}
  SpeedConstraintDetector() : SpeedConstraintDetector(Options{}) {}

  [[nodiscard]] StatusOr<std::vector<bool>> Detect(const Trajectory& input) const;

 private:
  Options options_;
};

// Statistics-based: robust z-score of each point's deviation from the
// median of a sliding window; outliers exceed `z_threshold` in units of
// 1.4826 * MAD (Patil et al.-style statistical profiling).
class StatisticalDetector {
 public:
  struct Options {
    size_t half_window = 5;
    double z_threshold = 3.5;
    // Floor for the robust scale estimate (metres); keeps near-noiseless
    // data from flagging numeric dust as outliers.
    double min_scale_m = 1.0;
  };

  explicit StatisticalDetector(Options options) : options_(options) {}
  StatisticalDetector() : StatisticalDetector(Options{}) {}

  [[nodiscard]] StatusOr<std::vector<bool>> Detect(const Trajectory& input) const;

 private:
  Options options_;
};

// Prediction-based: a constant-velocity predictor forecasts each point from
// its predecessors; points whose innovation exceeds `threshold_factor`
// times the running robust innovation scale are outliers (Zhang et al.,
// SIGMOD 2016 family). Repair() replaces outliers with the prediction.
class PredictiveDetector {
 public:
  struct Options {
    double threshold_factor = 5.0;
    // Initial innovation scale (m); adapts via exponential averaging.
    double initial_scale_m = 10.0;
    double scale_alpha = 0.05;
  };

  explicit PredictiveDetector(Options options) : options_(options) {}
  PredictiveDetector() : PredictiveDetector(Options{}) {}

  [[nodiscard]] StatusOr<std::vector<bool>> Detect(const Trajectory& input) const;
  // Detect + replace each outlier with its prediction (sequential repair:
  // later predictions use repaired values).
  [[nodiscard]] StatusOr<Trajectory> Repair(const Trajectory& input) const;

 private:
  [[nodiscard]] Status Run(const Trajectory& input, std::vector<bool>* flags,
             Trajectory* repaired) const;

  Options options_;
};

// Drops flagged points. Fails when flag count mismatches.
[[nodiscard]] StatusOr<Trajectory> RemoveFlagged(const Trajectory& input,
                                   const std::vector<bool>& flags);
// Replaces flagged points by linear interpolation between the nearest
// unflagged neighbours (endpoints snap to nearest unflagged point).
[[nodiscard]] StatusOr<Trajectory> RepairFlagged(const Trajectory& input,
                                   const std::vector<bool>& flags);

// Precision/recall/F1 of predicted flags against truth labels.
struct DetectionQuality {
  double precision = 0.0;
  double recall = 0.0;
  double f1 = 0.0;
};
DetectionQuality EvaluateDetection(const std::vector<bool>& predicted,
                                   const std::vector<bool>& truth);

// Pipeline stage: detect with a SpeedConstraintDetector and repair.
class SpeedOutlierRepairStage : public TrajectoryStage {
 public:
  explicit SpeedOutlierRepairStage(SpeedConstraintDetector::Options options)
      : detector_(options) {}
  SpeedOutlierRepairStage() : detector_() {}
  std::string name() const override { return "speed_outlier_repair"; }
  [[nodiscard]] StatusOr<Trajectory> Apply(const Trajectory& input,
                                           const StageContext&) const override;

 private:
  SpeedConstraintDetector detector_;
};

}  // namespace outlier
}  // namespace sidq
