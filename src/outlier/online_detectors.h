#pragma once

#include <cstddef>
#include <vector>

namespace sidq {
namespace outlier {

// Online robust-z outlier test over a trailing window of inliers: a value
// is an outlier when |value - median| / (1.4826 * MAD) of the trailing
// window exceeds `z_threshold`. Flagged values do NOT enter the window, so
// a burst of faults cannot drag the baseline towards itself -- the
// streaming analogue of the robust (median/MAD) detectors in
// stid_outliers. Deterministic: state is a pure function of the observed
// value sequence.
//
// A non-finite value (NaN, +-inf) is always an outlier and never enters
// the baseline. An empty baseline flags nothing, so with `min_samples`
// 0 the first value is an inlier; `window` 0 keeps no baseline at all,
// so every finite value is an inlier.
//
// Beside the ring, the detector keeps the same values sorted, so the
// median and MAD are read off in O(window) with no per-call allocation:
// an update is one erase and one insert into a vector of at most
// `window` doubles, and once the window is full Observe never allocates.
class RollingRobustZ {
 public:
  struct Options {
    size_t window = 32;       // trailing inliers kept as the baseline
    size_t min_samples = 8;   // below this, everything is an inlier
    double z_threshold = 3.5;
    // MAD floor, as a fraction of |median|, so a near-constant baseline
    // does not make epsilon deviations look infinitely significant.
    double min_mad_fraction = 1e-3;
  };

  explicit RollingRobustZ(Options options) : options_(options) {}
  RollingRobustZ() : RollingRobustZ(Options{}) {}

  // Tests `value` against the current baseline, then absorbs it into the
  // baseline iff it was an inlier. Returns true when `value` is an outlier.
  bool Observe(double value);

  [[nodiscard]] size_t num_samples() const { return buffer_.size(); }

 private:
  Options options_;
  std::vector<double> buffer_;  // ring of trailing inliers
  std::vector<double> sorted_;  // buffer_'s values, ascending
  size_t next_ = 0;             // ring write cursor
};

// Page-Hinkley test for drift (mean shift) in a value stream: maintains the
// cumulative deviation of observations from their running mean and signals
// when it escapes a `lambda`-wide band -- the classic sequential
// changepoint detector for sensor calibration drift. After signalling, the
// statistic resets and the detector starts a fresh epoch.
class PageHinkley {
 public:
  struct Options {
    double delta = 0.5;    // magnitude tolerance: drifts smaller than this
                           // per observation are absorbed as noise
    double lambda = 12.0;  // detection threshold on the cumulative statistic
    size_t min_samples = 10;
  };

  explicit PageHinkley(Options options) : options_(options) {}
  PageHinkley() : PageHinkley(Options{}) {}

  // Feeds one observation; returns true when drift is detected (and the
  // detector resets for the next epoch).
  bool Observe(double value);

 private:
  Options options_;
  size_t n_ = 0;
  double mean_ = 0.0;
  double cum_up_ = 0.0;    // detects upward mean shift
  double min_up_ = 0.0;
  double cum_down_ = 0.0;  // detects downward mean shift
  double max_down_ = 0.0;
};

}  // namespace outlier
}  // namespace sidq
