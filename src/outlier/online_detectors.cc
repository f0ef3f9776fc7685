#include "outlier/online_detectors.h"

#include <algorithm>
#include <cmath>

namespace sidq {
namespace outlier {

bool RollingRobustZ::Observe(double value) {
  if (!std::isfinite(value)) return true;
  if (options_.window == 0) return false;

  bool outlier = false;
  const size_t n = sorted_.size();
  if (n > 0 && n >= options_.min_samples) {
    const double* s = sorted_.data();
    const size_t mid = n / 2;
    double median = s[mid];
    if (n % 2 == 0) median = (median + s[mid - 1]) / 2.0;
    // The deviations |s[i] - median| ascend from lower_bound(median)
    // outward on both sides: two sorted runs, merged up to rank mid.
    size_t lo =
        static_cast<size_t>(std::lower_bound(s, s + n, median) - s);
    size_t hi = lo;
    double below_mad = 0.0;  // rank mid - 1, the even-n partner
    double mad = 0.0;
    for (size_t rank = 0; rank <= mid; ++rank) {
      below_mad = mad;
      const bool take_low =
          hi == n || (lo > 0 && std::abs(s[lo - 1] - median) <
                                    std::abs(s[hi] - median));
      mad = take_low ? std::abs(s[--lo] - median) : std::abs(s[hi++] - median);
    }
    if (n % 2 == 0) mad = (mad + below_mad) / 2.0;
    const double scale = std::max(1.4826 * mad,
                                  options_.min_mad_fraction *
                                      std::max(1.0, std::abs(median)));
    outlier = std::abs(value - median) > options_.z_threshold * scale;
  }
  if (!outlier) {
    if (buffer_.size() < options_.window) {
      buffer_.push_back(value);
    } else {
      const double evicted = buffer_[next_];
      sorted_.erase(
          std::lower_bound(sorted_.begin(), sorted_.end(), evicted));
      buffer_[next_] = value;
      next_ = (next_ + 1) % options_.window;
    }
    sorted_.insert(std::upper_bound(sorted_.begin(), sorted_.end(), value),
                   value);
  }
  return outlier;
}

bool PageHinkley::Observe(double value) {
  ++n_;
  mean_ += (value - mean_) / static_cast<double>(n_);
  cum_up_ += value - mean_ - options_.delta;
  min_up_ = std::min(min_up_, cum_up_);
  cum_down_ += value - mean_ + options_.delta;
  max_down_ = std::max(max_down_, cum_down_);
  if (n_ < options_.min_samples) return false;
  const bool drift = (cum_up_ - min_up_ > options_.lambda) ||
                     (max_down_ - cum_down_ > options_.lambda);
  if (drift) {
    n_ = 0;
    mean_ = 0.0;
    cum_up_ = min_up_ = 0.0;
    cum_down_ = max_down_ = 0.0;
  }
  return drift;
}

}  // namespace outlier
}  // namespace sidq
