#include "kernels/scalar_ref.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "geometry/point.h"

namespace sidq {
namespace kernels {
namespace scalar {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

double DtwDistance(const Trajectory& a, const Trajectory& b, int band) {
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0 || m == 0) return n == m ? 0.0 : kInf;
  std::vector<double> prev(m + 1, kInf), cur(m + 1, kInf);
  prev[0] = 0.0;
  for (size_t i = 1; i <= n; ++i) {
    std::fill(cur.begin(), cur.end(), kInf);
    size_t lo = 1, hi = m;
    if (band > 0) {
      const double center = static_cast<double>(i) * m / n;
      lo = static_cast<size_t>(std::max(1.0, center - band));
      hi = static_cast<size_t>(
          std::min(static_cast<double>(m), center + band));
    }
    for (size_t j = lo; j <= hi; ++j) {
      const double d = geometry::Distance(a[i - 1].p, b[j - 1].p);
      const double best = std::min({prev[j], prev[j - 1], cur[j - 1]});
      if (best != kInf) cur[j] = d + best;
    }
    std::swap(prev, cur);
  }
  return prev[m];
}

double FrechetDistance(const Trajectory& a, const Trajectory& b) {
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0 || m == 0) return n == m ? 0.0 : kInf;
  std::vector<double> prev(m), cur(m);
  for (size_t j = 0; j < m; ++j) {
    const double d = geometry::Distance(a[0].p, b[j].p);
    prev[j] = j == 0 ? d : std::max(prev[j - 1], d);
  }
  for (size_t i = 1; i < n; ++i) {
    for (size_t j = 0; j < m; ++j) {
      const double d = geometry::Distance(a[i].p, b[j].p);
      double reach;
      if (j == 0) {
        reach = prev[0];
      } else {
        reach = std::min({prev[j], prev[j - 1], cur[j - 1]});
      }
      cur[j] = std::max(reach, d);
    }
    std::swap(prev, cur);
  }
  return prev[m - 1];
}

double EdrDistance(const Trajectory& a, const Trajectory& b,
                   double epsilon_m) {
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0 && m == 0) return 0.0;
  if (n == 0 || m == 0) return 1.0;
  std::vector<double> prev(m + 1), cur(m + 1);
  for (size_t j = 0; j <= m; ++j) prev[j] = static_cast<double>(j);
  for (size_t i = 1; i <= n; ++i) {
    cur[0] = static_cast<double>(i);
    for (size_t j = 1; j <= m; ++j) {
      const bool match =
          geometry::Distance(a[i - 1].p, b[j - 1].p) <= epsilon_m;
      const double sub = prev[j - 1] + (match ? 0.0 : 1.0);
      cur[j] = std::min({sub, prev[j] + 1.0, cur[j - 1] + 1.0});
    }
    std::swap(prev, cur);
  }
  return prev[m] / static_cast<double>(std::max(n, m));
}

double LcssSimilarity(const Trajectory& a, const Trajectory& b,
                      double epsilon_m, Timestamp delta_ms) {
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0 || m == 0) return 0.0;
  std::vector<double> prev(m + 1, 0.0), cur(m + 1, 0.0);
  for (size_t i = 1; i <= n; ++i) {
    for (size_t j = 1; j <= m; ++j) {
      const bool match =
          geometry::Distance(a[i - 1].p, b[j - 1].p) <= epsilon_m &&
          std::abs(a[i - 1].t - b[j - 1].t) <= delta_ms;
      if (match) {
        cur[j] = prev[j - 1] + 1.0;
      } else {
        cur[j] = std::max(prev[j], cur[j - 1]);
      }
    }
    std::swap(prev, cur);
  }
  return prev[m] / static_cast<double>(std::min(n, m));
}

void ConsecutiveDist(const Trajectory& tr, double* out) {
  for (size_t i = 0; i + 1 < tr.size(); ++i) {
    out[i] = geometry::Distance(tr[i].p, tr[i + 1].p);
  }
}

void PointToManyDist(const geometry::Point& p, const Trajectory& tr,
                     double* out) {
  for (size_t i = 0; i < tr.size(); ++i) {
    out[i] = geometry::Distance(tr[i].p, p);
  }
}

}  // namespace scalar
}  // namespace kernels
}  // namespace sidq
