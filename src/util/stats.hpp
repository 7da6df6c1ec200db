// Summary statistics and least-squares fitting used by the benchmark
// harness to report competitive-ratio scaling shapes.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace ppg {

/// Running summary of a stream of doubles (Welford's online algorithm for
/// numerically stable variance).
class Summary {
 public:
  void add(double x);

  std::size_t count() const { return count_; }
  double mean() const { return mean_; }
  double variance() const;  ///< Sample variance (n-1 denominator).
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }
  double sum() const { return sum_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Result of an ordinary-least-squares fit y = slope*x + intercept.
struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  double r_squared = 0.0;
};

/// OLS fit over paired samples; requires xs.size() == ys.size() >= 2.
LinearFit fit_linear(std::span<const double> xs, std::span<const double> ys);

/// Fits y = slope*log2(x) + intercept — the shape check for the paper's
/// O(log p) competitive-ratio claims. Requires all xs > 0.
LinearFit fit_log2(std::span<const double> xs, std::span<const double> ys);

/// q-th quantile (0 <= q <= 1) by linear interpolation of sorted copy.
double quantile(std::vector<double> values, double q);

}  // namespace ppg
