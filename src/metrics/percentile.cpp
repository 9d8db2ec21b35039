#include "metrics/percentile.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"

namespace hg::metrics {

void Samples::ensure_sorted() const {
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
}

double Samples::mean() const {
  HG_ASSERT(!values_.empty());
  double sum = 0;
  for (double v : values_) sum += v;
  return sum / static_cast<double>(values_.size());
}

double Samples::stddev() const {
  HG_ASSERT(!values_.empty());
  const double m = mean();
  double acc = 0;
  for (double v : values_) acc += (v - m) * (v - m);
  return std::sqrt(acc / static_cast<double>(values_.size()));
}

double Samples::min() const {
  ensure_sorted();
  HG_ASSERT(!values_.empty());
  return values_.front();
}

double Samples::max() const {
  ensure_sorted();
  HG_ASSERT(!values_.empty());
  return values_.back();
}

double Samples::percentile(double q) const {
  ensure_sorted();
  HG_ASSERT(!values_.empty());
  HG_ASSERT(q >= 0.0 && q <= 100.0);
  if (values_.size() == 1) return values_[0];
  const double rank = q / 100.0 * static_cast<double>(values_.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - std::floor(rank);
  return values_[lo] * (1.0 - frac) + values_[hi] * frac;
}

double Samples::fraction_at_most(double threshold) const {
  ensure_sorted();
  if (values_.empty()) return 0.0;
  const auto it = std::upper_bound(values_.begin(), values_.end(), threshold);
  return static_cast<double>(it - values_.begin()) / static_cast<double>(values_.size());
}

void Samples::merge_from(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  sorted_ = false;
}

}  // namespace hg::metrics
