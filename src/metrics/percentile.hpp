// Order statistics over collected samples: every sample is retained and
// queries sort on demand, so results are exact and byte-stable.
#pragma once

#include <cmath>
#include <vector>

#include "common/assert.hpp"

namespace hg::metrics {

class Samples {
 public:
  void add(double v) {
    HG_ASSERT_MSG(!std::isnan(v), "NaN sample (std::sort cannot order it)");
    values_.push_back(v);
    sorted_ = false;
  }
  void reserve(std::size_t n) { values_.reserve(n); }

  [[nodiscard]] std::size_t count() const { return values_.size(); }
  [[nodiscard]] bool empty() const { return values_.empty(); }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  // Percentile, q in [0, 100], interpolated between the two nearest ranks.
  [[nodiscard]] double percentile(double q) const;
  // Fraction of samples <= threshold.
  [[nodiscard]] double fraction_at_most(double threshold) const;

  [[nodiscard]] const std::vector<double>& values() const { return values_; }

  // Appends `other`'s samples.
  void merge_from(const Samples& other);

 private:
  void ensure_sorted() const;
  mutable std::vector<double> values_;
  mutable bool sorted_ = false;
};

}  // namespace hg::metrics
