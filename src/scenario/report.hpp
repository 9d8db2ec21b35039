// Report builders: turn a finished Experiment into the series/rows the
// paper's figures and tables show.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "metrics/cdf.hpp"
#include "metrics/percentile.hpp"
#include "scenario/experiment.hpp"

namespace hg::scenario {

struct ClassStat {
  std::string class_name;
  std::size_t nodes = 0;         // surviving receivers of the class
  std::size_t contributors = 0;  // of those, the ones `value` averages over
  double value = 0.0;            // meaning depends on the builder
};

// Pools per-seed tables of one builder (the same classes in the same order)
// into one: node and contributor counts add up, and each class's value is
// the mean over every seed's contributors — the seeds' means weighted by
// their contributor counts. NaN where no seed has a contributor.
[[nodiscard]] std::vector<ClassStat> pool_class_stats(
    const std::vector<std::vector<ClassStat>>& per_seed);

// Fig. 4: mean upload usage (fraction of capacity, incl. overhead) by class.
[[nodiscard]] std::vector<ClassStat> usage_by_class(const Experiment& e);

// Figs. 5/6: mean percentage of jitter-free windows at `lag_sec`, by class.
[[nodiscard]] std::vector<ClassStat> jitter_free_pct_by_class(const Experiment& e,
                                                              double lag_sec);

// Fig. 8: mean lag (s) to obtain a fully jitter-free stream, by class. Nodes
// that never get jitter-free contribute `cap_sec` (the plot's axis limit).
[[nodiscard]] std::vector<ClassStat> mean_lag_to_jitter_free_by_class(const Experiment& e,
                                                                      double cap_sec);

// Table 3: percentage of nodes with a fully jitter-free stream at `lag_sec`.
[[nodiscard]] std::vector<ClassStat> jitter_free_nodes_pct_by_class(const Experiment& e,
                                                                    double lag_sec);

// Table 2: mean delivery ratio inside jittered windows at `lag_sec`, by
// class (NaN -> no jittered windows in that class).
[[nodiscard]] std::vector<ClassStat> delivery_in_jittered_by_class(const Experiment& e,
                                                                   double lag_sec);

// Figs. 1/2/3: per-node lag to receive >= `fraction` of the stream.
// Returns samples over surviving nodes (missing nodes never reach it).
[[nodiscard]] metrics::Samples stream_fraction_lags(const Experiment& e, double fraction);

// Figs. 9a/9b: per-node lag to at most `max_jitter` jittered windows.
[[nodiscard]] metrics::Samples jitter_free_lags(const Experiment& e, double max_jitter);

// Fig. 7: per-node jitter percentage at `lag_sec` (or offline).
[[nodiscard]] metrics::Samples jitter_percent_at_lag(const Experiment& e, double lag_sec);
[[nodiscard]] metrics::Samples jitter_percent_offline(const Experiment& e);

// Fig. 10: per-window decode % of the initial population at `lag_sec`.
[[nodiscard]] std::vector<double> per_window_decode_percent(const Experiment& e,
                                                            double lag_sec);

// Convenience: CDF series over a lag grid for the given per-node samples.
[[nodiscard]] std::vector<metrics::CdfPoint> cdf_over_grid(const metrics::Samples& samples,
                                                           const std::vector<double>& grid,
                                                           std::size_t population);

}  // namespace hg::scenario
