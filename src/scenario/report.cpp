#include "scenario/report.hpp"

#include <cmath>

#include "common/assert.hpp"

namespace hg::scenario {

namespace {

// Turns each value from a sum over the class's contributors into their mean.
void sums_to_means(std::vector<ClassStat>& stats) {
  for (ClassStat& stat : stats) {
    stat.value = stat.contributors > 0 ? stat.value / static_cast<double>(stat.contributors)
                                       : std::nan("");
  }
}

// Applies `fn(receiver_index)` per class and averages the results.
template <typename Fn>
std::vector<ClassStat> per_class_mean(const Experiment& e, Fn&& fn) {
  const auto& classes = e.config().distribution.classes();
  std::vector<ClassStat> out(classes.size());
  for (std::size_t c = 0; c < classes.size(); ++c) {
    out[c].class_name = classes[c].name;
  }
  for (std::size_t i = 0; i < e.receivers(); ++i) {
    if (e.info(i).crashed) continue;
    const auto c = static_cast<std::size_t>(e.info(i).class_index);
    const std::optional<double> v = fn(i);
    out[c].nodes += 1;
    if (v.has_value()) {
      out[c].value += *v;
      out[c].contributors += 1;
    }
  }
  sums_to_means(out);
  return out;
}

}  // namespace

std::vector<ClassStat> pool_class_stats(const std::vector<std::vector<ClassStat>>& per_seed) {
  if (per_seed.empty()) return {};
  std::vector<ClassStat> pooled(per_seed.front().size());
  for (std::size_t c = 0; c < pooled.size(); ++c) {
    pooled[c].class_name = per_seed.front()[c].class_name;
  }
  for (const std::vector<ClassStat>& table : per_seed) {
    HG_ASSERT_MSG(table.size() == pooled.size(), "seed tables list different classes");
    for (std::size_t c = 0; c < table.size(); ++c) {
      pooled[c].nodes += table[c].nodes;
      if (table[c].contributors == 0) continue;
      pooled[c].value += table[c].value * static_cast<double>(table[c].contributors);
      pooled[c].contributors += table[c].contributors;
    }
  }
  sums_to_means(pooled);
  return pooled;
}

std::vector<ClassStat> usage_by_class(const Experiment& e) {
  return per_class_mean(e, [&](std::size_t i) -> std::optional<double> {
    if (e.info(i).capability.is_unlimited()) return std::nullopt;
    return e.upload_usage(i);
  });
}

std::vector<ClassStat> jitter_free_pct_by_class(const Experiment& e, double lag_sec) {
  return per_class_mean(e, [&](std::size_t i) -> std::optional<double> {
    return 1.0 - e.analyzer().jitter_fraction(e.player(i), lag_sec);
  });
}

std::vector<ClassStat> mean_lag_to_jitter_free_by_class(const Experiment& e, double cap_sec) {
  return per_class_mean(e, [&](std::size_t i) -> std::optional<double> {
    const auto lag = e.analyzer().lag_to_jitter_at_most(e.player(i), 0.0);
    return std::min(lag.value_or(cap_sec), cap_sec);
  });
}

std::vector<ClassStat> jitter_free_nodes_pct_by_class(const Experiment& e, double lag_sec) {
  return per_class_mean(e, [&](std::size_t i) -> std::optional<double> {
    return e.analyzer().jitter_fraction(e.player(i), lag_sec) == 0.0 ? 1.0 : 0.0;
  });
}

std::vector<ClassStat> delivery_in_jittered_by_class(const Experiment& e, double lag_sec) {
  return per_class_mean(e, [&](std::size_t i) -> std::optional<double> {
    return e.analyzer().mean_delivery_in_jittered(e.player(i), lag_sec);
  });
}

metrics::Samples stream_fraction_lags(const Experiment& e, double fraction) {
  metrics::Samples s;
  for (std::size_t i = 0; i < e.receivers(); ++i) {
    if (e.info(i).crashed) continue;
    if (const auto lag = e.analyzer().lag_to_stream_fraction(e.player(i), fraction)) {
      s.add(*lag);
    }
  }
  return s;
}

metrics::Samples jitter_free_lags(const Experiment& e, double max_jitter) {
  metrics::Samples s;
  for (std::size_t i = 0; i < e.receivers(); ++i) {
    if (e.info(i).crashed) continue;
    if (const auto lag = e.analyzer().lag_to_jitter_at_most(e.player(i), max_jitter)) {
      s.add(*lag);
    }
  }
  return s;
}

metrics::Samples jitter_percent_at_lag(const Experiment& e, double lag_sec) {
  metrics::Samples s;
  for (std::size_t i = 0; i < e.receivers(); ++i) {
    if (e.info(i).crashed) continue;
    s.add(100.0 * e.analyzer().jitter_fraction(e.player(i), lag_sec));
  }
  return s;
}

metrics::Samples jitter_percent_offline(const Experiment& e) {
  metrics::Samples s;
  for (std::size_t i = 0; i < e.receivers(); ++i) {
    if (e.info(i).crashed) continue;
    s.add(100.0 * e.analyzer().jitter_fraction_offline(e.player(i)));
  }
  return s;
}

std::vector<double> per_window_decode_percent(const Experiment& e, double lag_sec) {
  std::vector<const stream::Player*> players;
  for (std::size_t i = 0; i < e.receivers(); ++i) {
    players.push_back(&e.player(i));  // include crashed: they stop decoding
  }
  return e.analyzer().per_window_decode_percent(players, lag_sec, e.receivers());
}

std::vector<metrics::CdfPoint> cdf_over_grid(const metrics::Samples& samples,
                                             const std::vector<double>& grid,
                                             std::size_t population) {
  return metrics::Cdf::evaluate(samples, grid, population);
}

}  // namespace hg::scenario
