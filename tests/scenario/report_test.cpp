// Report builders over a real (small) experiment: the quantities feeding
// every figure/table binary must be internally consistent.
#include "scenario/report.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace hg::scenario {
namespace {

ClassStat stat(const char* name, std::size_t nodes, std::size_t contributors,
               double value = std::nan("")) {
  return ClassStat{name, nodes, contributors, value};
}

TEST(PoolClassStats, WeighsEachSeedByItsContributors) {
  // Seed 1 averages 2 of its 4 nodes, seed 2 all 4: the pooled mean is over
  // the 6 contributing nodes, not the 8 surviving ones.
  const std::vector<std::vector<ClassStat>> per_seed = {
      {stat("poor", 4, 2, 0.90), stat("rich", 3, 3, 0.50), stat("none", 2, 0)},
      {stat("poor", 4, 4, 0.60), stat("rich", 1, 0), stat("none", 5, 0)},
  };
  const auto pooled = pool_class_stats(per_seed);
  ASSERT_EQ(pooled.size(), 3u);
  EXPECT_EQ(pooled[0].class_name, "poor");
  EXPECT_EQ(pooled[0].nodes, 8u);
  EXPECT_EQ(pooled[0].contributors, 6u);
  EXPECT_DOUBLE_EQ(pooled[0].value, (2 * 0.90 + 4 * 0.60) / 6);
  // A seed without contributors adds nodes but no weight.
  EXPECT_EQ(pooled[1].nodes, 4u);
  EXPECT_EQ(pooled[1].contributors, 3u);
  EXPECT_DOUBLE_EQ(pooled[1].value, 0.50);
  EXPECT_EQ(pooled[2].nodes, 7u);
  EXPECT_TRUE(std::isnan(pooled[2].value));
  EXPECT_TRUE(pool_class_stats({}).empty());
}

TEST(PoolClassStats, OneSeedPassesThrough) {
  const std::vector<ClassStat> table = {stat("a", 5, 5, 0.25), stat("b", 3, 1, 0.75)};
  const auto pooled = pool_class_stats({table});
  ASSERT_EQ(pooled.size(), 2u);
  for (std::size_t c = 0; c < table.size(); ++c) {
    EXPECT_EQ(pooled[c].nodes, table[c].nodes);
    EXPECT_EQ(pooled[c].contributors, table[c].contributors);
    EXPECT_DOUBLE_EQ(pooled[c].value, table[c].value);
  }
}

class ReportFixture : public ::testing::Test {
 protected:
  static const Experiment& experiment() {
    static auto* exp = [] {
      ExperimentConfig cfg;
      cfg.node_count = 80;
      cfg.stream_windows = 6;
      cfg.mode = core::Mode::kHeap;
      cfg.distribution = BandwidthDistribution::ref691();
      cfg.tail = sim::SimTime::sec(40.0);
      cfg.seed = 31;
      auto* e = new Experiment(cfg);
      e->run();
      return e;
    }();
    return *exp;
  }
};

TEST_F(ReportFixture, ClassStatsCoverAllNodes) {
  const auto usage = usage_by_class(experiment());
  ASSERT_EQ(usage.size(), 3u);
  std::size_t total = 0;
  for (const auto& c : usage) total += c.nodes;
  EXPECT_EQ(total, experiment().receivers());
  for (const auto& c : usage) {
    EXPECT_GT(c.value, 0.0) << c.class_name;
    EXPECT_LE(c.value, 1.0) << c.class_name;  // the limiter enforces this
  }
}

TEST_F(ReportFixture, JitterFreePctConsistentWithNodeCount) {
  const auto q = jitter_free_pct_by_class(experiment(), 10.0);
  for (const auto& c : q) {
    EXPECT_GE(c.value, 0.0);
    EXPECT_LE(c.value, 1.0);
    EXPECT_EQ(c.contributors, c.nodes);  // every node has a jitter fraction
  }
  // Only nodes with a jittered window have a delivery ratio inside one.
  for (const auto& c : delivery_in_jittered_by_class(experiment(), 10.0)) {
    EXPECT_LE(c.contributors, c.nodes) << c.class_name;
    EXPECT_EQ(std::isnan(c.value), c.contributors == 0) << c.class_name;
  }
}

TEST_F(ReportFixture, LagSamplesMonotoneInJitterBudget) {
  // Allowing more jitter can only reduce the lag each node needs.
  const auto strict = jitter_free_lags(experiment(), 0.0);
  const auto loose = jitter_free_lags(experiment(), 0.05);
  ASSERT_FALSE(strict.empty());
  ASSERT_GE(loose.count(), strict.count());
  EXPECT_LE(loose.percentile(50), strict.percentile(50) + 1e-9);
  EXPECT_LE(loose.percentile(90), strict.percentile(90) + 1e-9);
}

TEST_F(ReportFixture, JitterPercentMonotoneInLag) {
  const auto at5 = jitter_percent_at_lag(experiment(), 5.0);
  const auto at20 = jitter_percent_at_lag(experiment(), 20.0);
  const auto offline = jitter_percent_offline(experiment());
  EXPECT_GE(at5.mean(), at20.mean() - 1e-9);
  EXPECT_GE(at20.mean(), offline.mean() - 1e-9);
}

TEST_F(ReportFixture, PerWindowSeriesBounded) {
  const auto series = per_window_decode_percent(experiment(), 10.0);
  ASSERT_EQ(series.size(), 6u);
  for (double v : series) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 100.0);
  }
}

TEST_F(ReportFixture, StreamFractionLagGrowsWithFraction) {
  const auto p90 = stream_fraction_lags(experiment(), 0.90);
  const auto p99 = stream_fraction_lags(experiment(), 0.99);
  ASSERT_FALSE(p90.empty());
  ASSERT_FALSE(p99.empty());
  EXPECT_LE(p90.percentile(50), p99.percentile(50) + 1e-9);
}

TEST_F(ReportFixture, CdfGridEvaluation) {
  const auto lags = jitter_free_lags(experiment(), 0.0);
  const auto cdf = cdf_over_grid(lags, {0.0, 5.0, 40.0}, experiment().receivers());
  ASSERT_EQ(cdf.size(), 3u);
  EXPECT_LE(cdf[0].percent, cdf[1].percent);
  EXPECT_LE(cdf[1].percent, cdf[2].percent);
  EXPECT_LE(cdf[2].percent, 100.0);
}

TEST_F(ReportFixture, MeanLagCapApplies) {
  const auto capped = mean_lag_to_jitter_free_by_class(experiment(), 1e-3);
  for (const auto& c : capped) EXPECT_LE(c.value, 1e-3 + 1e-12);
}

}  // namespace
}  // namespace hg::scenario
