#include <gtest/gtest.h>

#include <cmath>

#include "metrics/cdf.hpp"
#include "metrics/percentile.hpp"
#include "metrics/table.hpp"

namespace hg::metrics {
namespace {

TEST(Samples, BasicStats) {
  Samples s;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(v);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(2.0), 1e-9);
}

TEST(Samples, Percentiles) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_NEAR(s.percentile(0), 1.0, 1e-9);
  EXPECT_NEAR(s.percentile(100), 100.0, 1e-9);
  EXPECT_NEAR(s.percentile(50), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(90), 90.1, 0.2);
}

TEST(Samples, PercentileSingleValue) {
  Samples s;
  s.add(7.0);
  EXPECT_DOUBLE_EQ(s.percentile(0), 7.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 7.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 7.0);
}

TEST(Samples, FractionAtMost) {
  Samples s;
  for (int i = 1; i <= 10; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.fraction_at_most(0.5), 0.0);
  EXPECT_DOUBLE_EQ(s.fraction_at_most(5.0), 0.5);
  EXPECT_DOUBLE_EQ(s.fraction_at_most(10.0), 1.0);
  EXPECT_DOUBLE_EQ(s.fraction_at_most(100.0), 1.0);
}

TEST(Samples, AddAfterSortKeepsCorrectness) {
  Samples s;
  s.add(5.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);  // forces a sort
  s.add(1.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);  // must re-sort
}

TEST(SamplesDeathTest, NanSampleIsFatal) {
  // NaN breaks std::sort's strict weak ordering, which every order
  // statistic relies on, so it is rejected when added.
  Samples s;
  s.add(1.0);
  ASSERT_DEATH(s.add(std::nan("")), "NaN sample");
}

TEST(ExactSamples, MergeAppendsValues) {
  Samples a;
  Samples b;
  for (double v : {3.0, 1.0}) a.add(v);
  for (double v : {2.0, 4.0}) b.add(v);
  a.merge_from(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_EQ(a.percentile(50.0), 2.5);
  EXPECT_EQ(a.values().size(), 4u);
}

TEST(ExactSamples, DefaultModeIsUnchanged) {
  // The exact path must behave as before: values() available, interpolated
  // percentiles, byte-stable results feeding the figure benches.
  Samples s;
  for (double v : {3.0, 1.0, 2.0}) s.add(v);
  EXPECT_EQ(s.values().size(), 3u);
  EXPECT_EQ(s.percentile(50.0), 2.0);
  EXPECT_EQ(s.percentile(75.0), 2.5);  // interpolation between ranks
  EXPECT_EQ(s.fraction_at_most(2.0), 2.0 / 3.0);
}

TEST(Cdf, EvaluateAgainstPopulation) {
  Samples s;
  for (int i = 1; i <= 50; ++i) s.add(i);  // 50 nodes reached the target
  // population 100: half the nodes never reached it.
  auto series = Cdf::evaluate(s, {0.0, 25.0, 50.0, 100.0}, 100);
  ASSERT_EQ(series.size(), 4u);
  EXPECT_DOUBLE_EQ(series[0].percent, 0.0);
  EXPECT_DOUBLE_EQ(series[1].percent, 25.0);
  EXPECT_DOUBLE_EQ(series[2].percent, 50.0);
  EXPECT_DOUBLE_EQ(series[3].percent, 50.0);  // saturates below 100%
}

TEST(Cdf, UniformGrid) {
  auto g = Cdf::uniform_grid(60.0, 7);
  ASSERT_EQ(g.size(), 7u);
  EXPECT_DOUBLE_EQ(g.front(), 0.0);
  EXPECT_DOUBLE_EQ(g.back(), 60.0);
  EXPECT_DOUBLE_EQ(g[1], 10.0);
}

TEST(Cdf, RenderTableContainsSeries) {
  Samples s;
  s.add(1.0);
  auto series = Cdf::evaluate(s, {0.0, 2.0}, 1);
  const std::string out = render_cdf_table("lag", {"heap"}, {series});
  EXPECT_NE(out.find("lag"), std::string::npos);
  EXPECT_NE(out.find("heap"), std::string::npos);
  EXPECT_NE(out.find("100.0%"), std::string::npos);
}

TEST(Table, RendersAligned) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22222"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(out.find("| b     | 22222 |"), std::string::npos);
}

TEST(Table, Formatters) {
  EXPECT_EQ(Table::pct(0.714, 1), "71.4%");
  EXPECT_EQ(Table::pct(1.0, 0), "100%");
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
}

}  // namespace
}  // namespace hg::metrics
