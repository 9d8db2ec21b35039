#include "net/latency.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace hg::net {
namespace {

TEST(Latency, ConstantAlwaysSame) {
  ConstantLatency lat(sim::SimTime::ms(25));
  Rng rng(1);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(lat.sample(NodeId{0}, NodeId{1}, rng), sim::SimTime::ms(25));
  }
}

TEST(Latency, PlanetLabWithinConfiguredClamp) {
  PlanetLabLatencyConfig cfg;
  PlanetLabLatency lat(cfg, Rng(3));
  Rng rng(4);
  for (std::uint32_t i = 0; i < 50; ++i) {
    for (std::uint32_t j = 0; j < 50; ++j) {
      if (i == j) continue;
      const auto v = lat.sample(NodeId{i}, NodeId{j}, rng);
      EXPECT_GE(v.as_ms(), cfg.min_ms);
      EXPECT_LE(v.as_ms(), cfg.max_ms + cfg.jitter_max_ms);
    }
  }
}

TEST(Latency, PlanetLabBaseIndependentOfQueryOrder) {
  PlanetLabLatencyConfig cfg;
  cfg.jitter_max_ms = 0.0;
  PlanetLabLatency lat_a(cfg, Rng(5));
  PlanetLabLatency lat_b(cfg, Rng(5));
  Rng rng(6);
  // lat_a queries (3,4) first; lat_b queries other pairs first.
  const auto a = lat_a.sample(NodeId{3}, NodeId{4}, rng);
  (void)lat_b.sample(NodeId{1}, NodeId{2}, rng);
  (void)lat_b.sample(NodeId{7}, NodeId{9}, rng);
  const auto b = lat_b.sample(NodeId{3}, NodeId{4}, rng);
  EXPECT_EQ(a, b);
}

TEST(Latency, PlanetLabSpreadIsHeterogeneous) {
  PlanetLabLatencyConfig cfg;
  cfg.jitter_max_ms = 0.0;
  PlanetLabLatency lat(cfg, Rng(7));
  Rng rng(8);
  sim::SimTime lo = sim::SimTime::max(), hi = sim::SimTime::zero();
  for (std::uint32_t i = 1; i < 80; ++i) {
    const auto v = lat.sample(NodeId{0}, NodeId{i}, rng);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  // Log-normal spread: the slowest pair should be several times the fastest.
  EXPECT_GT(hi.as_us(), 3 * lo.as_us());
}

}  // namespace
}  // namespace hg::net
