#include "gossip/fanout_policy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "aggregation/freshness_aggregator.hpp"

namespace hg::gossip {
namespace {

class FakeEstimator final : public aggregation::CapabilityEstimator {
 public:
  explicit FakeEstimator(double bps) : bps_(bps) {}
  double average_capability_bps() const override { return bps_; }
  void set(double bps) { bps_ = bps; }

 private:
  double bps_;
};

TEST(FixedFanout, IntegerIsExact) {
  FixedFanout p(7.0);
  Rng rng(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(p.fanout_for_round(rng), 7u);
  EXPECT_DOUBLE_EQ(p.current_target(), 7.0);
}

TEST(FixedFanout, FractionalAveragesOut) {
  FixedFanout p(7.4);
  Rng rng(2);
  double sum = 0;
  constexpr int kRounds = 100000;
  for (int i = 0; i < kRounds; ++i) sum += static_cast<double>(p.fanout_for_round(rng));
  EXPECT_NEAR(sum / kRounds, 7.4, 0.02);
}

TEST(FixedFanout, ZeroFanoutIsZero) {
  FixedFanout p(0.0);
  Rng rng(3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(p.fanout_for_round(rng), 0u);
}

TEST(FixedFanout, NegativeFanoutClampsToZeroInsteadOfWrapping) {
  // A sweep config of -1 used to floor through size_t and wrap to ~2^64.
  FixedFanout p(-1.0);
  Rng rng(4);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(p.fanout_for_round(rng), 0u);
  FixedFanout tiny(-0.3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(tiny.fanout_for_round(rng), 0u);
}

TEST(FixedFanoutDeathTest, NanFanoutAbortsLoudly) {
  EXPECT_DEATH(FixedFanout{std::numeric_limits<double>::quiet_NaN()}, "NaN");
}

TEST(AdaptiveFanoutDeathTest, NanBaseFanoutAbortsLoudly) {
  FakeEstimator est(691'000.0);
  AdaptiveFanoutConfig cfg;
  cfg.base_fanout = std::numeric_limits<double>::quiet_NaN();
  EXPECT_DEATH(AdaptiveFanout(BitRate::kbps(512), &est, cfg), "NaN");
}

// max_fanout is the upper bound of the target's clamp: a negative cap would
// break the clamp's precondition and mute the node, and NaN would mean no
// cap at all.
TEST(AdaptiveFanoutDeathTest, NegativeOrNanMaxFanoutRejected) {
  FakeEstimator est(691'000.0);
  for (const double cap : {-1.0, std::numeric_limits<double>::quiet_NaN()}) {
    AdaptiveFanoutConfig cfg;
    cfg.max_fanout = cap;
    EXPECT_DEATH(AdaptiveFanout(BitRate::kbps(512), &est, cfg),
                 "AdaptiveFanoutConfig::max_fanout must not be negative or NaN");
  }
}

TEST(AdaptiveFanout, PaperEquationFp) {
  // ms-691: b̄=691 kbps, f=7. Expected targets: 512k -> 5.19, 1M -> 10.37,
  // 3M -> 31.1 (paper Eq. 1 with the aggregation estimate).
  FakeEstimator est(691'000.0);
  AdaptiveFanoutConfig cfg;
  AdaptiveFanout poor(BitRate::kbps(512), &est, cfg);
  AdaptiveFanout mid(BitRate::kbps(1024), &est, cfg);
  AdaptiveFanout rich(BitRate::kbps(3072), &est, cfg);
  EXPECT_NEAR(poor.current_target(), 7.0 * 512.0 / 691.0, 0.01);
  EXPECT_NEAR(mid.current_target(), 7.0 * 1024.0 / 691.0, 0.01);
  EXPECT_NEAR(rich.current_target(), 7.0 * 3072.0 / 691.0, 0.01);
}

TEST(AdaptiveFanout, PopulationAverageEqualsBaseFanout) {
  // The property HEAP relies on: sum of fanouts over the population equals
  // n * f when the estimate is the true average (Eq. 1 + [15]).
  FakeEstimator est(0.0);
  std::vector<double> caps_kbps;
  for (int i = 0; i < 85; ++i) caps_kbps.push_back(512);
  for (int i = 0; i < 10; ++i) caps_kbps.push_back(1024);
  for (int i = 0; i < 5; ++i) caps_kbps.push_back(3072);
  double avg = 0;
  for (double c : caps_kbps) avg += c;
  avg /= static_cast<double>(caps_kbps.size());
  est.set(avg * 1000.0);

  double target_sum = 0;
  Rng rng(3);
  double drawn_sum = 0;
  constexpr int kRounds = 2000;
  for (double c : caps_kbps) {
    AdaptiveFanout p(BitRate::kbps(c), &est, AdaptiveFanoutConfig{});
    target_sum += p.current_target();
    for (int r = 0; r < kRounds; ++r) drawn_sum += static_cast<double>(p.fanout_for_round(rng));
  }
  EXPECT_NEAR(target_sum / static_cast<double>(caps_kbps.size()), 7.0, 1e-9);
  EXPECT_NEAR(drawn_sum / (static_cast<double>(caps_kbps.size()) * kRounds), 7.0, 0.05);
}

TEST(AdaptiveFanout, NoEstimateFallsBackToBase) {
  FakeEstimator est(0.0);
  AdaptiveFanout p(BitRate::kbps(512), &est, AdaptiveFanoutConfig{});
  EXPECT_DOUBLE_EQ(p.current_target(), 7.0);
}

TEST(AdaptiveFanout, MaxFanoutCap) {
  FakeEstimator est(100'000.0);  // avg 100 kbps, own 100 Mbps -> ratio 1000
  AdaptiveFanoutConfig cfg;
  cfg.max_fanout = 20.0;
  AdaptiveFanout p(BitRate::mbps(100), &est, cfg);
  EXPECT_DOUBLE_EQ(p.current_target(), 20.0);
}

TEST(AdaptiveFanout, TracksEstimateChanges) {
  FakeEstimator est(1'000'000.0);
  AdaptiveFanout p(BitRate::kbps(1000), &est, AdaptiveFanoutConfig{});
  EXPECT_NEAR(p.current_target(), 7.0, 1e-9);
  est.set(500'000.0);  // average halves -> this node is now twice as capable
  EXPECT_NEAR(p.current_target(), 14.0, 1e-9);
}

TEST(AdaptiveFanout, FloorRoundingBiasesLow) {
  FakeEstimator est(691'000.0);
  AdaptiveFanoutConfig cfg;
  cfg.rounding = FanoutRounding::kFloor;
  AdaptiveFanout p(BitRate::kbps(512), &est, cfg);  // target 5.19
  Rng rng(4);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(p.fanout_for_round(rng), 5u);
}

TEST(AdaptiveFanout, RandomizedRoundingIsExactInExpectation) {
  FakeEstimator est(691'000.0);
  AdaptiveFanout p(BitRate::kbps(512), &est, AdaptiveFanoutConfig{});
  Rng rng(5);
  double sum = 0;
  constexpr int kRounds = 200000;
  for (int i = 0; i < kRounds; ++i) sum += static_cast<double>(p.fanout_for_round(rng));
  EXPECT_NEAR(sum / kRounds, 7.0 * 512.0 / 691.0, 0.01);
}

// --- property-based: the HEAP invariant over randomized populations --------
//
// Equation 1 (f_p = f * b_p / b̄) promises that however capabilities are
// distributed, (a) the *system-wide* expected fanout stays N * f — the
// ln(n)+c reliability threshold is preserved — and (b) each node's share is
// proportional to its capability, monotone, never negative, and never NaN.

TEST(AdaptiveFanoutProperty, ExpectedTotalFanoutIsPopulationTimesBase) {
  Rng rng(0xfa42);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 50 + static_cast<std::size_t>(rng.below(400));
    const double base_fanout = 2.0 + rng.uniform(0.0, 10.0);
    std::vector<double> caps_bps;
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      // Heavy spread: three decades of capability, like real populations.
      caps_bps.push_back(std::exp(rng.uniform(std::log(64e3), std::log(64e6))));
      sum += caps_bps.back();
    }
    FakeEstimator est(sum / static_cast<double>(n));

    AdaptiveFanoutConfig cfg;
    cfg.base_fanout = base_fanout;
    cfg.max_fanout = 1e9;  // no clamping: the algebraic identity must be exact
    double total_target = 0.0;
    for (double c : caps_bps) {
      AdaptiveFanout p(BitRate::bps(static_cast<std::int64_t>(c)), &est, cfg);
      const double target = p.current_target();
      EXPECT_GE(target, 0.0);
      EXPECT_FALSE(std::isnan(target));
      total_target += target;
    }
    const double expected = static_cast<double>(n) * base_fanout;
    EXPECT_NEAR(total_target / expected, 1.0, 1e-6)
        << "trial " << trial << " n=" << n << " f=" << base_fanout;
  }
}

TEST(AdaptiveFanoutProperty, EmpiricalRoundedFanoutMatchesExpectationWithinTolerance) {
  // Same invariant through the randomized-rounding path: averaging the
  // integer per-round fanouts over many rounds recovers N * f.
  Rng rng(0xbeef);
  FakeEstimator est(0.0);
  for (int trial = 0; trial < 3; ++trial) {
    const std::size_t n = 100;
    const double base_fanout = 7.0;
    std::vector<double> caps_bps;
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      caps_bps.push_back(rng.uniform(128e3, 8e6));
      sum += caps_bps.back();
    }
    est.set(sum / static_cast<double>(n));
    AdaptiveFanoutConfig cfg;
    cfg.base_fanout = base_fanout;
    cfg.max_fanout = 1e6;
    double rounds_total = 0.0;
    constexpr int kRounds = 2000;
    for (double c : caps_bps) {
      AdaptiveFanout p(BitRate::bps(static_cast<std::int64_t>(c)), &est, cfg);
      for (int r = 0; r < kRounds; ++r) {
        rounds_total += static_cast<double>(p.fanout_for_round(rng));
      }
    }
    const double mean_total = rounds_total / kRounds;
    EXPECT_NEAR(mean_total / (static_cast<double>(n) * base_fanout), 1.0, 0.02) << trial;
  }
}

TEST(AdaptiveFanoutProperty, FanoutIsMonotoneInCapability) {
  Rng rng(0x5eed);
  for (int trial = 0; trial < 10; ++trial) {
    FakeEstimator est(rng.uniform(256e3, 4e6));
    AdaptiveFanoutConfig cfg;
    cfg.max_fanout = 64.0;  // clamping must preserve (weak) monotonicity
    std::vector<double> caps;
    for (int i = 0; i < 200; ++i) caps.push_back(rng.uniform(1e3, 1e8));
    std::sort(caps.begin(), caps.end());
    double prev = -1.0;
    for (double c : caps) {
      AdaptiveFanout p(BitRate::bps(static_cast<std::int64_t>(c)), &est, cfg);
      const double target = p.current_target();
      EXPECT_GE(target, prev);
      EXPECT_GE(target, 0.0);
      prev = target;
    }
  }
}

TEST(AdaptiveFanoutProperty, ProportionalToCapabilityWhenUnclamped) {
  Rng rng(0xcafe);
  FakeEstimator est(691e3);
  AdaptiveFanoutConfig cfg;
  cfg.max_fanout = 1e9;
  for (int i = 0; i < 100; ++i) {
    const double a = rng.uniform(64e3, 4e6);
    const double b = rng.uniform(64e3, 4e6);
    AdaptiveFanout pa(BitRate::bps(static_cast<std::int64_t>(a)), &est, cfg);
    AdaptiveFanout pb(BitRate::bps(static_cast<std::int64_t>(b)), &est, cfg);
    // f_a / f_b == b_a / b_b (proportionality, independent of b̄).
    EXPECT_NEAR(pa.current_target() / pb.current_target(),
                static_cast<double>(static_cast<std::int64_t>(a)) /
                    static_cast<double>(static_cast<std::int64_t>(b)),
                1e-9);
  }
}

TEST(AdaptiveFanoutPropertyDeathTest, NanEstimateIsRejectedAtRoundTime) {
  // A NaN b̄ must abort loudly, not propagate NaN into a size_t cast (UB).
  FakeEstimator est(std::numeric_limits<double>::quiet_NaN());
  AdaptiveFanout p(BitRate::kbps(512), &est, AdaptiveFanoutConfig{});
  Rng rng(6);
  ASSERT_DEATH((void)p.fanout_for_round(rng), "NaN");
}

}  // namespace
}  // namespace hg::gossip
