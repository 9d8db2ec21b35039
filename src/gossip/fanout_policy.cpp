#include "gossip/fanout_policy.hpp"

#include <algorithm>
#include <cmath>

#include "aggregation/freshness_aggregator.hpp"
#include "common/assert.hpp"

namespace hg::gossip {

std::size_t round_fanout(double target, FanoutRounding rounding, Rng& rng) {
  HG_ASSERT_MSG(!std::isnan(target), "fanout target is NaN");
  if (target <= 0.0) return 0;  // clamp: a negative target must not wrap size_t
  const double base = std::floor(target);
  switch (rounding) {
    case FanoutRounding::kFloor:
      return static_cast<std::size_t>(base);
    case FanoutRounding::kRandomized:
      break;
  }
  const double frac = target - base;
  return static_cast<std::size_t>(base) + (rng.chance(frac) ? 1 : 0);
}

FixedFanout::FixedFanout(double fanout) : fanout_(fanout) {
  HG_ASSERT_MSG(!std::isnan(fanout_), "FixedFanout configured with NaN");
}

AdaptiveFanout::AdaptiveFanout(BitRate own_capability,
                               const aggregation::CapabilityEstimator* estimator,
                               AdaptiveFanoutConfig config)
    : own_capability_(own_capability), estimator_(estimator), config_(config) {
  HG_ASSERT(estimator_ != nullptr);
  HG_ASSERT_MSG(!std::isnan(config_.base_fanout), "AdaptiveFanout configured with NaN");
  HG_ASSERT(config_.base_fanout >= 0.0);
  // The upper bound of current_target()'s clamp: a negative cap breaks the
  // clamp's precondition (and mutes the node), and NaN would mean no cap.
  HG_ASSERT_MSG(config_.max_fanout >= 0.0,
                "AdaptiveFanoutConfig::max_fanout must not be negative or NaN");
}

double AdaptiveFanout::current_target() const {
  const double avg = estimator_->average_capability_bps();
  if (avg <= 0.0) return config_.base_fanout;  // no estimate yet: behave like std gossip
  const double ratio = static_cast<double>(own_capability_.bits_per_sec()) / avg;
  // No floor above 0: HEAP lets very poor nodes drop below one target.
  return std::clamp(config_.base_fanout * ratio, 0.0, config_.max_fanout);
}

std::size_t AdaptiveFanout::fanout_for_round(Rng& rng) {
  return round_fanout(current_target(), config_.rounding, rng);
}

}  // namespace hg::gossip
