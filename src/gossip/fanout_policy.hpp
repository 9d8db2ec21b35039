// Fanout selection — the knob HEAP turns.
//
// The dissemination engine asks its policy for a fanout before every gossip
// round. Standard gossip answers a constant (FixedFanout); HEAP answers the
// capability-proportional rule (AdaptiveFanout, paper §2.2, Equation 1):
//
//     f_p = f * b_p / b̄
//
// where b_p is the node's own upload capability and b̄ the continuously
// gossip-estimated average capability. The system-wide mean fanout stays f,
// preserving the ln(n)+c reliability threshold [15] while shifting serve
// load onto capable nodes. Both policies honor fractional targets in
// expectation via randomized rounding.
#pragma once

#include <cstddef>

#include "common/rng.hpp"
#include "common/units.hpp"

// AdaptiveFanout only holds a pointer to the estimator interface; the full
// aggregation header is needed by the .cpp alone. Keeping this a forward
// declaration preserves the layering (aggregation sits above gossip).
namespace hg::aggregation {
class CapabilityEstimator;
}  // namespace hg::aggregation

namespace hg::gossip {

class FanoutPolicy {
 public:
  virtual ~FanoutPolicy() = default;

  // Number of peers to propose to in this round.
  [[nodiscard]] virtual std::size_t fanout_for_round(Rng& rng) = 0;

  // The current (possibly fractional) target, for introspection/metrics.
  [[nodiscard]] virtual double current_target() const = 0;
};

enum class FanoutRounding {
  kRandomized,  // floor(f)+Bernoulli(frac): exact in expectation (default)
  kFloor,       // biased low — ablation shows the reliability cost
};

// Randomized rounding of a (possibly fractional, possibly non-positive)
// fanout target. Non-positive targets round to 0 instead of wrapping
// size_t; NaN is rejected by the policy constructors before it gets here.
[[nodiscard]] std::size_t round_fanout(double target, FanoutRounding rounding, Rng& rng);

// Standard homogeneous gossip: everyone uses the same fanout. Fractional
// values are honored in expectation via randomized rounding so fanout
// sweeps (Fig. 2) can use non-integer averages too.
class FixedFanout final : public FanoutPolicy {
 public:
  // Asserts on NaN so misconfigured sweeps fail loudly at construction.
  explicit FixedFanout(double fanout);

  std::size_t fanout_for_round(Rng& rng) override {
    return round_fanout(fanout_, FanoutRounding::kRandomized, rng);
  }

  double current_target() const override { return fanout_; }

 private:
  double fanout_;
};

struct AdaptiveFanoutConfig {
  double base_fanout = 7.0;   // the system-wide average f
  double max_fanout = 64.0;   // safety cap (also ablation knob)
  FanoutRounding rounding = FanoutRounding::kRandomized;
};

// HEAP's contribution: fanout proportional to own capability over the
// aggregation protocol's running estimate of the population average.
class AdaptiveFanout final : public FanoutPolicy {
 public:
  // `own_capability` b_p; `estimator` supplies b̄ each round (never null).
  AdaptiveFanout(BitRate own_capability, const aggregation::CapabilityEstimator* estimator,
                 AdaptiveFanoutConfig config);

  std::size_t fanout_for_round(Rng& rng) override;
  [[nodiscard]] double current_target() const override;

 private:
  BitRate own_capability_;
  const aggregation::CapabilityEstimator* estimator_;
  AdaptiveFanoutConfig config_;
};

}  // namespace hg::gossip
