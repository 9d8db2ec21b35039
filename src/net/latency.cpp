#include "net/latency.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"

namespace hg::net {

PlanetLabLatency::PlanetLabLatency(PlanetLabLatencyConfig cfg, Rng rng)
    : cfg_(cfg), pair_rng_(std::move(rng)) {
  // A negative delay or jitter would schedule deliveries into the past, and
  // max_ms < min_ms breaks std::clamp's precondition in base_for: reject
  // both here, at build time, instead of aborting or misbehaving mid-run.
  HG_ASSERT_MSG(std::isfinite(cfg_.log_mean_ms),
                "PlanetLabLatencyConfig::log_mean_ms must be finite");
  HG_ASSERT_MSG(std::isfinite(cfg_.log_sigma) && cfg_.log_sigma >= 0.0,
                "PlanetLabLatencyConfig::log_sigma must be finite and not negative");
  HG_ASSERT_MSG(std::isfinite(cfg_.min_ms) && cfg_.min_ms >= 0.0,
                "PlanetLabLatencyConfig::min_ms must be finite and not negative");
  HG_ASSERT_MSG(std::isfinite(cfg_.max_ms) && cfg_.max_ms >= cfg_.min_ms,
                "PlanetLabLatencyConfig::max_ms must be finite and not below min_ms");
  HG_ASSERT_MSG(std::isfinite(cfg_.jitter_max_ms) && cfg_.jitter_max_ms >= 0.0,
                "PlanetLabLatencyConfig::jitter_max_ms must be finite and not negative");
}

sim::SimTime PlanetLabLatency::base_for(NodeId src, NodeId dst) const {
  // Symmetric, order-independent pair key: the base is derived from a hash of
  // the pair (not from a shared sequential stream), so the value is identical
  // no matter which protocol queries first — and can be recomputed on every
  // sample instead of cached (see the class comment).
  const std::uint32_t a = std::min(src.value(), dst.value());
  const std::uint32_t b = std::max(src.value(), dst.value());
  const std::uint64_t key = (static_cast<std::uint64_t>(a) << 32) | b;
  Rng pair_stream = pair_rng_.fork(key);
  const double ms = std::clamp(
      std::exp(pair_stream.normal(cfg_.log_mean_ms, cfg_.log_sigma)), cfg_.min_ms,
      cfg_.max_ms);
  return sim::SimTime::us(static_cast<std::int64_t>(ms * 1000.0));
}

sim::SimTime PlanetLabLatency::sample(NodeId src, NodeId dst, Rng& rng) {
  const sim::SimTime jitter =
      sim::SimTime::us(static_cast<std::int64_t>(rng.uniform(0.0, cfg_.jitter_max_ms) * 1000.0));
  return base_for(src, dst) + jitter;
}

}  // namespace hg::net
