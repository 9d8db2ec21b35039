#include "net/latency.hpp"

#include <algorithm>
#include <cmath>

namespace hg::net {

PlanetLabLatency::PlanetLabLatency(PlanetLabLatencyConfig cfg, Rng rng)
    : cfg_(cfg), pair_rng_(std::move(rng)) {}

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
