// One-way network latency models.
//
// The experiment default (PlanetLabLatency) draws a stable per-pair base
// delay from a log-normal distribution (wide-area RTT spreads are heavy
// tailed) plus small per-packet jitter — a standard abstraction of the
// PlanetLab testbed the paper ran on.
#pragma once

#include <cstdint>
#include <memory>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "sim/time.hpp"

namespace hg::net {

class LatencyModel {
 public:
  virtual ~LatencyModel() = default;
  // One-way delay for a datagram src -> dst sent now.
  [[nodiscard]] virtual sim::SimTime sample(NodeId src, NodeId dst, Rng& rng) = 0;
  // A hard lower bound on sample(): the sharded engine uses it as the
  // superstep width (a cross-partition message sent in epoch k must not
  // arrive before epoch k+1 starts). Zero (the conservative default)
  // disables intra-run parallelism for the model.
  [[nodiscard]] virtual sim::SimTime min_delay() const { return sim::SimTime::zero(); }
};

// Fixed delay for every packet (unit tests, analytical checks).
class ConstantLatency final : public LatencyModel {
 public:
  explicit ConstantLatency(sim::SimTime delay) : delay_(delay) {}
  sim::SimTime sample(NodeId, NodeId, Rng&) override { return delay_; }
  [[nodiscard]] sim::SimTime min_delay() const override { return delay_; }

 private:
  sim::SimTime delay_;
};

struct PlanetLabLatencyConfig {
  // exp(N(mu, sigma)) milliseconds, clamped to [min, max].
  double log_mean_ms = 3.6;   // e^3.6 ~= 36 ms median one-way delay
  double log_sigma = 0.55;
  double min_ms = 3.0;
  double max_ms = 400.0;
  double jitter_max_ms = 5.0;  // uniform [0, jitter) added per packet
};

// The per-pair base is a pure function of (root rng, pair key): it is
// re-derived on every sample instead of memoized. A 100k-node run touches
// O(N * fanout * rounds) distinct pairs — a per-pair cache approaches N^2
// entries (gigabytes) while the recomputation is a handful of arithmetic
// ops, so the stateless form is both smaller and not measurably slower.
class PlanetLabLatency final : public LatencyModel {
 public:
  // Asserts every field of cfg is finite, min_ms, jitter_max_ms and
  // log_sigma are not negative, and max_ms is not below min_ms.
  PlanetLabLatency(PlanetLabLatencyConfig cfg, Rng rng);
  sim::SimTime sample(NodeId src, NodeId dst, Rng& rng) override;
  // Bases are clamped to min_ms and jitter is non-negative.
  [[nodiscard]] sim::SimTime min_delay() const override {
    return sim::SimTime::us(static_cast<std::int64_t>(cfg_.min_ms * 1000.0));
  }

 private:
  [[nodiscard]] sim::SimTime base_for(NodeId src, NodeId dst) const;

  PlanetLabLatencyConfig cfg_;
  Rng pair_rng_;  // root of the per-pair base streams, keyed deterministically
};

}  // namespace hg::net
