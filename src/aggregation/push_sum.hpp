// Push-sum aggregation (Kempe et al. / Jelasity et al. [13]) — extension.
//
// The paper notes "a similar protocol can be used to continuously
// approximate the size of the system [13]". This is that protocol: each
// node holds (sum, weight); every period it splits both in half and pushes
// one half to a random peer. sum/weight converges exponentially to the true
// average at every node. Estimating the system size is the same machinery
// with value 1 at every node and weight 1 at a single initiator.
//
// Compared to the FreshnessAggregator this converges faster per message and
// needs no per-origin state, but is sensitive to message loss (mass leaves
// the system), which is why HEAP's default is the freshness scheme.
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "membership/directory.hpp"
#include "net/fabric.hpp"
#include "net/serde.hpp"
#include "sim/simulator.hpp"

namespace hg::aggregation {

struct PushSumConfig {
  sim::SimTime period = sim::SimTime::ms(200);
};

class PushSumNode {
 public:
  // `initial_sum`: the quantity this node contributes (e.g. capability in
  // bps for averaging, 1.0 for size estimation).
  // `initial_weight`: 1.0 at every node for averaging; for size estimation
  // 1.0 only at the initiator and 0.0 elsewhere (estimates then converge
  // to sum-of-sums / sum-of-weights = n).
  PushSumNode(sim::Simulator& simulator, net::NetworkFabric& fabric,
              membership::LocalView& view, NodeId self, double initial_sum,
              double initial_weight, PushSumConfig config);

  void start();
  void stop();
  void on_datagram(const net::Datagram& d);

  // Current estimate sum/weight; NaN while weight is (near) zero.
  [[nodiscard]] double estimate() const;
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double weight() const { return weight_; }

 private:
  void round();

  sim::Simulator& sim_;
  net::NetworkFabric& fabric_;
  membership::LocalView& view_;
  NodeId self_;
  PushSumConfig config_;
  Rng rng_;
  double sum_;
  double weight_;
  sim::EventHandle timer_;
  std::vector<NodeId> target_scratch_;
};

}  // namespace hg::aggregation
