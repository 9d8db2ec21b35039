// The freshness-based capability aggregation as a member of a HEAP node's
// stack (core::NodeRuntime routes kAggregation datagrams to it). The wrapped
// aggregator doubles as the CapabilityEstimator the node's AdaptiveFanout
// reads b̄ from, so the runtime builds this module before the policy.
#pragma once

#include "aggregation/freshness_aggregator.hpp"

namespace hg::aggregation {

class AggregationModule {
 public:
  AggregationModule(sim::Simulator& simulator, net::NetworkFabric& fabric,
                    membership::LocalView& view, NodeId self, BitRate own_capability,
                    AggregationConfig config)
      : aggregator_(simulator, fabric, view, self, own_capability, config) {}

  [[nodiscard]] FreshnessAggregator& aggregator() { return aggregator_; }
  [[nodiscard]] const FreshnessAggregator& aggregator() const { return aggregator_; }

 private:
  FreshnessAggregator aggregator_;
};

}  // namespace hg::aggregation
