// The three-phase dissemination engine as a member of a node's stack
// (core::NodeRuntime routes kPropose / kRequest / kServe datagrams to it).
// Owns the engine's fanout policy: a FixedFanout for standard gossip, an
// AdaptiveFanout over the node's aggregator for HEAP.
#pragma once

#include <memory>

#include "gossip/fanout_policy.hpp"
#include "gossip/three_phase.hpp"

namespace hg::gossip {

class GossipModule {
 public:
  GossipModule(sim::Simulator& simulator, net::NetworkFabric& fabric,
               membership::LocalView& view, NodeId self, GossipConfig config,
               std::unique_ptr<FanoutPolicy> policy)
      : policy_(std::move(policy)), engine_(simulator, fabric, view, self, config, *policy_) {}

  [[nodiscard]] ThreePhaseGossip& engine() { return engine_; }
  [[nodiscard]] const ThreePhaseGossip& engine() const { return engine_; }
  [[nodiscard]] FanoutPolicy& policy() { return *policy_; }
  [[nodiscard]] const FanoutPolicy& policy() const { return *policy_; }

 private:
  std::unique_ptr<FanoutPolicy> policy_;
  ThreePhaseGossip engine_;
};

}  // namespace hg::gossip
