// Cyclon-style peer-sampling service (extension).
//
// The paper assumes full membership knowledge; real gossip deployments run a
// peer-sampling protocol underneath. This is a faithful Cyclon: periodic
// age-based shuffles of half the partial view with the oldest neighbour,
// giving each node a continuously refreshed, near-uniform random sample.
// The dissemination layer can select peers from this instead of a full view
// (tests verify near-uniform selection and self-healing after churn).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "net/fabric.hpp"
#include "sim/simulator.hpp"

namespace hg::membership {

struct CyclonConfig {
  std::size_t view_size = 20;
  std::size_t shuffle_len = 8;   // entries exchanged per shuffle
  sim::SimTime period = sim::SimTime::ms(1000);
};

class CyclonNode {
 public:
  CyclonNode(sim::Simulator& simulator, net::NetworkFabric& fabric, NodeId self,
             CyclonConfig config);

  // Seeds the initial view (e.g., from a bootstrap list).
  void bootstrap(const std::vector<NodeId>& initial);

  // Starts the periodic shuffle.
  void start();
  void stop();

  // Handles an incoming kCyclonRequest / kCyclonReply datagram addressed to
  // this node.
  void on_datagram(const net::Datagram& d);

  // Uniform-ish selection of up to k distinct peers from the current view.
  void select_nodes(std::size_t k, std::vector<NodeId>& out, Rng& rng);

  [[nodiscard]] const std::vector<NodeId> view_snapshot() const;
  [[nodiscard]] std::size_t view_size() const { return view_.size(); }

 private:
  struct Entry {
    NodeId id;
    std::uint16_t age = 0;
  };

  void shuffle_round();
  void merge(const std::vector<Entry>& incoming, const std::vector<NodeId>& sent);
  [[nodiscard]] net::BufferRef encode(bool is_reply,
                                      const std::vector<Entry>& entries) const;

  sim::Simulator& sim_;
  net::NetworkFabric& fabric_;
  NodeId self_;
  CyclonConfig config_;
  std::vector<Entry> view_;
  std::vector<NodeId> last_sent_;  // entries offered in the in-flight shuffle
  sim::EventHandle timer_;
  Rng rng_;
};

}  // namespace hg::membership
