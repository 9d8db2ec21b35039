#include "membership/cyclon.hpp"

#include <gtest/gtest.h>

#include <set>

#include "net/fabric.hpp"
#include "sim/sharded_engine.hpp"

namespace hg::membership {
namespace {

struct Swarm {
  sim::ShardedEngine engine;
  sim::Simulator& sim;
  net::NetworkFabric fabric;
  std::vector<std::unique_ptr<CyclonNode>> nodes;

  explicit Swarm(std::size_t n, CyclonConfig cfg = {})
      : engine(99, n, {}),
        sim(engine.sim_of(0)),
        fabric(engine, std::make_unique<net::ConstantLatency>(sim::SimTime::ms(20)),
               std::make_unique<net::NoLoss>()) {
    nodes.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const NodeId id{static_cast<std::uint32_t>(i)};
      auto node = std::make_unique<CyclonNode>(sim, fabric, id, cfg);
      fabric.register_node(id, BitRate::unlimited(),
                           [raw = node.get()](const net::Datagram& d) { raw->on_datagram(d); });
      nodes.push_back(std::move(node));
    }
    // Bootstrap: ring + a few shortcuts, the standard worst-ish case.
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<NodeId> init;
      for (std::size_t k = 1; k <= 5; ++k) {
        init.push_back(NodeId{static_cast<std::uint32_t>((i + k) % n)});
      }
      nodes[i]->bootstrap(init);
      nodes[i]->start();
    }
  }
};

TEST(Cyclon, ViewsFillToCapacity) {
  CyclonConfig cfg;
  cfg.view_size = 10;
  Swarm swarm(50, cfg);
  swarm.sim.run_until(sim::SimTime::sec(30));
  std::size_t full = 0;
  for (const auto& n : swarm.nodes) {
    if (n->view_size() == cfg.view_size) ++full;
  }
  EXPECT_GT(full, 45u);  // nearly all views saturate
}

TEST(Cyclon, NoSelfOrDuplicateEntries) {
  Swarm swarm(30);
  swarm.sim.run_until(sim::SimTime::sec(20));
  for (std::size_t i = 0; i < swarm.nodes.size(); ++i) {
    auto view = swarm.nodes[i]->view_snapshot();
    std::set<NodeId> uniq(view.begin(), view.end());
    EXPECT_EQ(uniq.size(), view.size()) << "duplicates in view of node " << i;
    EXPECT_EQ(uniq.count(NodeId{static_cast<std::uint32_t>(i)}), 0u) << "self in view";
  }
}

TEST(Cyclon, ViewsMixBeyondBootstrapNeighbors) {
  // After shuffling, views must contain nodes far outside the initial ring
  // neighbourhood (i+1..i+5).
  Swarm swarm(100);
  swarm.sim.run_until(sim::SimTime::sec(60));
  int far_entries = 0, total = 0;
  for (std::size_t i = 0; i < swarm.nodes.size(); ++i) {
    for (NodeId id : swarm.nodes[i]->view_snapshot()) {
      const std::size_t dist = (id.value() + 100 - i) % 100;
      if (dist > 10 && dist < 90) ++far_entries;
      ++total;
    }
  }
  EXPECT_GT(static_cast<double>(far_entries) / total, 0.5);
}

TEST(Cyclon, InDegreeStaysBalanced) {
  // Cyclon's hallmark: in-degree (how often a node appears in others' views)
  // concentrates around the view size.
  Swarm swarm(100);
  swarm.sim.run_until(sim::SimTime::sec(60));
  std::vector<int> indegree(100, 0);
  for (const auto& n : swarm.nodes) {
    for (NodeId id : n->view_snapshot()) indegree[id.value()]++;
  }
  int max_in = 0, min_in = 1 << 30;
  for (int d : indegree) {
    max_in = std::max(max_in, d);
    min_in = std::min(min_in, d);
  }
  EXPECT_GT(min_in, 3);
  EXPECT_LT(max_in, 60);
}

TEST(Cyclon, SelectNodesReturnsDistinctPeers) {
  Swarm swarm(30);
  swarm.sim.run_until(sim::SimTime::sec(10));
  Rng rng(1);
  std::vector<NodeId> out;
  swarm.nodes[0]->select_nodes(5, out, rng);
  EXPECT_LE(out.size(), 5u);
  EXPECT_GE(out.size(), 1u);
  std::set<NodeId> uniq(out.begin(), out.end());
  EXPECT_EQ(uniq.size(), out.size());
}

}  // namespace
}  // namespace hg::membership
