#include "tree/static_tree.hpp"

#include <gtest/gtest.h>

namespace hg::tree {
namespace {

struct TreeHarness {
  sim::ShardedEngine engine;
  sim::Simulator& sim;
  net::NetworkFabric fabric;
  std::vector<std::vector<gossip::EventId>> delivered;
  std::unique_ptr<StaticTree> tree;

  explicit TreeHarness(std::size_t n, std::size_t arity, double loss = 0.0)
      : engine(3, n, {}),
        sim(engine.sim_of(0)),
        fabric(engine, std::make_unique<net::ConstantLatency>(sim::SimTime::ms(10)),
               loss > 0 ? std::unique_ptr<net::LossModel>(
                              std::make_unique<net::BernoulliLoss>(loss))
                        : std::unique_ptr<net::LossModel>(std::make_unique<net::NoLoss>())) {
    delivered.resize(n);
    tree = std::make_unique<StaticTree>(
        sim, fabric, n, arity,
        [this](NodeId node, const gossip::Event& e) {
          delivered[node.value()].push_back(e.id);
        });
    for (std::uint32_t i = 0; i < n; ++i) {
      fabric.register_node(NodeId{i}, BitRate::unlimited(),
                           [this, i](const net::Datagram& d) {
                             tree->on_datagram(NodeId{i}, d);
                           });
    }
  }
};

TEST(StaticTree, ChildrenLayout) {
  TreeHarness h(10, 3);
  const auto c0 = h.tree->children_of(NodeId{0});
  ASSERT_EQ(c0.size(), 3u);
  EXPECT_EQ(c0[0], NodeId{1});
  EXPECT_EQ(c0[2], NodeId{3});
  const auto c2 = h.tree->children_of(NodeId{2});
  ASSERT_EQ(c2.size(), 3u);
  EXPECT_EQ(c2[0], NodeId{7});
  const auto c3 = h.tree->children_of(NodeId{3});
  EXPECT_TRUE(c3.empty());  // 10..12 beyond n
}

TEST(StaticTree, DepthComputation) {
  TreeHarness h(10, 3);
  EXPECT_EQ(h.tree->depth(), 2u);  // 1 + 3 + 9 covers 10
  TreeHarness h2(270, 7);
  EXPECT_EQ(h2.tree->depth(), 3u);  // 1+7+49+343
}

TEST(StaticTree, LosslessDeliversToAll) {
  TreeHarness h(30, 3);
  auto payload = net::BufferRef::copy_of(std::vector<std::uint8_t>(100, 1));
  h.tree->publish(gossip::Event{gossip::EventId{0, 0}, payload});
  h.sim.run_until(sim::SimTime::sec(1));
  for (std::size_t i = 0; i < 30; ++i) {
    EXPECT_EQ(h.delivered[i].size(), 1u) << "node " << i;
  }
}

TEST(StaticTree, LossPrunesSubtrees) {
  // The intro's observation: a static tree with no repair loses whole
  // subtrees per dropped datagram. With 30 nodes, arity 3 and 10% loss,
  // average delivery is well below what gossip+retransmit achieves.
  TreeHarness h(30, 3, /*loss=*/0.10);
  const int kPackets = 200;
  for (int k = 0; k < kPackets; ++k) {
    h.tree->publish(
        gossip::Event{gossip::EventId{0, static_cast<std::uint16_t>(k)}, net::BufferRef{}});
  }
  h.sim.run_until(sim::SimTime::sec(20));
  double total = 0;
  for (std::size_t i = 1; i < 30; ++i) {
    total += static_cast<double>(h.delivered[i].size()) / kPackets;
  }
  const double mean_delivery = total / 29.0;
  // Each node at depth d receives with prob 0.9^d; depths 1..3 dominate.
  EXPECT_LT(mean_delivery, 0.95);
  EXPECT_GT(mean_delivery, 0.60);
  // Leaves do strictly worse than the root's direct children.
  const double shallow = static_cast<double>(h.delivered[1].size()) / kPackets;
  const double deep = static_cast<double>(h.delivered[29].size()) / kPackets;
  EXPECT_GT(shallow, deep);
}

}  // namespace
}  // namespace hg::tree
