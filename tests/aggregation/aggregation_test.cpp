#include <gtest/gtest.h>

#include <cmath>

#include "aggregation/freshness_aggregator.hpp"
#include "aggregation/push_sum.hpp"

namespace hg::aggregation {
namespace {

struct AggSwarm {
  sim::ShardedEngine engine;
  sim::Simulator& sim;
  net::NetworkFabric fabric;
  membership::Directory directory;
  std::vector<std::unique_ptr<membership::LocalView>> views;
  std::vector<std::unique_ptr<FreshnessAggregator>> aggs;

  AggSwarm(const std::vector<double>& capabilities_kbps, AggregationConfig cfg = {},
           std::uint64_t seed = 5)
      : engine(seed, capabilities_kbps.size(), {}),
        sim(engine.sim_of(0)),
        fabric(engine, std::make_unique<net::ConstantLatency>(sim::SimTime::ms(20)),
               std::make_unique<net::NoLoss>()),
        directory(engine, membership::DetectionConfig{}) {
    const auto n = capabilities_kbps.size();
    for (std::uint32_t i = 0; i < n; ++i) directory.add_node(NodeId{i});
    for (std::uint32_t i = 0; i < n; ++i) {
      const NodeId id{i};
      views.push_back(directory.make_view(id));
      aggs.push_back(std::make_unique<FreshnessAggregator>(
          sim, fabric, *views.back(), id, BitRate::kbps(capabilities_kbps[i]), cfg));
      fabric.register_node(id, BitRate::unlimited(),
                           [a = aggs.back().get()](const net::Datagram& d) {
                             a->on_datagram(d);
                           });
    }
    for (auto& a : aggs) a->start();
  }
};

std::vector<double> ms691_like(std::size_t n) {
  // 5% 3072, 10% 1024, 85% 512 (paper ms-691).
  std::vector<double> caps;
  for (std::size_t i = 0; i < n; ++i) {
    if (i < n / 20) {
      caps.push_back(3072);
    } else if (i < n / 20 + n / 10) {
      caps.push_back(1024);
    } else {
      caps.push_back(512);
    }
  }
  return caps;
}

TEST(FreshnessAggregator, ColdStartReportsOwnCapability) {
  AggSwarm s({512, 1024, 2048});
  EXPECT_DOUBLE_EQ(s.aggs[0]->average_capability_bps(), 512'000.0);
  EXPECT_DOUBLE_EQ(s.aggs[2]->average_capability_bps(), 2'048'000.0);
}

TEST(FreshnessAggregator, ConvergesToTrueAverage) {
  const auto caps = ms691_like(100);
  double truth = 0;
  for (double c : caps) truth += c * 1000.0;
  truth /= static_cast<double>(caps.size());

  AggSwarm s(caps);
  s.sim.run_until(sim::SimTime::sec(20));
  for (const auto& a : s.aggs) {
    EXPECT_NEAR(a->average_capability_bps(), truth, truth * 0.10);
  }
}

TEST(FreshnessAggregator, EstimateErrorShrinksOverTime) {
  const auto caps = ms691_like(100);
  double truth = 0;
  for (double c : caps) truth += c * 1000.0;
  truth /= static_cast<double>(caps.size());

  AggSwarm s(caps);
  auto mean_err = [&]() {
    double err = 0;
    for (const auto& a : s.aggs) {
      err += std::abs(a->average_capability_bps() - truth) / truth;
    }
    return err / static_cast<double>(s.aggs.size());
  };
  s.sim.run_until(sim::SimTime::sec(1));
  const double early = mean_err();
  s.sim.run_until(sim::SimTime::sec(30));
  const double late = mean_err();
  EXPECT_LT(late, early);
  EXPECT_LT(late, 0.05);
}

TEST(FreshnessAggregator, TracksCapabilityChange) {
  AggSwarm s({1000, 1000, 1000, 1000});
  s.sim.run_until(sim::SimTime::sec(10));
  EXPECT_NEAR(s.aggs[0]->average_capability_bps(), 1'000'000, 1);
  // Node 3 drops to 200 kbps; the estimate must follow.
  s.aggs[3]->set_own_capability(BitRate::kbps(200));
  s.sim.run_until(sim::SimTime::sec(40));
  const double expect = (3 * 1'000'000.0 + 200'000.0) / 4.0;
  for (const auto& a : s.aggs) {
    EXPECT_NEAR(a->average_capability_bps(), expect, expect * 0.05);
  }
}

TEST(FreshnessAggregator, ExpiryForgetsCrashedNodes) {
  AggregationConfig cfg;
  cfg.record_expiry = sim::SimTime::sec(5);
  AggSwarm s({400, 400, 400, 4000}, cfg);
  s.sim.run_until(sim::SimTime::sec(10));
  // All nodes should see avg = (3*400+4000)/4 = 1300 kbps.
  EXPECT_NEAR(s.aggs[0]->average_capability_bps(), 1'300'000, 1'300'000 * 0.05);

  // Crash the rich node: stop its gossip and its reception.
  s.aggs[3]->stop();
  s.fabric.kill(NodeId{3});
  s.directory.kill(NodeId{3});
  s.sim.run_until(sim::SimTime::sec(40));
  // Its record expired everywhere: estimate returns to 400 kbps.
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(s.aggs[i]->average_capability_bps(), 400'000, 400'000 * 0.05) << i;
  }
}

TEST(FreshnessAggregator, GossipCostIsMarginal) {
  AggSwarm s(ms691_like(50));
  s.sim.run_until(sim::SimTime::sec(10));
  // Paper: "costing around 1 KB/s ... completely marginal".
  for (std::uint32_t i = 0; i < 50; ++i) {
    const auto& meter = s.fabric.meter(NodeId{i});
    const double bytes_per_sec =
        static_cast<double>(meter.sent(net::MsgClass::kAggregation).bytes) / 10.0;
    EXPECT_LT(bytes_per_sec, 1500.0) << i;
  }
}

TEST(PushSum, ConvergesToAverage) {
  const std::size_t n = 64;
  sim::ShardedEngine engine(9, n, {});
  sim::Simulator& sim = engine.sim_of(0);
  net::NetworkFabric fabric(engine, std::make_unique<net::ConstantLatency>(sim::SimTime::ms(10)),
                            std::make_unique<net::NoLoss>());
  membership::Directory dir(engine, membership::DetectionConfig{});
  std::vector<std::unique_ptr<membership::LocalView>> views;
  std::vector<std::unique_ptr<PushSumNode>> nodes;
  double truth = 0;
  for (std::uint32_t i = 0; i < n; ++i) dir.add_node(NodeId{i});
  for (std::uint32_t i = 0; i < n; ++i) {
    const double value = 100.0 + i;  // average = 131.5 (sum arg, weight 1)
    truth += value;
    views.push_back(dir.make_view(NodeId{i}));
    nodes.push_back(std::make_unique<PushSumNode>(sim, fabric, *views.back(), NodeId{i},
                                                  value, 1.0, PushSumConfig{}));
    fabric.register_node(NodeId{i}, BitRate::unlimited(),
                         [p = nodes.back().get()](const net::Datagram& d) {
                           p->on_datagram(d);
                         });
  }
  truth /= static_cast<double>(n);
  for (auto& p : nodes) p->start();
  sim.run_until(sim::SimTime::sec(10));
  for (const auto& p : nodes) {
    EXPECT_NEAR(p->estimate(), truth, truth * 0.02);
  }
}

TEST(PushSum, MassConservation) {
  // Sum of (sum, weight) over all nodes is invariant without loss.
  const std::size_t n = 16;
  sim::ShardedEngine engine(10, n, {});
  sim::Simulator& sim = engine.sim_of(0);
  net::NetworkFabric fabric(engine, std::make_unique<net::ConstantLatency>(sim::SimTime::ms(5)),
                            std::make_unique<net::NoLoss>());
  membership::Directory dir(engine, membership::DetectionConfig{});
  std::vector<std::unique_ptr<membership::LocalView>> views;
  std::vector<std::unique_ptr<PushSumNode>> nodes;
  for (std::uint32_t i = 0; i < n; ++i) dir.add_node(NodeId{i});
  for (std::uint32_t i = 0; i < n; ++i) {
    views.push_back(dir.make_view(NodeId{i}));
    nodes.push_back(std::make_unique<PushSumNode>(sim, fabric, *views.back(), NodeId{i},
                                                  static_cast<double>(i), 1.0,
                                                  PushSumConfig{}));
    fabric.register_node(NodeId{i}, BitRate::unlimited(),
                         [p = nodes.back().get()](const net::Datagram& d) {
                           p->on_datagram(d);
                         });
  }
  for (auto& p : nodes) p->start();
  // Run to a quiescent instant: drain all in-flight messages by running
  // until shortly after a period boundary and summing.
  sim.run_until(sim::SimTime::sec(7.777));
  double sum = 0, weight = 0;
  for (const auto& p : nodes) {
    sum += p->sum();
    weight += p->weight();
  }
  // In-flight mass makes this approximate at any instant; with 16 nodes and
  // 200 ms periods the in-flight share is small.
  EXPECT_NEAR(weight, static_cast<double>(n), 2.0);
  EXPECT_NEAR(sum / weight, (0.0 + 15.0) / 2.0, 1.5);
}

TEST(PushSum, SizeEstimation) {
  // value=1 everywhere, weight=1 only at node 0: estimate -> n at node 0.
  const std::size_t n = 32;
  sim::ShardedEngine engine(11, n, {});
  sim::Simulator& sim = engine.sim_of(0);
  net::NetworkFabric fabric(engine, std::make_unique<net::ConstantLatency>(sim::SimTime::ms(5)),
                            std::make_unique<net::NoLoss>());
  membership::Directory dir(engine, membership::DetectionConfig{});
  std::vector<std::unique_ptr<membership::LocalView>> views;
  std::vector<std::unique_ptr<PushSumNode>> nodes;
  for (std::uint32_t i = 0; i < n; ++i) dir.add_node(NodeId{i});
  for (std::uint32_t i = 0; i < n; ++i) {
    views.push_back(dir.make_view(NodeId{i}));
    nodes.push_back(std::make_unique<PushSumNode>(sim, fabric, *views.back(), NodeId{i},
                                                  1.0, i == 0 ? 1.0 : 0.0, PushSumConfig{}));
    fabric.register_node(NodeId{i}, BitRate::unlimited(),
                         [p = nodes.back().get()](const net::Datagram& d) {
                           p->on_datagram(d);
                         });
  }
  for (auto& p : nodes) p->start();
  sim.run_until(sim::SimTime::sec(15));
  // 1/estimate-of-(1/n)... here estimate = sum/weight = n directly.
  double est_sum = 0;
  std::size_t est_count = 0;
  for (const auto& p : nodes) {
    if (!std::isnan(p->estimate())) {
      est_sum += p->estimate();
      ++est_count;
    }
  }
  ASSERT_GT(est_count, n / 2);
  EXPECT_NEAR(est_sum / static_cast<double>(est_count), static_cast<double>(n),
              static_cast<double>(n) * 0.15);
}

}  // namespace
}  // namespace hg::aggregation
