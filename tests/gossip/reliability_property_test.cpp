// Property sweep: gossip reliability as a function of fanout (the [15]
// threshold result HEAP leans on). Below ln(n) dissemination leaves gaps;
// at ln(n)+c it reaches everyone w.h.p. — regardless of whether the fanout
// is homogeneous (standard) or heterogeneous with the same average (HEAP's
// degrees of freedom).
#include <gtest/gtest.h>

#include "gossip/fanout_policy.hpp"
#include "gossip/three_phase.hpp"

namespace hg::gossip {
namespace {

struct SweepParam {
  std::size_t nodes;
  double fanout;
  bool expect_full;  // complete dissemination expected (w.h.p.)
};

class ReliabilitySweep : public ::testing::TestWithParam<SweepParam> {};

double run_delivery_fraction(std::size_t n, double fanout, std::uint64_t seed,
                             bool heterogeneous = false) {
  sim::ShardedEngine engine(seed, n, {});
  sim::Simulator& sim = engine.sim_of(0);
  net::NetworkFabric fabric(engine, std::make_unique<net::ConstantLatency>(sim::SimTime::ms(10)));
  membership::Directory directory(engine, membership::DetectionConfig{});
  std::vector<std::unique_ptr<membership::LocalView>> views;
  std::vector<std::unique_ptr<FixedFanout>> policies;
  std::vector<std::unique_ptr<ThreePhaseGossip>> nodes;
  std::vector<int> got(n, 0);

  Rng het_rng(seed ^ 0x1234);
  for (std::uint32_t i = 0; i < n; ++i) directory.add_node(NodeId{i});
  for (std::uint32_t i = 0; i < n; ++i) {
    views.push_back(directory.make_view(NodeId{i}));
    // Heterogeneous: fanouts drawn in [fanout/2, 3*fanout/2], mean = fanout —
    // the shape HEAP produces (same average, different spread).
    const double f = heterogeneous ? het_rng.uniform(fanout * 0.5, fanout * 1.5) : fanout;
    policies.push_back(std::make_unique<FixedFanout>(f));
    GossipConfig cfg;
    cfg.max_retransmits = 0;  // isolate pure epidemic reach
    nodes.push_back(std::make_unique<ThreePhaseGossip>(sim, fabric, *views.back(),
                                                       NodeId{i}, cfg, *policies.back()));
    nodes.back()->set_deliver([&got, i](const Event&) { got[i] = 1; });
    fabric.register_node(NodeId{i}, BitRate::unlimited(),
                         [g = nodes.back().get()](const net::Datagram& d) {
                           g->on_datagram(d);
                         });
  }
  for (auto& g : nodes) g->start();
  nodes[0]->publish(
      Event{EventId{0, 0}, net::BufferRef::copy_of(std::vector<std::uint8_t>(16, 1))});
  sim.run_until(sim::SimTime::sec(20));
  double total = 0;
  for (int v : got) total += v;
  return total / static_cast<double>(n);
}

TEST_P(ReliabilitySweep, DeliveryMatchesThreshold) {
  const auto [n, fanout, expect_full] = GetParam();
  // Average over several seeds: epidemics are probabilistic.
  double mean = 0;
  int full_runs = 0;
  constexpr int kSeeds = 5;
  for (int s = 0; s < kSeeds; ++s) {
    const double frac = run_delivery_fraction(n, fanout, 100 + s);
    mean += frac;
    full_runs += (frac == 1.0);
  }
  mean /= kSeeds;
  if (expect_full) {
    EXPECT_GE(full_runs, kSeeds - 1) << "fanout " << fanout << " n " << n;
    EXPECT_GT(mean, 0.995);
  } else {
    EXPECT_LT(full_runs, kSeeds) << "sub-threshold fanout should miss nodes sometimes";
  }
}

INSTANTIATE_TEST_SUITE_P(
    FanoutThreshold, ReliabilitySweep,
    ::testing::Values(SweepParam{100, 1.5, false},   // far below ln(100)=4.6
                      SweepParam{100, 3.0, false},   // below threshold
                      SweepParam{100, 7.0, true},    // ln(n)+c
                      SweepParam{100, 10.0, true},
                      SweepParam{270, 2.0, false},
                      SweepParam{270, 7.0, true},    // the paper's setting
                      SweepParam{270, 9.0, true}),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      std::string name = "n";
      name += std::to_string(info.param.nodes);
      name += "_f";
      name += std::to_string(static_cast<int>(info.param.fanout * 10));
      return name;
    });

TEST(ReliabilityHeterogeneous, SameAverageFanoutSameReach) {
  // [15]: reliability depends on the *average* fanout, not its distribution
  // — the theoretical license for HEAP's adaptation. Heterogeneous fanouts
  // with mean 7 must reach everyone just like homogeneous 7.
  int full = 0;
  constexpr int kSeeds = 5;
  for (int s = 0; s < kSeeds; ++s) {
    full += (run_delivery_fraction(150, 7.0, 500 + s, /*heterogeneous=*/true) == 1.0);
  }
  EXPECT_GE(full, kSeeds - 1);
}

}  // namespace
}  // namespace hg::gossip
