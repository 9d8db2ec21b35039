// Aggregation substrate demo: the paper's freshness gossip (Algorithm 2)
// converging on the average upload capability of a heterogeneous swarm,
// and the fanout each class would get from Equation 1.
//
//   $ ./examples/capability_aggregation
#include <cmath>
#include <cstdio>

#include "core/heap.hpp"

int main() {
  using namespace hg;

  constexpr std::size_t kNodes = 200;
  // One partition: the sequential event loop on this thread.
  sim::ShardedEngine engine(7, kNodes, {});
  sim::Simulator& sim = engine.sim_of(0);
  net::NetworkFabric fabric(engine,
                            std::make_unique<net::PlanetLabLatency>(
                                net::PlanetLabLatencyConfig{}, sim.make_rng(1)),
                            net::FabricConfig{.loss_rate = 0.01});
  membership::Directory directory(engine, membership::DetectionConfig{});

  Rng assign_rng = sim.make_rng(2);
  const auto dist = scenario::BandwidthDistribution::ms691();
  const auto assignment = dist.assign(kNodes, assign_rng);

  std::vector<std::unique_ptr<membership::LocalView>> views;
  std::vector<std::unique_ptr<aggregation::FreshnessAggregator>> fresh;

  for (std::uint32_t i = 0; i < kNodes; ++i) directory.add_node(NodeId{i});
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    const NodeId id{i};
    views.push_back(directory.make_view(id));
    fresh.push_back(std::make_unique<aggregation::FreshnessAggregator>(
        sim, fabric, *views.back(), id, assignment[i].capability,
        aggregation::AggregationConfig{}));
    fabric.register_node(id, BitRate::unlimited(),
                         [f = fresh.back().get()](const net::Datagram& d) { f->on_datagram(d); });
  }
  for (auto& f : fresh) f->start();

  const double truth = dist.average_kbps() * 1000.0;
  std::printf("true average capability: %.0f kbps (ms-691, %zu nodes)\n\n",
              truth / 1000.0, kNodes);
  std::printf("%8s | %22s\n", "t (s)", "freshness mean err");

  for (double t : {0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0}) {
    sim.run_until(sim::SimTime::sec(t));
    double err = 0;
    for (const auto& f : fresh) err += std::abs(f->average_capability_bps() - truth) / truth;
    std::printf("%8.1f | %21.2f%%\n", t, 100.0 * err / kNodes);
  }

  std::printf("\nEquation 1 fanouts (f = 7) after convergence:\n");
  for (const auto& cls : dist.classes()) {
    const double fanout = 7.0 * cls.capability.kbits_per_sec() / dist.average_kbps();
    std::printf("  %-8s -> fanout %.2f\n", cls.name.c_str(), fanout);
  }
  std::printf("  population average stays 7 — the ln(n)+c reliability threshold.\n");
  return 0;
}
