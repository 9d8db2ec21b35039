// Aggregation substrate demo: the two estimators HEAP can run —
// the paper's freshness gossip (Algorithm 2) and classic push-sum [13] —
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
                            std::make_unique<net::BernoulliLoss>(0.01));
  membership::Directory directory(engine, membership::DetectionConfig{});

  Rng assign_rng = sim.make_rng(2);
  const auto dist = scenario::BandwidthDistribution::ms691();
  const auto assignment = dist.assign(kNodes, assign_rng);

  std::vector<std::unique_ptr<membership::LocalView>> views;
  std::vector<std::unique_ptr<aggregation::FreshnessAggregator>> fresh;
  std::vector<std::unique_ptr<aggregation::PushSumNode>> pushsum;

  for (std::uint32_t i = 0; i < kNodes; ++i) directory.add_node(NodeId{i});
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    const NodeId id{i};
    views.push_back(directory.make_view(id));
    fresh.push_back(std::make_unique<aggregation::FreshnessAggregator>(
        sim, fabric, *views.back(), id, assignment[i].capability,
        aggregation::AggregationConfig{}));
    pushsum.push_back(std::make_unique<aggregation::PushSumNode>(
        sim, fabric, *views.back(), id,
        static_cast<double>(assignment[i].capability.bits_per_sec()), 1.0,
        aggregation::PushSumConfig{}));
    fabric.register_node(id, BitRate::unlimited(),
                         [f = fresh.back().get(), p = pushsum.back().get()](
                             const net::Datagram& d) {
                           // Both protocols share the node's port; dispatch by
                           // first byte (push-sum uses its private 0xf5 tag).
                           if (!d.bytes.empty() && d.bytes.data()[0] == 0xf5) {
                             p->on_datagram(d);
                           } else {
                             f->on_datagram(d);
                           }
                         });
  }
  for (auto& f : fresh) f->start();
  for (auto& p : pushsum) p->start();

  const double truth = dist.average_kbps() * 1000.0;
  std::printf("true average capability: %.0f kbps (ms-691, %zu nodes)\n\n",
              truth / 1000.0, kNodes);
  std::printf("%8s | %22s | %22s\n", "t (s)", "freshness mean err", "push-sum mean err");

  for (double t : {0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0}) {
    sim.run_until(sim::SimTime::sec(t));
    double err_f = 0, err_p = 0;
    for (std::size_t i = 0; i < kNodes; ++i) {
      err_f += std::abs(fresh[i]->average_capability_bps() - truth) / truth;
      const double e = pushsum[i]->estimate();
      err_p += std::isnan(e) ? 1.0 : std::abs(e - truth) / truth;
    }
    std::printf("%8.1f | %21.2f%% | %21.2f%%\n", t, 100.0 * err_f / kNodes,
                100.0 * err_p / kNodes);
  }

  std::printf("\nEquation 1 fanouts (f = 7) after convergence:\n");
  for (const auto& cls : dist.classes()) {
    const double fanout = 7.0 * cls.capability.kbits_per_sec() / dist.average_kbps();
    std::printf("  %-8s -> fanout %.2f\n", cls.name.c_str(), fanout);
  }
  std::printf("  population average stays 7 — the ln(n)+c reliability threshold.\n");
  return 0;
}
