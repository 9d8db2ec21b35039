// Mixed population: a minority of receivers runs fixed-fanout standard
// gossip inside a HEAP deployment — a node factory that picks the mode per
// id. Standard nodes mount no aggregator, so the capability records HEAP
// peers still gossip at them count as unknown-tag datagrams.
//
// The question the scenario answers: does a non-adapting minority free-ride
// on (or drag down) the adapting majority? Compare the two sub-populations'
// stream quality and upload usage below.
//
//   $ ./examples/mixed_population [nodes] [windows] [standard_fraction]
#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "core/heap.hpp"

int main(int argc, char** argv) {
  using namespace hg;

  const std::size_t nodes = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 200;
  const std::uint32_t windows =
      argc > 2 ? static_cast<std::uint32_t>(std::strtoul(argv[2], nullptr, 10)) : 12;
  const double raw_fraction = argc > 3 ? std::strtod(argv[3], nullptr) : 0.25;
  const double standard_fraction = std::clamp(raw_fraction, 0.0, 1.0);
  // Receivers get ids 1..nodes; the first `standard_count` run the
  // fixed-fanout stack, the rest adapt (HEAP). Ids are assigned
  // independently of capability class, so both groups sample the same
  // bandwidth distribution.
  const auto standard_count =
      static_cast<std::uint32_t>(standard_fraction * static_cast<double>(nodes));

  scenario::PopulationPlan population;
  population.node_count = nodes;
  population.distribution = scenario::BandwidthDistribution::ms691();
  population.node.mode = core::Mode::kHeap;

  scenario::StreamPlan stream_plan;
  stream_plan.windows = windows;

  auto deployment =
      scenario::Deployment::Builder{}
          .seed(7)
          .population(population)
          .stream(stream_plan)
          .node_factory([standard_count](sim::Simulator& s, net::NetworkFabric& f,
                                         membership::Directory& dir, NodeId id,
                                         core::NodeConfig cfg) {
            if (id.value() >= 1 && id.value() <= standard_count) {
              cfg.mode = core::Mode::kStandard;
            }
            return core::NodeRuntime::make(s, f, dir, id, cfg);
          })
          .build();

  deployment->start();
  const sim::SimTime run_end =
      stream_plan.start +
      sim::SimTime::sec(stream_plan.stream.window_duration_sec() * windows + 40.0);
  deployment->run_until(run_end);

  std::printf("mixed population on ms-691: %zu receivers, %u standard + %zu HEAP\n\n",
              nodes, standard_count, nodes - standard_count);

  const stream::LagAnalyzer analyzer(deployment->source());
  struct Group {
    std::size_t n = 0;
    double jitter_free = 0;  // sum of per-node jitter-free window share at 10 s
    std::size_t fully_jitter_free = 0;
  };
  Group groups[2];  // [0] standard minority, [1] HEAP majority
  for (std::size_t i = 0; i < deployment->receivers(); ++i) {
    const bool is_standard =
        deployment->node(i).config().mode == core::Mode::kStandard;
    Group& g = groups[is_standard ? 0 : 1];
    ++g.n;
    const double jitter = analyzer.jitter_fraction(deployment->player(i), 10.0);
    g.jitter_free += 1.0 - jitter;
    if (jitter == 0.0) ++g.fully_jitter_free;
  }

  std::printf("  %-18s %7s %22s %22s\n", "sub-population", "nodes", "jitter-free@10s",
              "fully jitter-free");
  const char* names[2] = {"standard minority", "HEAP majority"};
  for (int g = 0; g < 2; ++g) {
    if (groups[g].n == 0) continue;
    std::printf("  %-18s %7zu %21.1f%% %15zu/%zu\n", names[g], groups[g].n,
                100.0 * groups[g].jitter_free / static_cast<double>(groups[g].n),
                groups[g].fully_jitter_free, groups[g].n);
  }

  const core::NodeRuntime& node1 = deployment->node(0);
  std::printf(
      "\nnode 1 (%s): %llu packets played, %llu datagrams dispatched, %llu unknown-tag\n",
      node1.config().mode == core::Mode::kStandard ? "standard" : "HEAP",
      static_cast<unsigned long long>(deployment->player(0).packets_received()),
      static_cast<unsigned long long>(node1.stats().datagrams_dispatched),
      static_cast<unsigned long long>(node1.stats().unknown_tag_datagrams));
  return 0;
}
