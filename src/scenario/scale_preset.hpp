// ScalePreset: tuned ExperimentConfig bundles for 10k-100k+ node runs.
//
// The paper's experiments top out at ~700 PlanetLab nodes; the phenomena
// HEAP is about (capability-class stratification, freerider impact, churn
// waves) only become statistically crisp at much larger N. On top of the
// default virtual payloads (serves carry declared sizes, not bytes), this
// preset flips every large-N switch the engine grew for that purpose:
//
//   * lean players      — seen-bitmaps + per-window decode times instead of
//                         per-packet arrival timestamps
//   * tight gc horizon  — sizes the gossip rings to 5 delivered and 10
//                         requested windows. At the preset's 4 windows the
//                         newest window index (3) never reaches the horizon
//                         (4), so nothing is ever collected. No example,
//                         perfbench workload or quick-scale bench streams
//                         past its horizon, so none of them runs the
//                         collection in ThreePhaseGossip::gc.
//   * capped aggregation— the b̄ estimate runs on a bounded record table
//                         (the uncapped table converges on O(N) per node)
//   * ln(N) + c fanout  — the reliability threshold scales with N
//
// Streams are short (a few FEC windows): scale runs measure the engine and
// the class-stratified lag/jitter distributions, not long-haul playback.
#pragma once

#include <cstddef>
#include <cstdint>

#include "scenario/experiment.hpp"

namespace hg::scenario {

struct ScalePreset {
  // `nodes` receivers at the given mode, ref-691 capability distribution.
  [[nodiscard]] static ExperimentConfig config(std::size_t nodes,
                                               core::Mode mode = core::Mode::kHeap,
                                               std::uint64_t seed = 2009);
};

}  // namespace hg::scenario
