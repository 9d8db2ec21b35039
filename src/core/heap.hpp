// Public umbrella header for the heapgossip library.
//
// Quick tour (see examples/quickstart.cpp for a runnable version):
//
//   hg::scenario::ExperimentConfig cfg;
//   cfg.node_count   = 270;
//   cfg.mode         = hg::core::Mode::kHeap;      // or kStandard
//   cfg.distribution = hg::scenario::BandwidthDistribution::ms691();
//   hg::scenario::Experiment exp(cfg);
//   exp.run();
//   auto lag = hg::scenario::jitter_free_lags(exp, /*max_jitter=*/0.0);
//
// Nodes are protocol stacks: a core::NodeRuntime routes datagrams by tag to
// the protocol modules mounted on it, and applications observe the stack
// through its typed signal bus. NodeRuntime::heap / ::standard are the
// paper's two presets; custom stacks mount any mix of modules.
//
// Layers, bottom to top:
//   sim          deterministic discrete-event kernel
//   net          serialization, latency/loss, upload-rate limiting, fabric
//   membership   full-view directory with crash detection delays
//   fec          GF(256) systematic Reed-Solomon windows
//   gossip       three-phase propose/request/serve dissemination
//   aggregation  capability averaging by freshness gossip
//   core         NodeRuntime + Protocol: tag-routed module composition
//   stream       source, player, lag/jitter analysis
//   scenario     experiment runner + paper report builders
#pragma once

#include "aggregation/aggregation_module.hpp"
#include "aggregation/freshness_aggregator.hpp"
#include "core/node_runtime.hpp"
#include "core/protocol.hpp"
#include "core/signal.hpp"
#include "fec/window_codec.hpp"
#include "gossip/fanout_policy.hpp"
#include "gossip/gossip_module.hpp"
#include "gossip/three_phase.hpp"
#include "membership/directory.hpp"
#include "net/fabric.hpp"
#include "scenario/deployment.hpp"
#include "scenario/distribution.hpp"
#include "scenario/experiment.hpp"
#include "scenario/report.hpp"
#include "sim/simulator.hpp"
#include "stream/fec_module.hpp"
#include "stream/lag_analyzer.hpp"
#include "stream/player.hpp"
#include "stream/player_module.hpp"
#include "stream/source.hpp"
