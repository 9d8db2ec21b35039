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
// Every node is one fixed stack, a core::NodeRuntime: three-phase gossip,
// plus capability aggregation driving the Eq. 1 adaptive fanout when
// NodeConfig::mode is kHeap, plus a player (and, with real payloads, an
// online FEC decoder) on receivers. The runtime routes datagrams to them by
// tag in one switch, and a delivery reaches the player and the decoder by
// direct call.
//
// Layers, bottom to top:
//   sim          deterministic discrete-event kernel
//   net          serialization, latency/loss, upload-rate limiting, fabric
//   membership   full-view directory with crash detection delays
//   fec          GF(256) systematic Reed-Solomon windows
//   gossip       three-phase propose/request/serve dissemination
//   aggregation  capability averaging by freshness gossip
//   stream       source, player, FEC decoder, lag/jitter analysis
//   core         NodeRuntime: the fixed per-node stack and its tag switch
//   scenario     experiment runner + paper report builders
#pragma once

#include "aggregation/aggregation_module.hpp"
#include "aggregation/freshness_aggregator.hpp"
#include "core/node_runtime.hpp"
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
#include "stream/source.hpp"
