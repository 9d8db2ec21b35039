// Configuration of the three-phase gossip dissemination (paper §2.1, §3.1).
#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace hg::gossip {

struct GossipConfig {
  // Gossip period between [Propose] rounds (paper: 200 ms, which batches
  // ~11.26 packet ids per propose at the 600 kbps stream rate). Must be
  // positive.
  sim::SimTime period = sim::SimTime::ms(200);

  // The system-wide average fanout target f = ln(n) + c (paper: 7 for 270
  // nodes; ln(270) ~= 5.6). Individual per-round fanouts come from the
  // FanoutPolicy, which must preserve this average.
  double base_fanout = 7.0;

  // Retransmission (Algorithm 2): a requested event not served within
  // retransmit_period is re-requested from an alternate proposer.
  sim::SimTime retransmit_period = sim::SimTime::ms(1000);
  int max_retransmits = 8;

  // State horizon: per-event bookkeeping (delivered payloads, proposer
  // lists, requested flags) is garbage-collected once the event's window is
  // this many windows behind the newest seen (40 windows ~= 77 s of stream,
  // beyond the largest lag the paper plots).
  std::uint32_t gc_window_horizon = 40;

  // Stream coding geometry: ids with a packet index at or beyond this are
  // malformed and never materialize state. Drives the slot count of every
  // WindowRing slab; a Deployment sets it from StreamConfig::window_packets()
  // so gossip and stream agree on one indexing scheme.
  std::uint32_t packets_per_window = 110;

  // WindowRing capacities (in windows) derived from the GC horizon.
  //
  // Delivered events live in [gc cutoff, newest window seen] — exactly
  // horizon+1 windows once GC has run, which deliver_event guarantees by
  // advancing the cutoff *before* inserting.
  [[nodiscard]] std::uint32_t delivered_ring_windows() const { return gc_window_horizon + 1; }

  // Requested flags, proposer lists and retransmit timers also exist for
  // events *ahead* of our newest delivery (a proposer is at most one serve
  // round-trip ahead, i.e. well under horizon+1 windows for any sane
  // horizon), so those rings span twice the delivered depth: horizon+1
  // windows of history plus horizon+1 of lead.
  [[nodiscard]] std::uint32_t request_ring_windows() const {
    return 2 * (gc_window_horizon + 1);
  }

  // Serves carry declared payload sizes instead of bytes (see
  // gossip::Event). Must be uniform across the deployment — the flag selects
  // the serve framing both when encoding and when decoding. A Deployment
  // sets it from the stream: every stream without real payloads is virtual.
  bool virtual_payloads = false;

  // Replace the free-running periodic round timer with one-shot rounds armed
  // on the same phase-shifted grid only while ids are pending. Message-
  // for-message identical where enabled, but an idle node schedules no
  // events at all — which is what lets the sharded engine's epoch widening
  // fast-forward over quiescent stretches. Only valid under the sharded
  // P >= 2 engine (keyed delivery ordering makes a grid tick run before
  // same-instant arrivals, matching the periodic timer exactly); one
  // partition keeps the periodic timer and its bitwise-frozen event
  // interleaving. The scenario layer sets this, not users.
  bool park_idle_rounds = false;
};

}  // namespace hg::gossip
