#include "gossip/three_phase.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace hg::gossip {

ThreePhaseGossip::ThreePhaseGossip(sim::Simulator& simulator, net::NetworkFabric& fabric,
                                   membership::LocalView& view, NodeId self,
                                   GossipConfig config, FanoutPolicy& policy)
    : sim_(simulator),
      fabric_(fabric),
      view_(view),
      self_(self),
      config_(config),
      policy_(policy),
      rng_(simulator.make_rng(0x474f5353ULL ^ (std::uint64_t{self.value()} << 24))),
      delivered_(RingGeometry{config.delivered_ring_windows(), config.packets_per_window}),
      requested_(RingGeometry{config.request_ring_windows(), config.packets_per_window}),
      proposers_(RingGeometry{config.request_ring_windows(), config.packets_per_window}),
      retransmit_(simulator, config.retransmit_period, config.max_retransmits,
                  [this](EventId id, int retry) { on_retransmit_fire(id, retry); },
                  RingGeometry{config.request_ring_windows(), config.packets_per_window}) {
  HG_ASSERT_MSG(config_.period > sim::SimTime::zero(), "GossipConfig::period must be positive");
}

void ThreePhaseGossip::start() {
  // Random phase: nodes must not propose in lockstep. Drawn identically in
  // both round modes so the node's RNG stream is mode-independent.
  const auto phase = sim::SimTime::us(static_cast<std::int64_t>(
      rng_.below(static_cast<std::uint64_t>(config_.period.as_us()))));
  if (config_.park_idle_rounds) {
    round_anchor_ = sim_.now() + phase;
    started_ = true;
    // Ids delivered before start wait for the first grid instant, exactly
    // like the periodic timer's first tick.
    if (!to_propose_.empty()) {
      round_event_ = sim_.at(round_anchor_, [this]() { gossip_round(); });
    }
    return;
  }
  timer_ = sim_.every(phase, config_.period, [this]() { gossip_round(); });
}

void ThreePhaseGossip::stop() {
  timer_.cancel();
  round_event_.cancel();
  started_ = false;
}

void ThreePhaseGossip::arm_round() {
  if (round_event_.pending()) return;
  // Next grid instant strictly after now: keyed delivery ordering runs a
  // grid tick before any same-instant arrival, so an id delivered exactly on
  // the grid belongs to the *next* round — same rule the periodic timer
  // enforces.
  const std::int64_t period = config_.period.as_us();
  const std::int64_t now = sim_.now().as_us();
  const std::int64_t anchor = round_anchor_.as_us();
  const std::int64_t k = now >= anchor ? (now - anchor) / period + 1 : 0;
  round_event_ = sim_.at(sim::SimTime::us(anchor + k * period), [this]() { gossip_round(); });
}

void ThreePhaseGossip::publish(Event event) {
  const EventId id = event.id;
  deliver_event(std::move(event));
  // Algorithm 1 line 5: the source gossips {e.id} right away (relaying
  // nodes batch per period, line 6)...
  gossip_ids({id});
  // ...and must not re-propose it in the next periodic round.
  to_propose_.erase(std::remove(to_propose_.begin(), to_propose_.end(), id),
                    to_propose_.end());
}

void ThreePhaseGossip::gossip_round() {
  ++stats_.rounds;
  if (to_propose_.empty()) return;
  gossip_ids(to_propose_);
  to_propose_.clear();  // infect and die
}

void ThreePhaseGossip::gossip_ids(const std::vector<EventId>& ids) {
  if (ids.empty()) return;
  const std::size_t fanout = policy_.fanout_for_round(rng_);
  if (fanout == 0) return;
  view_.select_nodes(fanout, targets_scratch_, rng_);
  if (targets_scratch_.empty()) return;
  // Encode once; the buffer is shared across all targets.
  const auto bytes = encode_propose(self_, ids);
  for (NodeId target : targets_scratch_) {
    fabric_.send(self_, target, net::MsgClass::kPropose, bytes);
    ++stats_.proposes_sent;
    stats_.ids_proposed += ids.size();
  }
}

void ThreePhaseGossip::on_datagram(const net::Datagram& d) {
  // Requests and serves answer the message's sender field, and every honest
  // encoder writes its own id there. A sender other than the datagram's
  // source is forged: it could name a node that does not exist, or this one.
  const auto tag = peek_tag(d.bytes);
  if (tag == MsgTag::kPropose) {
    if (auto m = decode_propose(d.bytes); m && m->sender == d.src) {
      on_propose(*m);
      return;
    }
  } else if (tag == MsgTag::kRequest) {
    if (auto m = decode_request(d.bytes); m && m->sender == d.src) {
      on_request(*m);
      return;
    }
  } else if (tag == MsgTag::kServe) {
    // Zero copy: the decoded payload is the datagram's body chunk.
    if (auto m = decode_serve(d.bytes, d.body, config_.virtual_payloads);
        m && m->sender == d.src) {
      on_serve(*m);
      return;
    }
  }
  ++stats_.malformed;
}

void ThreePhaseGossip::record_proposer(EventId id, NodeId proposer) {
  auto [slot, inserted] = proposers_.insert(id);
  if (slot->count >= ProposerSlot::kCapacity) return;
  const auto begin = slot->nodes.begin();
  const auto end = begin + slot->count;
  if (std::find(begin, end, proposer) == end) {
    slot->nodes[slot->count++] = proposer;
  }
}

void ThreePhaseGossip::on_propose(const ProposeMsg& m) {
  // Phase 2 (Algorithm 1 lines 8-13): request everything new, immediately,
  // from the proposer.
  std::vector<EventId>& wanted = wanted_scratch_;
  wanted.clear();
  for (EventId id : m.ids) {
    if (!id_admissible(id)) {
      // Out-of-range packet index, a window gc already reclaimed, or a
      // window further ahead than any live proposer can be: requesting it
      // would materialize state the rings cannot (or must no longer) hold.
      ++stats_.malformed;
      continue;
    }
    if (delivered_.contains(id)) continue;
    if (requested_.cancelled(id.window())) continue;
    record_proposer(id, m.sender);  // fallback for retransmissions
    if (requested_.contains(id)) continue;
    if (should_request_ && !should_request_(id)) {
      ++stats_.declined_requests;
      continue;
    }
    requested_.insert(id);
    wanted.push_back(id);
  }
  if (wanted.empty()) return;
  fabric_.send(self_, m.sender, net::MsgClass::kRequest, encode_request(self_, wanted));
  ++stats_.requests_sent;
  for (EventId id : wanted) {
    ProposerSlot* slot = proposers_.find(id);
    HG_ASSERT(slot != nullptr);  // record_proposer ran above
    slot->last_requested = m.sender;
    retransmit_.arm(id, 0);
  }
}

void ThreePhaseGossip::on_request(const RequestMsg& m) {
  // Phase 3 (lines 14-17): serve what we have. Each event stays its own
  // datagram (stream packets are MTU-sized; per-datagram loss, latency, and
  // wire accounting are untouched). Its body is the stored payload chunk
  // itself, shared by refcount, and the headers of all serves answering
  // this request share ONE pooled buffer — no payload copy, and one header
  // allocation per request instead of one per event.
  serve_events_scratch_.clear();
  for (EventId id : m.ids) {
    const Event* stored = delivered_.find(id);
    if (stored == nullptr) {
      ++stats_.unknown_requests;
      continue;
    }
    serve_events_scratch_.push_back(*stored);  // refcounted payload, no byte copy
  }
  if (serve_events_scratch_.empty()) return;
  const net::BufferRef headers =
      encode_serve_batch(self_, serve_events_scratch_, serve_spans_scratch_);
  for (std::size_t i = 0; i < serve_spans_scratch_.size(); ++i) {
    const ServeSpan& span = serve_spans_scratch_[i];
    fabric_.send(self_, m.sender, net::MsgClass::kServe, headers.slice(span.offset, span.length),
                 serve_body(serve_events_scratch_[i]), span.phantom_bytes);
    ++stats_.serves_sent;
  }
  if (serve_events_scratch_.size() > 1) ++stats_.serve_batches;
  // Drop the payload refs now (keeping capacity): holding them would pin
  // the chunks past window GC until the next request arrives.
  serve_events_scratch_.clear();
}

void ThreePhaseGossip::on_serve(const ServeMsg& m) {
  if (!id_admissible(m.event.id)) {
    // A serve below the gc cutoff would re-insert a delivered event gc
    // already reclaimed (and re-propose it); reject instead of resurrecting.
    ++stats_.malformed;
    return;
  }
  if (delivered_.contains(m.event.id)) {
    ++stats_.duplicate_serves;  // e.g., a retransmitted request raced the serve
    return;
  }
  retransmit_.cancel(m.event.id);
  deliver_event(m.event);
}

void ThreePhaseGossip::deliver_event(Event event) {
  const EventId id = event.id;
  HG_ASSERT(!delivered_.contains(id));
  to_propose_.push_back(id);
  ++stats_.events_delivered;
  // Advance gc *before* inserting: the delivered ring spans exactly
  // [cutoff, newest], so a delivery that moves `newest` must move the
  // cutoff first to make room. The new id is above the cutoff by
  // construction, so ordering gc first reclaims exactly what it used to.
  if (id.window() > newest_window_seen_) {
    newest_window_seen_ = id.window();
    gc(newest_window_seen_);
  }
  delivered_.insert(event);
  proposers_.erase(id);
  if (config_.park_idle_rounds && started_) arm_round();
  if (deliver_) deliver_(event);
}

void ThreePhaseGossip::on_retransmit_fire(EventId id, int retry_count) {
  HG_ASSERT(!delivered_.contains(id));  // serve would have cancelled the timer
  ProposerSlot* slot = proposers_.find(id);
  if (slot == nullptr || slot->count == 0) {
    retransmit_.cancel(id);
    return;
  }
  // Find a proposer other than the one our last request went to; a repeat
  // request would just elicit a duplicate serve from a slow-but-alive peer.
  NodeId target = kInvalidNode;
  for (std::uint32_t probe = 0; probe < slot->count; ++probe) {
    const NodeId candidate = slot->nodes[slot->next % slot->count];
    ++slot->next;
    if (candidate != slot->last_requested) {
      target = candidate;
      break;
    }
  }
  if (!target.valid()) {
    // Sole proposer: back off and wait — either its queued serve arrives or
    // someone else proposes the id (record_proposer keeps collecting).
    retransmit_.arm(id, retry_count);
    return;
  }
  slot->last_requested = target;
  const EventId one[] = {id};
  fabric_.send(self_, target, net::MsgClass::kRequest, encode_request(self_, one));
  ++stats_.requests_sent;
  retransmit_.arm(id, retry_count);
}

void ThreePhaseGossip::cancel_window_requests(std::uint32_t window) {
  if (requested_.cancelled(window)) return;  // idempotent: repeat cancels are no-ops
  requested_.set_cancelled(window);
  // The window's request-side state is dead from here on: the cancelled
  // flag blocks every future request (and proposer recording) for it, so
  // release the slabs now instead of carrying them to the gc horizon —
  // with smart receivers a decoded window strands ~n-k never-delivered
  // packets whose proposer lists would otherwise linger.
  requested_.clear_window(window);
  proposers_.clear_window(window);
  stats_.timers_cancelled_by_window += retransmit_.cancel_window(window);
  ++stats_.windows_cancelled;
}

void ThreePhaseGossip::gc(std::uint32_t newest_window) {
  if (newest_window < config_.gc_window_horizon) return;
  const std::uint32_t cutoff = newest_window - config_.gc_window_horizon;
  if (cutoff <= gc_done_below_) return;
  delivered_.advance(cutoff);
  requested_.advance(cutoff);  // also resets the dropped windows' cancelled flags
  proposers_.advance(cutoff);
  retransmit_.gc(cutoff);
  gc_done_below_ = cutoff;
}

}  // namespace hg::gossip
