// Three-phase push-request-push gossip dissemination (paper Algorithm 1)
// with the retransmission extension of Algorithm 2.
//
// Phase 1: every `period`, propose the ids delivered since the last round
//          ("infect and die": each id is proposed exactly once) to
//          fanout-many uniformly random peers.
// Phase 2: a peer receiving a [Propose] immediately [Request]s the ids it
//          has not requested yet from the proposer.
// Phase 3: the proposer [Serve]s the payloads; one datagram per event,
//          whose body is the stored payload chunk itself (never a copy),
//          and the headers of all serves answering one request share a
//          single pooled buffer.
//
// The fanout comes from a FanoutPolicy: a constant for standard gossip, the
// capability-proportional rule for HEAP — this single indirection is the
// paper's entire behavioural delta.
//
// All per-event state lives in dense window rings (see window_ring.hpp)
// indexed by the (window, packet) decomposition of EventId — no hashing on
// the propose/request/serve hot path, and gc is an O(1) ring advance.
#pragma once

#include <array>
#include <functional>
#include <vector>

#include "common/types.hpp"
#include "gossip/config.hpp"
#include "gossip/fanout_policy.hpp"
#include "gossip/messages.hpp"
#include "gossip/retransmit.hpp"
#include "gossip/window_ring.hpp"
#include "membership/directory.hpp"
#include "net/fabric.hpp"
#include "sim/simulator.hpp"

namespace hg::gossip {

class ThreePhaseGossip {
 public:
  // Called exactly once per distinct event, when its payload first arrives.
  using DeliverFn = std::function<void(const Event&)>;
  // Lets the application veto requests (e.g., the player declines further
  // packets of a window it has already decoded). Default: request all.
  using ShouldRequestFn = std::function<bool(EventId)>;

  ThreePhaseGossip(sim::Simulator& simulator, net::NetworkFabric& fabric,
                   membership::LocalView& view, NodeId self, GossipConfig config,
                   FanoutPolicy& policy);

  void set_deliver(DeliverFn fn) { deliver_ = std::move(fn); }
  void set_should_request(ShouldRequestFn fn) { should_request_ = std::move(fn); }

  // Starts the periodic gossip timer (random initial phase).
  void start();
  void stop();

  // Source-side entry point (Algorithm 1 `publish`): deliver locally, then
  // propose — immediately by default, else in the next round.
  void publish(Event event);

  // Dispatches kPropose / kRequest / kServe datagrams addressed to self. A
  // datagram whose sender field is not its source counts as malformed.
  void on_datagram(const net::Datagram& d);

  // Stop requesting/retransmitting packets of `window` (already decodable).
  void cancel_window_requests(std::uint32_t window);

  [[nodiscard]] bool has_delivered(EventId id) const { return delivered_.contains(id); }
  // Stored event (payload included) or nullptr if unknown/garbage-collected.
  // The pointer refers to a scratch slot valid until the next call.
  [[nodiscard]] const Event* delivered_event(EventId id) const { return delivered_.find(id); }
  [[nodiscard]] NodeId self() const { return self_; }
  [[nodiscard]] const GossipConfig& config() const { return config_; }
  [[nodiscard]] FanoutPolicy& policy() { return policy_; }

  struct Stats {
    std::uint64_t rounds = 0;
    std::uint64_t proposes_sent = 0;       // datagrams
    std::uint64_t ids_proposed = 0;        // id entries across proposes
    std::uint64_t requests_sent = 0;
    std::uint64_t serves_sent = 0;         // per-event serve datagrams
    std::uint64_t serve_batches = 0;       // multi-event serve rounds sharing one buffer
    std::uint64_t events_delivered = 0;
    std::uint64_t duplicate_serves = 0;
    std::uint64_t declined_requests = 0;   // vetoed by should_request
    std::uint64_t unknown_requests = 0;    // asked for events we lack
    std::uint64_t malformed = 0;           // undecodable/forged datagrams + out-of-domain ids
    std::uint64_t windows_cancelled = 0;   // cancel commands honored (decode-on-k)
    std::uint64_t timers_cancelled_by_window = 0;  // retransmit timers those cancels killed
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const RetransmitTracker::Stats& retransmit_stats() const {
    return retransmit_.stats();
  }

  // Heap bytes of the per-event protocol state (delivered events, requested
  // flags, proposer lists, retransmit timers) — the quantity bench_fig_scale
  // tracks as gossip_state_bytes_per_node.
  [[nodiscard]] std::size_t state_bytes() const {
    return delivered_.state_bytes() + requested_.state_bytes() + proposers_.state_bytes() +
           to_propose_.capacity() * sizeof(EventId) + retransmit_.state_bytes();
  }

 private:
  // An id is admissible if its packet index fits the window geometry and its
  // window is neither below the gc cutoff nor beyond the request-ring
  // domain. Wire ids failing this are malformed: acting on them would
  // resurrect state gc already reclaimed (or index past a slab).
  [[nodiscard]] bool id_admissible(EventId id) const {
    return id.index() < config_.packets_per_window && requested_.in_domain(id.window());
  }

  void gossip_round();
  void arm_round();
  void gossip_ids(const std::vector<EventId>& ids);
  void on_propose(const ProposeMsg& m);
  void on_request(const RequestMsg& m);
  void on_serve(const ServeMsg& m);
  void on_retransmit_fire(EventId id, int retry_count);
  void deliver_event(Event event);
  void record_proposer(EventId id, NodeId proposer);
  void gc(std::uint32_t newest_window);

  sim::Simulator& sim_;
  net::NetworkFabric& fabric_;
  membership::LocalView& view_;
  NodeId self_;
  GossipConfig config_;
  FanoutPolicy& policy_;
  Rng rng_;

  DeliverFn deliver_;
  ShouldRequestFn should_request_;

  // Known proposers per not-yet-delivered event; [0] got the first request,
  // retries walk the rest round-robin. Re-requesting the node that already
  // has our request queued would only produce a duplicate serve, so retries
  // require a *different* target; with no alternate the timer re-arms
  // silently and waits for new proposers.
  struct ProposerSlot {
    static constexpr std::size_t kCapacity = 8;  // proposers kept per event
    std::array<NodeId, kCapacity> nodes;
    std::uint32_t count = 0;
    std::uint32_t next = 1;              // index of the proposer for the next retry
    NodeId last_requested;               // whoever got the latest request
  };

  EventRing delivered_;
  // Requested flags; also carries the per-window cancelled flags that
  // replaced the old unbounded cancelled-window set.
  WindowRing<void> requested_;
  WindowRing<ProposerSlot> proposers_;
  std::vector<EventId> to_propose_;
  RetransmitTracker retransmit_;

  sim::EventHandle timer_;        // periodic round mode
  sim::EventHandle round_event_;  // park_idle_rounds one-shot
  sim::SimTime round_anchor_;     // park mode: grid = anchor + k*period
  bool started_ = false;
  std::uint32_t newest_window_seen_ = 0;
  std::uint32_t gc_done_below_ = 0;
  std::vector<NodeId> targets_scratch_;
  // Reused per round so the steady-state wire path performs no heap
  // allocations (the pooled buffers carry the bytes; these carry indices).
  std::vector<EventId> wanted_scratch_;
  std::vector<Event> serve_events_scratch_;
  std::vector<ServeSpan> serve_spans_scratch_;
  Stats stats_;
};

}  // namespace hg::gossip
