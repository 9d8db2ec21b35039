// NodeRuntime: one peer's fixed protocol stack.
//
// Every node runs the paper's three-phase gossip (gossip::GossipModule). In
// HEAP mode it also runs freshness aggregation (aggregation::
// AggregationModule), whose estimate b̄ drives the Eq. 1 adaptive fanout;
// in standard mode the fanout is fixed. A receiver additionally carries a
// borrowed stream::Player and, in real-payload runs, an owned
// stream::FecModule, both attached by attach_receiver().
//
// Incoming datagrams are routed by their first byte in one switch: kPropose,
// kRequest and kServe go to gossip, kAggregation to the aggregator. Anything
// else — including kAggregation at a node without an aggregator, such as the
// standard-mode source that HEAP receivers still gossip records to — counts
// as an unknown tag and is dropped. A delivered event reaches the player,
// then the decoder, by direct call; the player's request budget vetoes
// requests, and its "window decodable" command cancels the window's
// outstanding requests.
//
// Lifetime: a NodeRuntime is non-copyable and non-movable (the fabric's
// receive callback and the gossip engine's hooks point at it), so it is
// always heap-owned — make() hands back a unique_ptr.
#pragma once

#include <memory>
#include <optional>
#include <type_traits>

#include "aggregation/aggregation_module.hpp"
#include "common/assert.hpp"
#include "common/types.hpp"
#include "common/units.hpp"
#include "gossip/config.hpp"
#include "gossip/fanout_policy.hpp"
#include "gossip/gossip_module.hpp"
#include "membership/directory.hpp"
#include "net/fabric.hpp"

namespace hg::fec {
class WindowCodec;
}  // namespace hg::fec

namespace hg::stream {
class FecModule;
class Player;
}  // namespace hg::stream

namespace hg::core {

enum class Mode { kStandard, kHeap };

struct NodeConfig {
  Mode mode = Mode::kHeap;
  // Declared upload capability b_p: what the node advertises through the
  // aggregation protocol and uses for its own fanout. (The enforced link
  // rate lives in the network fabric; declared == enforced unless a test
  // deliberately lies, e.g. to model freeriders.)
  BitRate capability = BitRate::unlimited();
  gossip::GossipConfig gossip;
  aggregation::AggregationConfig aggregation;
  double max_fanout = 64.0;
  gossip::FanoutRounding rounding = gossip::FanoutRounding::kRandomized;
};

class NodeRuntime {
 public:
  // Builds the stack config.mode selects. Construction schedules nothing;
  // timers are armed by start().
  NodeRuntime(sim::Simulator& simulator, net::NetworkFabric& fabric,
              membership::Directory& directory, NodeId self, const NodeConfig& config);
  ~NodeRuntime();

  NodeRuntime(const NodeRuntime&) = delete;
  NodeRuntime& operator=(const NodeRuntime&) = delete;

  // The default Deployment node factory.
  [[nodiscard]] static std::unique_ptr<NodeRuntime> make(sim::Simulator& simulator,
                                                         net::NetworkFabric& fabric,
                                                         membership::Directory& directory,
                                                         NodeId self, const NodeConfig& config);

  // Receiver role, called once before start(): deliveries reach `player`
  // (which must outlive the runtime), its request budget gates requests,
  // and its decode of a window cancels that window's requests. A non-null
  // `codec` (borrowed likewise) also mounts an online FecModule over the
  // player's windows.
  void attach_receiver(stream::Player& player, const fec::WindowCodec* codec = nullptr);

  // The mounted module of type M (GossipModule, AggregationModule or
  // FecModule), or nullptr when this node does not run it.
  template <class M>
  [[nodiscard]] M* find_module() {
    return lookup<M>(*this);
  }
  template <class M>
  [[nodiscard]] const M* find_module() const {
    return lookup<M>(*this);
  }
  // As find_module, but asserts the module is mounted.
  template <class M>
  [[nodiscard]] M& module() {
    M* m = find_module<M>();
    HG_ASSERT_MSG(m != nullptr, "requested module is not mounted on this runtime");
    return *m;
  }
  template <class M>
  [[nodiscard]] const M& module() const {
    const M* m = find_module<M>();
    HG_ASSERT_MSG(m != nullptr, "requested module is not mounted on this runtime");
    return *m;
  }

  // --- lifecycle ------------------------------------------------------------
  // Gossip starts before aggregation (timer creation order is part of the
  // deterministic contract) and stops after it. Idempotent: a second
  // start() (or stop() while stopped) is a no-op, so timers can never be
  // armed twice.
  void start();
  void stop();
  [[nodiscard]] bool running() const { return running_; }

  // Registers this runtime's receive callback with the fabric. The callback
  // binds `this`, which is safe because runtimes are always heap-owned.
  void attach(BitRate upload_capacity);

  // Hot path: one switch on the tag byte, then a direct call into the
  // module that owns it. Unknown tags are counted and logged at debug level.
  void on_datagram(const net::Datagram& d);

  // Source role: Algorithm 1's publish.
  void publish(gossip::Event event) { gossip_.engine().publish(std::move(event)); }

  [[nodiscard]] membership::LocalView& view() { return *view_; }
  [[nodiscard]] NodeId self() const { return self_; }
  [[nodiscard]] const NodeConfig& config() const { return config_; }

  struct Stats {
    std::uint64_t datagrams_dispatched = 0;  // routed to a mounted module
    std::uint64_t unknown_tag_datagrams = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  template <class M, class Self>
  static auto lookup(Self& self) {
    if constexpr (std::is_same_v<M, gossip::GossipModule>) {
      return &self.gossip_;
    } else if constexpr (std::is_same_v<M, aggregation::AggregationModule>) {
      return self.aggregation_ ? &*self.aggregation_ : nullptr;
    } else {
      static_assert(std::is_same_v<M, stream::FecModule>, "not a module of the node stack");
      return self.fec_.get();
    }
  }

  void on_deliver(const gossip::Event& event);

  net::NetworkFabric& fabric_;
  NodeId self_;
  NodeConfig config_;
  std::unique_ptr<membership::LocalView> view_;
  // HEAP mode only. Declared before gossip_: the adaptive fanout policy
  // reads its estimate.
  std::optional<aggregation::AggregationModule> aggregation_;
  gossip::GossipModule gossip_;
  stream::Player* player_ = nullptr;
  std::unique_ptr<stream::FecModule> fec_;
  bool running_ = false;
  Stats stats_;
};

}  // namespace hg::core
