// NodeRuntime: a node assembled from pluggable protocol modules.
//
// The runtime owns the pieces every protocol needs (membership view, signal
// bus, dispatch table) and a stack of core::Protocol modules. Each module
// registers the message tags it owns; incoming datagrams are routed by tag
// in O(1) through a flat per-runtime table of (function pointer, context)
// pairs — no virtual dispatch and no branching chain on the hot path, and
// the zero-copy BufferRef wire path is untouched. The table has one entry
// per tag value up to gossip::kLastMsgTag (wire tags are small and centrally
// assigned in gossip::MsgTag); a full 256-entry table would cost 4 KB per
// node — 400 MB of dead weight across a 100k-node run. Datagrams with tags
// beyond the table take the unknown-tag path.
//
// Application hooks are a typed signal bus instead of setter soup:
//   deliveries()       every delivered event, multi-subscriber (player,
//                      lag instrumentation, test observers — all at once)
//   request_gate()     veto for requesting an event id (AND over subscribers)
//   window_cancelled() "stop requesting this window" commands, which the
//                      gossip module subscribes to
//
// The paper's two protocol variants are one-line presets:
//   NodeRuntime::standard(cfg)  fixed-fanout three-phase gossip
//   NodeRuntime::heap(cfg)      + capability aggregation driving an
//                               adaptive (Eq. 1) fanout policy
//
// Lifetime: a NodeRuntime is non-copyable and non-movable (the fabric's
// receive callback and every registered tag handler point at it), so it is
// always heap-owned — the presets hand back unique_ptrs. Registration is
// RAII: a module's TagRegistration deregisters its tag on destruction, so a
// dead module can never leave a dangling handler in the table.
#pragma once

#include <array>
#include <memory>
#include <vector>

#include "aggregation/freshness_aggregator.hpp"
#include "common/types.hpp"
#include "common/units.hpp"
#include "core/protocol.hpp"
#include "core/signal.hpp"
#include "gossip/config.hpp"
#include "gossip/fanout_policy.hpp"
#include "gossip/messages.hpp"
#include "membership/directory.hpp"
#include "net/fabric.hpp"

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

class NodeRuntime;

// RAII ownership of one tag-table entry: deregisters on destruction.
class TagRegistration {
 public:
  TagRegistration() = default;

  TagRegistration(TagRegistration&& o) noexcept : runtime_(o.runtime_), tag_(o.tag_) {
    o.runtime_ = nullptr;
  }
  TagRegistration& operator=(TagRegistration&& o) noexcept {
    if (this != &o) {
      reset();
      runtime_ = o.runtime_;
      tag_ = o.tag_;
      o.runtime_ = nullptr;
    }
    return *this;
  }

  TagRegistration(const TagRegistration&) = delete;
  TagRegistration& operator=(const TagRegistration&) = delete;

  ~TagRegistration() { reset(); }

  void reset();
  [[nodiscard]] bool active() const { return runtime_ != nullptr; }

 private:
  friend class NodeRuntime;
  TagRegistration(NodeRuntime* runtime, std::uint8_t tag) : runtime_(runtime), tag_(tag) {}

  NodeRuntime* runtime_ = nullptr;
  std::uint8_t tag_ = 0;
};

class NodeRuntime {
 public:
  // Non-virtual datagram handler: called with the context pointer the tag
  // was registered with.
  using DatagramHandler = void (*)(void*, const net::Datagram&);
  using PublishFn = sim::BasicSmallFn<void(gossip::Event)>;

  // One past the highest routable tag value.
  static constexpr std::size_t kTagTableSize = static_cast<std::size_t>(gossip::kLastMsgTag) + 1;

  NodeRuntime(sim::Simulator& simulator, net::NetworkFabric& fabric,
              membership::Directory& directory, NodeId self, NodeConfig config);
  ~NodeRuntime();

  NodeRuntime(const NodeRuntime&) = delete;
  NodeRuntime& operator=(const NodeRuntime&) = delete;

  // --- presets --------------------------------------------------------------
  // Fixed-fanout three-phase gossip (the paper's homogeneous baseline).
  [[nodiscard]] static std::unique_ptr<NodeRuntime> standard(sim::Simulator& simulator,
                                                             net::NetworkFabric& fabric,
                                                             membership::Directory& directory,
                                                             NodeId self, NodeConfig config);
  // HEAP: gossip + freshness aggregation driving an adaptive fanout (Eq. 1).
  [[nodiscard]] static std::unique_ptr<NodeRuntime> heap(sim::Simulator& simulator,
                                                         net::NetworkFabric& fabric,
                                                         membership::Directory& directory,
                                                         NodeId self, NodeConfig config);
  // Preset selected by config.mode — the default Deployment node factory.
  [[nodiscard]] static std::unique_ptr<NodeRuntime> make(sim::Simulator& simulator,
                                                         net::NetworkFabric& fabric,
                                                         membership::Directory& directory,
                                                         NodeId self, const NodeConfig& config);

  // --- assembly -------------------------------------------------------------
  // Constructs a module in place. By convention every module constructor
  // takes the owning runtime as its first parameter; modules register their
  // tags and signal subscriptions there. start()/stop() run in mount order /
  // reverse mount order.
  template <class M, class... Args>
  M& emplace_module(Args&&... args) {
    auto module = std::make_unique<M>(*this, std::forward<Args>(args)...);
    M& ref = *module;
    modules_.push_back(std::move(module));
    return ref;
  }
  Protocol& add_module(std::unique_ptr<Protocol> module);

  // Claims `tag` for `module` (any type with on_datagram(const Datagram&)).
  // Duplicate claims abort: two modules answering one tag is a stack bug.
  template <class T>
  [[nodiscard]] TagRegistration register_tag(gossip::MsgTag tag, T* module) {
    return register_handler(tag, module, [](void* ctx, const net::Datagram& d) {
      static_cast<T*>(ctx)->on_datagram(d);
    });
  }
  [[nodiscard]] TagRegistration register_handler(gossip::MsgTag tag, void* ctx,
                                                 DatagramHandler handler);

  // Declares a tag as expected-but-unowned: datagrams carrying it are
  // counted as ignored (not unknown) and dropped, even in strict mode. For
  // stacks deployed next to peers running protocols they do not mount —
  // e.g. a fixed-fanout minority inside a HEAP deployment keeps receiving
  // kAggregation traffic, which is legitimate, not junk. The runtime owns
  // the registration (it lives until the runtime dies).
  void ignore_tag(gossip::MsgTag tag);

  // First mounted module of type M, or nullptr.
  template <class M>
  [[nodiscard]] M* find_module() {
    for (auto& m : modules_) {
      if (auto* typed = dynamic_cast<M*>(m.get())) return typed;
    }
    return nullptr;
  }
  template <class M>
  [[nodiscard]] const M* find_module() const {
    for (const auto& m : modules_) {
      if (const auto* typed = dynamic_cast<const M*>(m.get())) return typed;
    }
    return nullptr;
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
  [[nodiscard]] std::vector<const char*> module_names() const;

  // --- lifecycle ------------------------------------------------------------
  // Idempotent: a second start() (or stop() while stopped) is a no-op, so
  // timers can never be armed twice.
  void start();
  void stop();
  [[nodiscard]] bool running() const { return running_; }

  // Registers this runtime's receive callback with the fabric. The callback
  // binds `this`, which is safe because runtimes are always heap-owned.
  void attach(BitRate upload_capacity);

  // Hot path: O(1) tag lookup, then a plain indirect call into the owning
  // module. Unknown tags are counted, logged at debug level, and — in
  // strict mode (tests) — abort.
  void on_datagram(const net::Datagram& d);

  // --- signal bus -----------------------------------------------------------
  [[nodiscard]] Signal<const gossip::Event&>& deliveries() { return deliveries_; }
  [[nodiscard]] Gate<gossip::EventId>& request_gate() { return request_gate_; }
  [[nodiscard]] Signal<std::uint32_t>& window_cancelled() { return window_cancelled_; }

  // --- application commands -------------------------------------------------
  // Source role: hand an event to the dissemination module. The publishing
  // module (normally gossip) installs itself via set_publisher.
  void publish(gossip::Event event);
  void set_publisher(PublishFn fn) { publish_ = std::move(fn); }

  // --- plumbing accessors (modules build themselves from these) ------------
  [[nodiscard]] sim::Simulator& sim() { return sim_; }
  [[nodiscard]] net::NetworkFabric& fabric() { return fabric_; }
  [[nodiscard]] membership::Directory& directory() { return directory_; }
  [[nodiscard]] membership::LocalView& view() { return *view_; }
  [[nodiscard]] NodeId self() const { return self_; }
  [[nodiscard]] const NodeConfig& config() const { return config_; }

  struct Stats {
    std::uint64_t datagrams_dispatched = 0;  // routed to a module (incl. ignored)
    std::uint64_t ignored_datagrams = 0;     // tags declared via ignore_tag
    std::uint64_t unknown_tag_datagrams = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }
  // Abort on unknown-tag datagrams instead of counting them (tests).
  void set_strict_unknown_tags(bool strict) { strict_unknown_tags_ = strict; }

 private:
  friend class TagRegistration;
  void deregister(std::uint8_t tag);

  struct Handler {
    DatagramHandler fn = nullptr;
    void* ctx = nullptr;
  };

  sim::Simulator& sim_;
  net::NetworkFabric& fabric_;
  membership::Directory& directory_;
  NodeId self_;
  NodeConfig config_;
  std::unique_ptr<membership::LocalView> view_;
  std::array<Handler, kTagTableSize> handlers_{};
  // Signals are declared before the module stack: modules hold Subscriptions
  // into them and must be destroyed first.
  Signal<const gossip::Event&> deliveries_;
  Gate<gossip::EventId> request_gate_;
  Signal<std::uint32_t> window_cancelled_;
  PublishFn publish_;
  std::vector<TagRegistration> ignored_tags_;
  std::vector<std::unique_ptr<Protocol>> modules_;
  bool running_ = false;
  bool strict_unknown_tags_ = false;
  Stats stats_;
};

}  // namespace hg::core
