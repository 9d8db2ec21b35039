#include "core/node_runtime.hpp"

#include "aggregation/aggregation_module.hpp"
#include "common/log.hpp"
#include "gossip/gossip_module.hpp"

namespace hg::core {

void TagRegistration::reset() {
  if (runtime_ != nullptr) {
    runtime_->deregister(tag_);
    runtime_ = nullptr;
  }
}

NodeRuntime::NodeRuntime(sim::Simulator& simulator, net::NetworkFabric& fabric,
                         membership::Directory& directory, NodeId self, NodeConfig config)
    : sim_(simulator),
      fabric_(fabric),
      directory_(directory),
      self_(self),
      config_(config),
      view_(directory.make_view(self)) {}

NodeRuntime::~NodeRuntime() = default;

Protocol& NodeRuntime::add_module(std::unique_ptr<Protocol> module) {
  HG_ASSERT(module != nullptr);
  modules_.push_back(std::move(module));
  return *modules_.back();
}

TagRegistration NodeRuntime::register_handler(gossip::MsgTag tag, void* ctx,
                                              DatagramHandler handler) {
  HG_ASSERT(handler != nullptr);
  HG_ASSERT_MSG(static_cast<std::uint8_t>(tag) < kTagTableSize,
                "tag beyond the dispatch table: gossip::kLastMsgTag is not the last tag");
  Handler& slot = handlers_[static_cast<std::uint8_t>(tag)];
  HG_ASSERT_MSG(slot.fn == nullptr, "duplicate tag registration: two modules claim one tag");
  slot = Handler{handler, ctx};
  return TagRegistration{this, static_cast<std::uint8_t>(tag)};
}

void NodeRuntime::deregister(std::uint8_t tag) { handlers_[tag] = Handler{}; }

void NodeRuntime::ignore_tag(gossip::MsgTag tag) {
  ignored_tags_.push_back(register_handler(
      tag, &stats_,
      [](void* ctx, const net::Datagram&) { ++static_cast<Stats*>(ctx)->ignored_datagrams; }));
}

std::vector<const char*> NodeRuntime::module_names() const {
  std::vector<const char*> names;
  names.reserve(modules_.size());
  for (const auto& m : modules_) names.push_back(m->name());
  return names;
}

void NodeRuntime::start() {
  if (running_) return;
  running_ = true;
  for (auto& m : modules_) m->start();
}

void NodeRuntime::stop() {
  if (!running_) return;
  running_ = false;
  for (auto it = modules_.rbegin(); it != modules_.rend(); ++it) (*it)->stop();
}

void NodeRuntime::attach(BitRate upload_capacity) {
  fabric_.register_node(self_, upload_capacity,
                        [this](const net::Datagram& d) { on_datagram(d); });
}

void NodeRuntime::on_datagram(const net::Datagram& d) {
  const std::uint8_t tag = d.bytes.empty() ? 0xff : d.bytes.data()[0];
  const Handler handler = tag < kTagTableSize ? handlers_[tag] : Handler{};
  if (handler.fn == nullptr) {
    ++stats_.unknown_tag_datagrams;
    HG_LOG_DEBUG("node %u: dropping datagram with unknown tag %u from node %u", self_.value(),
                 d.bytes.empty() ? 0u : static_cast<unsigned>(d.bytes.data()[0]),
                 d.src.value());
    HG_ASSERT_MSG(!strict_unknown_tags_, "unknown-tag datagram in strict mode");
    return;
  }
  ++stats_.datagrams_dispatched;
  handler.fn(handler.ctx, d);
}

void NodeRuntime::publish(gossip::Event event) {
  HG_ASSERT_MSG(static_cast<bool>(publish_), "no publishing module mounted");
  publish_(std::move(event));
}

// --- presets ----------------------------------------------------------------

std::unique_ptr<NodeRuntime> NodeRuntime::standard(sim::Simulator& simulator,
                                                   net::NetworkFabric& fabric,
                                                   membership::Directory& directory, NodeId self,
                                                   NodeConfig config) {
  config.mode = Mode::kStandard;
  auto rt = std::make_unique<NodeRuntime>(simulator, fabric, directory, self, config);
  rt->emplace_module<gossip::GossipModule>(
      config.gossip, std::make_unique<gossip::FixedFanout>(config.gossip.base_fanout));
  return rt;
}

std::unique_ptr<NodeRuntime> NodeRuntime::heap(sim::Simulator& simulator,
                                               net::NetworkFabric& fabric,
                                               membership::Directory& directory, NodeId self,
                                               NodeConfig config) {
  config.mode = Mode::kHeap;
  auto rt = std::make_unique<NodeRuntime>(simulator, fabric, directory, self, config);
  // The estimator must exist before the adaptive policy that reads it, but
  // gossip starts first (timer creation order is part of the deterministic
  // contract) — so construct aggregation up front, mount it after gossip.
  auto aggregation = std::make_unique<aggregation::AggregationModule>(*rt, config.capability,
                                                                      config.aggregation);
  auto policy = std::make_unique<gossip::AdaptiveFanout>(
      config.capability, &aggregation->aggregator(),
      gossip::AdaptiveFanoutConfig{.base_fanout = config.gossip.base_fanout,
                                   .max_fanout = config.max_fanout,
                                   .rounding = config.rounding});
  rt->emplace_module<gossip::GossipModule>(config.gossip, std::move(policy));
  rt->add_module(std::move(aggregation));
  return rt;
}

std::unique_ptr<NodeRuntime> NodeRuntime::make(sim::Simulator& simulator,
                                               net::NetworkFabric& fabric,
                                               membership::Directory& directory, NodeId self,
                                               const NodeConfig& config) {
  return config.mode == Mode::kHeap ? heap(simulator, fabric, directory, self, config)
                                    : standard(simulator, fabric, directory, self, config);
}

}  // namespace hg::core
