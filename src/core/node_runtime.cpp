#include "core/node_runtime.hpp"

#include "stream/fec_module.hpp"
#include "stream/player.hpp"

namespace hg::core {

namespace {

std::optional<aggregation::AggregationModule> make_aggregation(sim::Simulator& simulator,
                                                               net::NetworkFabric& fabric,
                                                               membership::LocalView& view,
                                                               NodeId self,
                                                               const NodeConfig& config) {
  if (config.mode != Mode::kHeap) return std::nullopt;
  return std::optional<aggregation::AggregationModule>(
      std::in_place, simulator, fabric, view, self, config.capability, config.aggregation);
}

std::unique_ptr<gossip::FanoutPolicy> make_policy(
    const NodeConfig& config, const std::optional<aggregation::AggregationModule>& aggregation) {
  if (!aggregation) return std::make_unique<gossip::FixedFanout>(config.gossip.base_fanout);
  return std::make_unique<gossip::AdaptiveFanout>(
      config.capability, &aggregation->aggregator(),
      gossip::AdaptiveFanoutConfig{.base_fanout = config.gossip.base_fanout,
                                   .max_fanout = config.max_fanout,
                                   .rounding = config.rounding});
}

}  // namespace

NodeRuntime::NodeRuntime(sim::Simulator& simulator, net::NetworkFabric& fabric,
                         membership::Directory& directory, NodeId self, const NodeConfig& config)
    : fabric_(fabric),
      self_(self),
      config_(config),
      view_(directory.make_view(self)),
      aggregation_(make_aggregation(simulator, fabric, *view_, self, config)),
      gossip_(simulator, fabric, *view_, self, config.gossip, make_policy(config, aggregation_)) {}

NodeRuntime::~NodeRuntime() = default;

std::unique_ptr<NodeRuntime> NodeRuntime::make(sim::Simulator& simulator,
                                               net::NetworkFabric& fabric,
                                               membership::Directory& directory, NodeId self,
                                               const NodeConfig& config) {
  return std::make_unique<NodeRuntime>(simulator, fabric, directory, self, config);
}

void NodeRuntime::attach_receiver(stream::Player& player, const fec::WindowCodec* codec) {
  HG_ASSERT_MSG(player_ == nullptr, "attach_receiver is single-shot");
  player_ = &player;
  if (codec != nullptr) {
    fec_ = std::make_unique<stream::FecModule>(*codec, player.windows_total());
  }
  gossip::ThreePhaseGossip& engine = gossip_.engine();
  engine.set_deliver([this](const gossip::Event& e) { on_deliver(e); });
  engine.set_should_request([this](gossip::EventId id) { return player_->should_request(id); });
  player.set_cancel_window(
      [this](std::uint32_t window) { gossip_.engine().cancel_window_requests(window); });
}

void NodeRuntime::on_deliver(const gossip::Event& event) {
  // The player first: on a window's k-th packet it stamps the decode time
  // and cancels the window, and the decoder repairs at that same arrival.
  player_->on_deliver(event);
  if (fec_) fec_->on_deliver(event);
}

void NodeRuntime::start() {
  if (running_) return;
  running_ = true;
  gossip_.engine().start();
  if (aggregation_) aggregation_->aggregator().start();
}

void NodeRuntime::stop() {
  if (!running_) return;
  running_ = false;
  if (aggregation_) aggregation_->aggregator().stop();
  gossip_.engine().stop();
}

void NodeRuntime::attach(BitRate upload_capacity) {
  fabric_.register_node(self_, upload_capacity,
                        [this](const net::Datagram& d) { on_datagram(d); });
}

void NodeRuntime::on_datagram(const net::Datagram& d) {
  const std::uint8_t tag = d.bytes.empty() ? 0xff : d.bytes.data()[0];
  switch (static_cast<gossip::MsgTag>(tag)) {
    case gossip::MsgTag::kPropose:
    case gossip::MsgTag::kRequest:
    case gossip::MsgTag::kServe:
      ++stats_.datagrams_dispatched;
      gossip_.engine().on_datagram(d);
      return;
    case gossip::MsgTag::kAggregation:
      if (!aggregation_) break;
      ++stats_.datagrams_dispatched;
      aggregation_->aggregator().on_datagram(d);
      return;
  }
  ++stats_.unknown_tag_datagrams;
}

}  // namespace hg::core
