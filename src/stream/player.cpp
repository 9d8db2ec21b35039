#include "stream/player.hpp"

#include "common/assert.hpp"

namespace hg::stream {

namespace {
// Extra requests granted beyond the k needed for decode.
constexpr std::uint32_t kRequestSlack = 3;
// Grants not answered within this TTL stop counting as outstanding.
constexpr sim::SimTime kGrantTtl = sim::SimTime::sec(10.0);
}  // namespace

Player::Player(sim::Simulator& simulator, StreamConfig config, std::uint32_t windows_total,
               Recording recording)
    : sim_(simulator),
      config_(config),
      recording_(recording),
      seen_(gossip::RingGeometry{recording == Recording::kLean ? windows_total : 0,
                                 static_cast<std::uint32_t>(config.window_packets())}) {
  windows_.resize(windows_total);
  if (recording_ == Recording::kFull) {
    for (auto& w : windows_) {
      w.arrival.assign(config_.window_packets(), sim::SimTime::max());
    }
  }
}

void Player::on_deliver(const gossip::Event& event) {
  const gossip::EventId id = event.id;
  if (id.window() >= windows_.size()) return;  // outside the measured stream
  WindowRecord& rec = windows_[id.window()];
  HG_ASSERT(id.index() < config_.window_packets());
  if (recording_ == Recording::kFull) {
    if (rec.arrival[id.index()] != sim::SimTime::max()) {
      ++duplicates_;
      return;
    }
    rec.arrival[id.index()] = sim_.now();
  } else {
    if (seen(id.window(), id.index())) {
      ++duplicates_;
      return;
    }
    mark_seen(id.window(), id.index());
  }
  ++rec.received;
  ++packets_received_;
  if (id.index() < config_.data_per_window) ++rec.data_received;
  // An arrival answers the oldest outstanding grant.
  if (!rec.grant_times.empty()) rec.grant_times.erase(rec.grant_times.begin());

  if (rec.received == config_.data_per_window) {
    rec.decode_time = sim_.now();
    if (smart_ && cancel_window_) cancel_window_(id.window());
  }
}

bool Player::should_request(gossip::EventId id) {
  if (!smart_) return true;
  if (id.window() >= windows_.size()) return true;
  WindowRecord& rec = windows_[id.window()];
  // Decline further packets of an already-decodable window.
  if (rec.decode_time != sim::SimTime::max()) return false;
  // Budget: any k of n packets decode; asking for many more than k only
  // buys duplicate serve traffic. Expired grants free their slot (the
  // serve was lost or is hopelessly late; retransmission handles it).
  const sim::SimTime cutoff = sim_.now() - kGrantTtl;
  std::erase_if(rec.grant_times, [&](sim::SimTime t) { return t < cutoff; });
  const std::uint32_t outstanding = static_cast<std::uint32_t>(rec.grant_times.size());
  if (rec.received + outstanding >= config_.data_per_window + kRequestSlack) {
    ++requests_deferred_;
    return false;
  }
  rec.grant_times.push_back(sim_.now());
  return true;
}

std::uint32_t Player::data_arrived_by(std::uint32_t w, sim::SimTime deadline) const {
  HG_ASSERT_MSG(full_recording(), "per-packet queries need Recording::kFull");
  const WindowRecord& rec = windows_[w];
  std::uint32_t count = 0;
  for (std::size_t i = 0; i < config_.data_per_window; ++i) {
    if (rec.arrival[i] <= deadline) ++count;
  }
  return count;
}

}  // namespace hg::stream
