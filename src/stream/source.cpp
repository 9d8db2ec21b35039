#include "stream/source.hpp"

#include "common/assert.hpp"

namespace hg::stream {

StreamSource::StreamSource(sim::Simulator& simulator, StreamConfig config, PublishFn publish,
                           const fec::WindowCodec* codec)
    : sim_(simulator), config_(config), publish_(std::move(publish)), codec_(codec) {
  HG_ASSERT(publish_ != nullptr);
  HG_ASSERT_MSG((codec_ != nullptr) == config_.real_payloads,
                "a stream source takes a codec exactly when real_payloads is set");
  if (config_.real_payloads) {
    const fec::WindowCodecConfig& geometry = codec_->config();
    HG_ASSERT_MSG(geometry.data_per_window == config_.data_per_window &&
                      geometry.parity_per_window == config_.parity_per_window &&
                      geometry.packet_bytes == config_.packet_bytes,
                  "the codec's window geometry must match the stream config");
  }
}

void StreamSource::start(sim::SimTime initial_delay, std::uint32_t windows) {
  HG_ASSERT(windows > 0);
  windows_total_ = windows;
  t0_ = sim_.now() + initial_delay;
  sim_.after(initial_delay, [this]() { emit_next(); });
}

void StreamSource::stop() { stopped_ = true; }

sim::SimTime StreamSource::publish_time(gossip::EventId id) const {
  const auto interval_us =
      static_cast<std::int64_t>(config_.packet_interval_sec() * 1e6);
  const std::int64_t seq =
      static_cast<std::int64_t>(id.window()) *
          static_cast<std::int64_t>(config_.window_packets()) +
      id.index();
  return t0_ + sim::SimTime::us(seq * interval_us);
}

sim::SimTime StreamSource::window_complete_time(std::uint32_t window) const {
  return publish_time(
      packet_id(window, static_cast<std::uint16_t>(config_.window_packets() - 1)));
}

void StreamSource::emit_next() {
  if (stopped_ || next_window_ >= windows_total_) return;

  const std::uint32_t w = next_window_;
  const std::uint16_t i = next_index_;
  const gossip::EventId id = packet_id(w, i);

  if (!config_.real_payloads) {
    // No payload bytes exist anywhere in a virtual run.
    publish_(gossip::Event{id, {}, static_cast<std::uint32_t>(config_.packet_bytes)});
    advance_cursor();
    return;
  }
  net::BufferRef payload;
  if (i < config_.data_per_window) {
    // Synthesize once into the codec's working copy, then copy once into
    // the pooled wire buffer (pooled chunks co-locate their header with the
    // bytes, so a foreign vector cannot be adopted without a copy).
    window_data_.push_back(synth_payload_bytes(w, i, config_.packet_bytes));
    payload = net::BufferRef::copy_of(window_data_.back());
    if (window_data_.size() == config_.data_per_window) {
      auto parity = codec_->encode_window(window_data_);
      window_parity_.clear();
      for (auto& p : parity) {
        window_parity_.push_back(net::BufferRef::copy_of(p));
      }
      window_data_.clear();
    }
  } else {
    HG_ASSERT(window_parity_.size() == config_.parity_per_window);
    payload = window_parity_[i - config_.data_per_window];
  }

  publish_(gossip::Event{id, std::move(payload)});
  advance_cursor();
}

void StreamSource::advance_cursor() {
  if (next_index_ + 1u < config_.window_packets()) {
    ++next_index_;
  } else {
    next_index_ = 0;
    ++next_window_;
    if (next_window_ >= windows_total_) return;
  }
  const gossip::EventId next = packet_id(next_window_, next_index_);
  const sim::SimTime at = publish_time(next);
  sim_.at(at, [this]() { emit_next(); });
}

}  // namespace hg::stream
