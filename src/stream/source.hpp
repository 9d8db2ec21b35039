// The stream source (broadcaster).
//
// Emits packets at the effective (FEC-coded) stream rate: window w's data
// packets first, then its parity packets, all evenly spaced — 600 kbps for
// the paper's 551 kbps + 9/101 FEC overhead. Each packet is published into
// the node's gossip engine (Algorithm 1 `publish`).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "fec/window_codec.hpp"
#include "sim/simulator.hpp"
#include "stream/packet.hpp"

namespace hg::stream {

class StreamSource {
 public:
  using PublishFn = std::function<void(gossip::Event)>;

  // `codec` encodes the parity of a real-payload stream and is required
  // exactly when config.real_payloads is set; it is shared, not copied, so it
  // must outlive the source.
  StreamSource(sim::Simulator& simulator, StreamConfig config, PublishFn publish,
               const fec::WindowCodec* codec = nullptr);

  // Streams `windows` complete FEC windows, starting `initial_delay` from
  // now.
  void start(sim::SimTime initial_delay, std::uint32_t windows);
  void stop();

  // Publication time of a packet (known a priori: the schedule is fixed).
  [[nodiscard]] sim::SimTime publish_time(gossip::EventId id) const;
  // When the last packet of `window` is published — the reference point for
  // stream-lag measurement of that window.
  [[nodiscard]] sim::SimTime window_complete_time(std::uint32_t window) const;

  [[nodiscard]] std::uint32_t windows_total() const { return windows_total_; }
  [[nodiscard]] const StreamConfig& config() const { return config_; }
  [[nodiscard]] const fec::WindowCodec* codec() const { return codec_; }

 private:
  void emit_next();
  // Advances the (window, index) cursor and self-schedules the next emit.
  void advance_cursor();

  sim::Simulator& sim_;
  StreamConfig config_;
  PublishFn publish_;
  const fec::WindowCodec* codec_;  // only in real-payload mode

  sim::SimTime t0_;  // publication time of packet (0,0)
  std::uint32_t windows_total_ = 0;
  std::uint32_t next_window_ = 0;
  std::uint16_t next_index_ = 0;
  bool stopped_ = false;
  // Real mode: data packets of the in-progress window, for parity encoding.
  std::vector<std::vector<std::uint8_t>> window_data_;
  std::vector<net::BufferRef> window_parity_;
};

}  // namespace hg::stream
