// Stream packet identity and payload synthesis.
//
// A stream is a sequence of FEC windows; window w consists of packets
// (w, 0..k-1) = data and (w, k..n-1) = parity, mapped 1:1 onto gossip
// EventIds. Payloads are either real bytes (data deterministic per id,
// parity Reed-Solomon-encoded; integration tests verify decode fidelity) or
// virtual: no bytes at all, only a declared size that the wire still
// carries (every run where only arrival times matter).
#pragma once

#include <cstdint>

#include "gossip/messages.hpp"
#include "net/buffer.hpp"

namespace hg::stream {

struct StreamConfig {
  std::size_t packet_bytes = 1316;     // paper §3.1
  std::size_t data_per_window = 101;   // buffered stream packets per window
  std::size_t parity_per_window = 9;   // FEC packets per window
  double payload_rate_kbps = 551.0;    // pre-FEC stream rate
  // true: actual RS coding end to end. false: virtual payloads — events
  // declare packet_bytes but store no payload at all (see gossip::Event),
  // and every node's GossipConfig sets virtual_payloads to match.
  bool real_payloads = false;

  [[nodiscard]] std::size_t window_packets() const {
    return data_per_window + parity_per_window;
  }
  // Time to produce one window of payload at the stream rate.
  [[nodiscard]] double window_duration_sec() const {
    return static_cast<double>(data_per_window * packet_bytes * 8) /
           (payload_rate_kbps * 1000.0);
  }
  // Packet emission interval on the coded stream (data+parity evenly spaced,
  // 600 kbps effective for the paper's parameters).
  [[nodiscard]] double packet_interval_sec() const {
    return window_duration_sec() / static_cast<double>(window_packets());
  }
  [[nodiscard]] double effective_rate_kbps() const {
    return payload_rate_kbps * static_cast<double>(window_packets()) /
           static_cast<double>(data_per_window);
  }
};

[[nodiscard]] inline gossip::EventId packet_id(std::uint32_t window, std::uint16_t index) {
  return gossip::EventId{window, index};
}

// Deterministic pseudo-random data payload for (window, index): the decoder
// side can verify reconstructed windows byte-for-byte without shipping a
// reference stream around. The vector form feeds the FEC codec; the
// BufferRef form is the same bytes as a pooled wire buffer.
[[nodiscard]] std::vector<std::uint8_t> synth_payload_bytes(std::uint32_t window,
                                                            std::uint16_t index,
                                                            std::size_t bytes);
[[nodiscard]] net::BufferRef synth_payload(std::uint32_t window, std::uint16_t index,
                                           std::size_t bytes);

}  // namespace hg::stream
