// FEC windowing for the streaming application.
//
// The paper's source groups 101 stream packets with 9 parity packets into a
// 110-packet window (systematic code): a window is decodable from any 101 of
// its 110 packets; because the code is systematic, even an undecodable
// window yields every raw data packet that did arrive.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "fec/reed_solomon.hpp"

namespace hg::fec {

struct WindowCodecConfig {
  std::size_t data_per_window = 101;
  std::size_t parity_per_window = 9;
  std::size_t packet_bytes = 1316;
};

class WindowCodec {
 public:
  explicit WindowCodec(WindowCodecConfig config);

  [[nodiscard]] const WindowCodecConfig& config() const { return config_; }
  [[nodiscard]] std::size_t window_packets() const {
    return config_.data_per_window + config_.parity_per_window;
  }

  // Encodes one window: input exactly data_per_window packets of
  // packet_bytes each; returns the parity packets.
  [[nodiscard]] std::vector<std::vector<std::uint8_t>> encode_window(
      std::span<const std::vector<std::uint8_t>> data_packets) const;

  // Views of whichever packets arrived (indexed 0..window_packets-1, data
  // first; nullopt = not arrived). Returns only the rebuilt data packets, in
  // index order — none when every data packet arrived — or std::nullopt if
  // the window is undecodable or the arrived packets differ in length.
  [[nodiscard]] std::optional<std::vector<std::vector<std::uint8_t>>> repair_window(
      std::span<const ReedSolomon::ShardView> received) const;

  // As repair_window, but from owned packets, returning all data packets.
  [[nodiscard]] std::optional<std::vector<std::vector<std::uint8_t>>> decode_window(
      std::span<const std::optional<std::vector<std::uint8_t>>> received) const;

  // Decodability is purely a counting property for an MDS code: any
  // data_per_window of the window's packets suffice. The count is clamped to
  // the window size so the degenerate parity == 0 codec (window_packets ==
  // data_per_window, nothing repairable) cannot be declared decodable by an
  // upstream overcount — it needs every packet, and no count above the window
  // size is meaningful.
  [[nodiscard]] bool decodable(std::size_t packets_received) const {
    const std::size_t clamped =
        packets_received < window_packets() ? packets_received : window_packets();
    return clamped >= config_.data_per_window;
  }

 private:
  // Asserts the config invariants (data >= 1, data + parity <= 255,
  // packet_bytes > 0); returns the config unchanged so it can run before
  // rs_ is constructed.
  static WindowCodecConfig validated(WindowCodecConfig config);

  WindowCodecConfig config_;
  ReedSolomon rs_;
};

}  // namespace hg::fec
