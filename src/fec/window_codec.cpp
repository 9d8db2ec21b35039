#include "fec/window_codec.hpp"

#include "common/assert.hpp"

namespace hg::fec {

WindowCodecConfig WindowCodec::validated(WindowCodecConfig config) {
  // Validate here, before the ReedSolomon member is built: a bad config must
  // fail with a message naming the codec contract, not an assert inside the
  // ReedSolomon constructor.
  HG_ASSERT_MSG(config.data_per_window >= 1, "window needs at least one data packet");
  HG_ASSERT_MSG(config.data_per_window + config.parity_per_window <= 255,
                "GF(256) windows hold at most 255 packets");
  HG_ASSERT_MSG(config.packet_bytes > 0, "packet_bytes must be positive");
  return config;
}

WindowCodec::WindowCodec(WindowCodecConfig config)
    : config_(validated(config)), rs_(config.data_per_window, config.parity_per_window) {}

std::vector<std::vector<std::uint8_t>> WindowCodec::encode_window(
    std::span<const std::vector<std::uint8_t>> data_packets) const {
  HG_ASSERT(data_packets.size() == config_.data_per_window);
  for (const auto& p : data_packets) HG_ASSERT(p.size() == config_.packet_bytes);
  return rs_.encode(data_packets);
}

std::optional<std::vector<std::vector<std::uint8_t>>> WindowCodec::repair_window(
    std::span<const ReedSolomon::ShardView> received) const {
  HG_ASSERT(received.size() == window_packets());
  return rs_.repair(received);
}

std::optional<std::vector<std::vector<std::uint8_t>>> WindowCodec::decode_window(
    std::span<const std::optional<std::vector<std::uint8_t>>> received) const {
  HG_ASSERT(received.size() == window_packets());
  return rs_.decode(received);
}

}  // namespace hg::fec
