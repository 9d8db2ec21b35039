#include "fec/window_codec.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace hg::fec {
namespace {

WindowCodecConfig small_config() {
  return WindowCodecConfig{.data_per_window = 7, .parity_per_window = 3, .packet_bytes = 100};
}

std::vector<std::vector<std::uint8_t>> random_window(const WindowCodecConfig& cfg, Rng& rng) {
  std::vector<std::vector<std::uint8_t>> pkts(cfg.data_per_window,
                                              std::vector<std::uint8_t>(cfg.packet_bytes));
  for (auto& p : pkts) {
    for (auto& b : p) b = static_cast<std::uint8_t>(rng.below(256));
  }
  return pkts;
}

TEST(WindowCodec, PaperDefaults) {
  WindowCodec codec(WindowCodecConfig{});
  EXPECT_EQ(codec.config().data_per_window, 101u);
  EXPECT_EQ(codec.config().parity_per_window, 9u);
  EXPECT_EQ(codec.config().packet_bytes, 1316u);
  EXPECT_EQ(codec.window_packets(), 110u);
}

TEST(WindowCodec, PaperGeometryParityIsPinned) {
  // The parity bytes of one fixed paper-geometry window, pinned as a
  // FNV-1a-64 of the 9 parity packets in order: no generator or kernel change
  // may alter a byte on the wire. The benchmark digests never see payload
  // bytes, so this is their only guard.
  WindowCodec codec(WindowCodecConfig{});
  const WindowCodecConfig& cfg = codec.config();
  std::vector<std::vector<std::uint8_t>> data(cfg.data_per_window,
                                              std::vector<std::uint8_t>(cfg.packet_bytes));
  for (std::size_t p = 0; p < data.size(); ++p) {
    for (std::size_t i = 0; i < cfg.packet_bytes; ++i) {
      data[p][i] = static_cast<std::uint8_t>(p * 131 + i * 7 + 3);
    }
  }
  const auto parity = codec.encode_window(data);
  ASSERT_EQ(parity.size(), 9u);
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const auto& packet : parity) {
    for (const std::uint8_t b : packet) {
      hash ^= b;
      hash *= 0x100000001b3ull;
    }
  }
  EXPECT_EQ(hash, 0xe1c3c2fd53ef2b23ull);
}

TEST(WindowCodec, DecodableIsCountingRule) {
  WindowCodec codec(small_config());
  EXPECT_FALSE(codec.decodable(0));
  EXPECT_FALSE(codec.decodable(6));
  EXPECT_TRUE(codec.decodable(7));
  EXPECT_TRUE(codec.decodable(10));
}

TEST(WindowCodec, RoundTripWithErasures) {
  Rng rng(1);
  const auto cfg = small_config();
  WindowCodec codec(cfg);
  auto data = random_window(cfg, rng);
  auto parity = codec.encode_window(data);
  ASSERT_EQ(parity.size(), cfg.parity_per_window);

  std::vector<std::optional<std::vector<std::uint8_t>>> received(codec.window_packets());
  for (std::size_t i = 0; i < cfg.data_per_window; ++i) received[i] = data[i];
  for (std::size_t i = 0; i < cfg.parity_per_window; ++i) {
    received[cfg.data_per_window + i] = parity[i];
  }
  // Drop 3 (== parity count).
  received[0].reset();
  received[3].reset();
  received[8].reset();

  auto out = codec.decode_window(received);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, data);
}

TEST(WindowCodec, UndecodableBelowThreshold) {
  Rng rng(2);
  const auto cfg = small_config();
  WindowCodec codec(cfg);
  auto data = random_window(cfg, rng);
  auto parity = codec.encode_window(data);
  std::vector<std::optional<std::vector<std::uint8_t>>> received(codec.window_packets());
  // Only 6 of 7 required packets arrive.
  for (std::size_t i = 0; i < 4; ++i) received[i] = data[i];
  received[7] = parity[0];
  received[8] = parity[1];
  EXPECT_FALSE(codec.decode_window(received).has_value());
}

TEST(WindowCodecDeathTest, RejectsInvalidConfigsUpFront) {
  // Validation happens in the codec's own ctor, before ReedSolomon is
  // built, with messages naming the codec contract.
  EXPECT_DEATH(WindowCodec(WindowCodecConfig{.data_per_window = 200,
                                             .parity_per_window = 56,
                                             .packet_bytes = 100}),
               "at most 255 packets");
  EXPECT_DEATH(WindowCodec(WindowCodecConfig{.data_per_window = 7,
                                             .parity_per_window = 3,
                                             .packet_bytes = 0}),
               "packet_bytes");
  EXPECT_DEATH(WindowCodec(WindowCodecConfig{.data_per_window = 0,
                                             .parity_per_window = 3,
                                             .packet_bytes = 100}),
               "at least one data packet");
}

TEST(WindowCodec, ParityFreeCodecNeedsEveryPacket) {
  // parity == 0 is the retransmission-only ablation arm: nothing is
  // repairable, so the window decodes iff every (data) packet arrived, and
  // decodable() stays clamped to the window size.
  Rng rng(4);
  const WindowCodecConfig cfg{.data_per_window = 5, .parity_per_window = 0, .packet_bytes = 64};
  WindowCodec codec(cfg);
  EXPECT_EQ(codec.window_packets(), 5u);
  EXPECT_FALSE(codec.decodable(4));
  EXPECT_TRUE(codec.decodable(5));
  EXPECT_TRUE(codec.decodable(6));  // overcount clamps to the window size

  auto data = random_window(cfg, rng);
  EXPECT_TRUE(codec.encode_window(data).empty());

  std::vector<std::optional<std::vector<std::uint8_t>>> received(codec.window_packets());
  for (std::size_t i = 0; i < cfg.data_per_window; ++i) received[i] = data[i];
  auto out = codec.decode_window(received);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, data);

  received[2].reset();  // one missing packet is unrecoverable without parity
  EXPECT_FALSE(codec.decode_window(received).has_value());
}

TEST(WindowCodec, DecodeRejectsMixedLengthShards) {
  // Shards come off the wire: a wrong-length shard must make the decode
  // fail cleanly (nullopt), never abort or produce a malformed window.
  Rng rng(5);
  const auto cfg = small_config();
  WindowCodec codec(cfg);
  auto data = random_window(cfg, rng);
  auto parity = codec.encode_window(data);

  std::vector<std::optional<std::vector<std::uint8_t>>> received(codec.window_packets());
  for (std::size_t i = 0; i < cfg.data_per_window; ++i) received[i] = data[i];
  received[2]->pop_back();  // all-data fast path sees a short shard
  EXPECT_FALSE(codec.decode_window(received).has_value());

  received[2] = data[2];  // restore, then break the reconstruction path
  received[0].reset();
  received[cfg.data_per_window] = parity[0];
  received[cfg.data_per_window]->push_back(0);
  EXPECT_FALSE(codec.decode_window(received).has_value());
}

TEST(WindowCodec, SystematicPacketsPassThrough) {
  // Even an undecodable window yields whatever raw data packets arrived —
  // the property behind the paper's "delivery ratio in jittered windows".
  Rng rng(3);
  const auto cfg = small_config();
  WindowCodec codec(cfg);
  auto data = random_window(cfg, rng);
  auto parity = codec.encode_window(data);
  // The data packets ARE the first k coded packets, unmodified.
  std::vector<std::optional<std::vector<std::uint8_t>>> received(codec.window_packets());
  for (std::size_t i = 0; i < cfg.data_per_window; ++i) received[i] = data[i];
  for (std::size_t i = 0; i < cfg.parity_per_window; ++i) {
    received[cfg.data_per_window + i] = parity[i];
  }
  auto out = codec.decode_window(received);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, data);
}

}  // namespace
}  // namespace hg::fec
