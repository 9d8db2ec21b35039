// FecModule: online decode-on-k-of-n over the events delivered to it.
#include "stream/fec_module.hpp"

#include <gtest/gtest.h>

#include "stream/packet.hpp"

namespace hg::stream {
namespace {

StreamConfig small_stream() {
  StreamConfig cfg;
  cfg.data_per_window = 5;
  cfg.parity_per_window = 3;
  cfg.packet_bytes = 64;
  cfg.real_payloads = true;
  return cfg;
}

fec::WindowCodecConfig codec_config(const StreamConfig& cfg) {
  return fec::WindowCodecConfig{.data_per_window = cfg.data_per_window,
                                .parity_per_window = cfg.parity_per_window,
                                .packet_bytes = cfg.packet_bytes};
}

// Pooled chunks currently owned by someone on this thread.
std::int64_t live_chunks() { return net::BufferPool::local().live_chunks(); }

std::vector<std::uint8_t> to_vector(std::span<const std::uint8_t> bytes) {
  return {bytes.begin(), bytes.end()};
}

struct Rig {
  fec::WindowCodec codec;  // outlives the FecModule, which borrows it
  FecModule fec;

  explicit Rig(StreamConfig cfg, std::uint32_t windows)
      : codec(codec_config(cfg)), fec(codec, windows) {}

  void deliver(std::uint32_t w, std::uint16_t i, const std::vector<std::uint8_t>& bytes) {
    fec.on_deliver(gossip::Event{gossip::EventId{w, i}, net::BufferRef::copy_of(bytes)});
  }
};

// One window's packets: data synthesized per id, parity RS-encoded — the
// exact bytes StreamSource publishes in real-payload mode.
struct CodedWindow {
  std::vector<std::vector<std::uint8_t>> data;
  std::vector<std::vector<std::uint8_t>> parity;

  CodedWindow(const StreamConfig& cfg, std::uint32_t w) {
    for (std::uint16_t i = 0; i < cfg.data_per_window; ++i) {
      data.push_back(synth_payload_bytes(w, i, cfg.packet_bytes));
    }
    parity = fec::WindowCodec(codec_config(cfg)).encode_window(data);
  }

  [[nodiscard]] const std::vector<std::uint8_t>& packet(const StreamConfig& cfg,
                                                        std::uint16_t i) const {
    return i < cfg.data_per_window ? data[i] : parity[i - cfg.data_per_window];
  }
};

TEST(FecModule, DecodesAtTheKthArrivalAndRepairsErasures) {
  const auto cfg = small_stream();
  Rig rig(cfg, 2);
  CodedWindow win(cfg, 0);

  std::uint32_t sink_calls = 0;
  rig.fec.set_window_sink(
      [&](std::uint32_t w, std::span<const std::span<const std::uint8_t>> decoded) {
        ++sink_calls;
        EXPECT_EQ(w, 0u);
        ASSERT_EQ(decoded.size(), cfg.data_per_window);
        for (std::uint16_t i = 0; i < cfg.data_per_window; ++i) {
          EXPECT_EQ(to_vector(decoded[i]), win.data[i]) << "packet " << i;
        }
      });

  // Data packets 1 and 3 are lost; parity 0 and 2 stand in. Exactly k = 5
  // packets arrive, decode must fire on the last one and not before.
  const std::uint16_t arrivals[] = {0, 2, 5, 4, 7};
  for (std::size_t a = 0; a < std::size(arrivals); ++a) {
    EXPECT_FALSE(rig.fec.window_decoded(0));
    rig.deliver(0, arrivals[a], win.packet(cfg, arrivals[a]));
  }
  EXPECT_TRUE(rig.fec.window_decoded(0));
  EXPECT_EQ(sink_calls, 1u);
  EXPECT_EQ(rig.fec.stats().windows_decoded, 1u);
  EXPECT_EQ(rig.fec.stats().erasures_repaired, 2u);  // data packets 1 and 3
  EXPECT_EQ(rig.fec.stats().windows_complete, 0u);
  EXPECT_EQ(rig.fec.stats().decode_failures, 0u);

  // Late arrivals to a decoded window are no-ops.
  rig.deliver(0, 1, win.packet(cfg, 1));
  EXPECT_EQ(sink_calls, 1u);
  EXPECT_EQ(rig.fec.stats().windows_decoded, 1u);
}

TEST(FecModule, AllDataWindowNeedsNoRepair) {
  const auto cfg = small_stream();
  Rig rig(cfg, 1);
  CodedWindow win(cfg, 0);
  for (std::uint16_t i = 0; i < cfg.data_per_window; ++i) {
    rig.deliver(0, i, win.data[i]);
  }
  EXPECT_TRUE(rig.fec.window_decoded(0));
  EXPECT_EQ(rig.fec.stats().windows_decoded, 1u);
  EXPECT_EQ(rig.fec.stats().windows_complete, 1u);
  EXPECT_EQ(rig.fec.stats().erasures_repaired, 0u);
}

TEST(FecModule, HoldsDeliveredBuffersUntilDecodeThenReleasesThem) {
  // Shards are the delivered pooled buffers themselves, not copies: each
  // pending shard pins exactly its chunk, and a decoded window pins nothing.
  const auto cfg = small_stream();
  Rig rig(cfg, 2);
  CodedWindow repaired(cfg, 0);
  CodedWindow complete(cfg, 1);
  std::vector<std::vector<std::vector<std::uint8_t>>> sunk(2);
  rig.fec.set_window_sink(
      [&](std::uint32_t w, std::span<const std::span<const std::uint8_t>> decoded) {
        for (const auto& packet : decoded) sunk[w].push_back(to_vector(packet));
      });

  const std::int64_t baseline = live_chunks();
  const std::uint16_t arrivals[] = {0, 6, 2, 7};  // k - 1 packets, data 1 and 3 missing
  for (std::size_t a = 0; a < std::size(arrivals); ++a) {
    rig.deliver(0, arrivals[a], repaired.packet(cfg, arrivals[a]));
    EXPECT_EQ(live_chunks(), baseline + static_cast<std::int64_t>(a) + 1);
  }
  rig.deliver(0, 4, repaired.packet(cfg, 4));  // the k-th packet decodes
  ASSERT_TRUE(rig.fec.window_decoded(0));
  EXPECT_EQ(live_chunks(), baseline);
  EXPECT_EQ(sunk[0], repaired.data);

  for (std::uint16_t i = 0; i < cfg.data_per_window; ++i) rig.deliver(1, i, complete.data[i]);
  ASSERT_TRUE(rig.fec.window_decoded(1));
  EXPECT_EQ(live_chunks(), baseline);
  EXPECT_EQ(sunk[1], complete.data);
  EXPECT_EQ(rig.fec.stats().windows_complete, 1u);
  EXPECT_EQ(rig.fec.stats().erasures_repaired, 2u);
}

TEST(FecModule, IgnoresDuplicatesMalformedAndOutOfRange) {
  const auto cfg = small_stream();
  Rig rig(cfg, 1);
  CodedWindow win(cfg, 0);

  rig.deliver(0, 0, win.data[0]);
  rig.deliver(0, 0, win.data[0]);  // duplicate: not counted twice
  rig.deliver(0, 1, std::vector<std::uint8_t>(cfg.packet_bytes - 1, 9));  // short
  rig.deliver(7, 0, win.data[0]);  // window beyond the stream: ignored
  EXPECT_EQ(rig.fec.stats().malformed_packets, 1u);
  EXPECT_FALSE(rig.fec.window_decoded(0));

  // The short packet was dropped, so index 1 is still repairable: complete
  // the window with the real remaining packets plus one parity.
  for (std::uint16_t i = 2; i < cfg.data_per_window; ++i) rig.deliver(0, i, win.data[i]);
  rig.deliver(0, 5, win.packet(cfg, 5));
  EXPECT_TRUE(rig.fec.window_decoded(0));
  EXPECT_EQ(rig.fec.stats().erasures_repaired, 1u);
  EXPECT_EQ(rig.fec.stats().decode_failures, 0u);
}

}  // namespace
}  // namespace hg::stream
