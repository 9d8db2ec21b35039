#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "stream/lag_analyzer.hpp"
#include "stream/packet.hpp"
#include "stream/player.hpp"
#include "stream/source.hpp"

namespace hg::stream {
namespace {

StreamConfig tiny_stream() {
  StreamConfig cfg;
  cfg.packet_bytes = 100;
  cfg.data_per_window = 8;
  cfg.parity_per_window = 2;
  cfg.payload_rate_kbps = 64.0;  // window duration = 8*100*8/64000 = 0.1 s
  return cfg;
}

TEST(StreamConfig, PaperRates) {
  StreamConfig cfg;  // paper defaults
  EXPECT_NEAR(cfg.window_duration_sec(), 101.0 * 1316.0 * 8.0 / 551'000.0, 1e-9);
  EXPECT_NEAR(cfg.effective_rate_kbps(), 551.0 * 110.0 / 101.0, 1e-6);  // ~600 kbps
  EXPECT_NEAR(cfg.effective_rate_kbps(), 600.0, 1.0);
  // ~11.26 ids per 200 ms propose (paper §3.1).
  const double packets_per_200ms = 0.2 / cfg.packet_interval_sec();
  EXPECT_NEAR(packets_per_200ms, 11.26, 0.2);
}

TEST(StreamSource, EmitsAllPacketsOnSchedule) {
  sim::Simulator sim(1);
  std::vector<std::pair<gossip::EventId, sim::SimTime>> published;
  StreamSource source(sim, tiny_stream(),
                      [&](gossip::Event e) { published.emplace_back(e.id, sim.now()); });
  source.start(sim::SimTime::sec(1), 3);
  sim.run_until(sim::SimTime::sec(10));

  ASSERT_EQ(published.size(), 3u * 10u);
  EXPECT_EQ(published.front().first, (gossip::EventId{0, 0}));
  EXPECT_EQ(published.front().second, sim::SimTime::sec(1));
  EXPECT_EQ(published.back().first, (gossip::EventId{2, 9}));
  // The announced schedule matches actual emission times.
  for (const auto& [id, at] : published) {
    EXPECT_EQ(source.publish_time(id), at);
  }
}

TEST(StreamSource, EmissionRateMatchesEffectiveRate) {
  sim::Simulator sim(2);
  std::size_t count = 0;
  StreamSource source(sim, tiny_stream(), [&](gossip::Event) { ++count; });
  source.start(sim::SimTime::zero(), 10);
  sim.run_until(sim::SimTime::sec(0.5));
  // 0.1 s per window of 10 packets -> 100 packets per second.
  EXPECT_NEAR(static_cast<double>(count), 50.0, 2.0);
}

TEST(StreamSource, VirtualModePublishesDeclaredSizesOnly) {
  // Without real payloads the source stores no bytes: every event is
  // virtual, with a null payload and the packet size it declares.
  sim::Simulator sim(3);
  std::vector<gossip::Event> events;
  StreamSource source(sim, tiny_stream(), [&](gossip::Event e) { events.push_back(e); });
  source.start(sim::SimTime::zero(), 2);
  sim.run_until(sim::SimTime::sec(1));
  ASSERT_EQ(events.size(), 20u);
  for (const gossip::Event& e : events) {
    EXPECT_TRUE(e.virtual_payload());
    EXPECT_EQ(e.payload.data(), nullptr);
    EXPECT_EQ(e.payload_size(), tiny_stream().packet_bytes);
  }
}

TEST(StreamSource, RealModeParityDecodes) {
  auto cfg = tiny_stream();
  cfg.real_payloads = true;
  const fec::WindowCodec codec(fec::WindowCodecConfig{.data_per_window = cfg.data_per_window,
                                                      .parity_per_window = cfg.parity_per_window,
                                                      .packet_bytes = cfg.packet_bytes});
  sim::Simulator sim(4);
  std::vector<gossip::Event> events;
  StreamSource source(sim, cfg, [&](gossip::Event e) { events.push_back(e); }, &codec);
  EXPECT_EQ(source.codec(), &codec);  // borrowed, not rebuilt
  source.start(sim::SimTime::zero(), 1);
  sim.run_until(sim::SimTime::sec(1));
  ASSERT_EQ(events.size(), 10u);

  // Drop two data packets; decode from the rest via the same codec.
  std::vector<std::optional<std::vector<std::uint8_t>>> received(10);
  for (const auto& e : events) {
    if (e.id.index() == 1 || e.id.index() == 4) continue;
    received[e.id.index()] = e.payload.to_vector();
  }
  auto decoded = codec.decode_window(received);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ((*decoded)[1], synth_payload(0, 1, cfg.packet_bytes).to_vector());
  EXPECT_EQ((*decoded)[4], synth_payload(0, 4, cfg.packet_bytes).to_vector());
}

struct PlayerHarness {
  sim::Simulator sim{7};
  StreamConfig cfg = tiny_stream();
  Player player{sim, cfg, /*windows_total=*/4};

  void deliver(std::uint32_t w, std::uint16_t i, double at_sec) {
    sim.run_until(sim::SimTime::sec(at_sec));
    player.on_deliver(gossip::Event{packet_id(w, i), net::BufferRef{}});
  }
};

TEST(Player, CountsDistinctArrivals) {
  PlayerHarness h;
  h.deliver(0, 0, 1.0);
  h.deliver(0, 1, 1.1);
  h.deliver(0, 1, 1.2);  // duplicate
  EXPECT_EQ(h.player.window(0).received, 2u);
  EXPECT_EQ(h.player.duplicates(), 1u);
  EXPECT_EQ(h.player.window(0).data_received, 2u);
}

TEST(Player, DecodeTimeIsKthArrival) {
  PlayerHarness h;
  // k = 8: deliver 7 packets, then the 8th at t=2.0.
  for (std::uint16_t i = 0; i < 7; ++i) h.deliver(0, i, 1.0 + 0.01 * i);
  EXPECT_EQ(h.player.window(0).decode_time, sim::SimTime::max());
  h.deliver(0, 9, 2.0);  // a parity packet counts toward decodability
  EXPECT_EQ(h.player.window(0).decode_time, sim::SimTime::sec(2.0));
}

TEST(Player, SmartModeCancelsDecodedWindow) {
  PlayerHarness h;
  std::vector<std::uint32_t> cancelled;
  h.player.set_cancel_window([&](std::uint32_t w) { cancelled.push_back(w); });
  for (std::uint16_t i = 0; i < 8; ++i) h.deliver(0, i, 1.0);
  ASSERT_EQ(cancelled.size(), 1u);
  EXPECT_EQ(cancelled[0], 0u);
  // Further packets of window 0 are not wanted anymore.
  EXPECT_FALSE(h.player.should_request(packet_id(0, 8)));
  EXPECT_TRUE(h.player.should_request(packet_id(1, 0)));
}

TEST(Player, DumbModeKeepsRequesting) {
  PlayerHarness h;
  h.player.set_smart(false);
  for (std::uint16_t i = 0; i < 8; ++i) h.deliver(0, i, 1.0);
  EXPECT_TRUE(h.player.should_request(packet_id(0, 8)));
}

TEST(Player, DataArrivedByDeadline) {
  PlayerHarness h;
  h.deliver(0, 0, 1.0);
  h.deliver(0, 1, 2.0);
  h.deliver(0, 9, 2.5);  // parity: not a data packet
  EXPECT_EQ(h.player.data_arrived_by(0, sim::SimTime::sec(1.5)), 1u);
  EXPECT_EQ(h.player.data_arrived_by(0, sim::SimTime::sec(3.0)), 2u);
}

// --- LagAnalyzer over a scripted source+player pair ----------------------

struct AnalyzerHarness {
  sim::Simulator sim{8};
  StreamConfig cfg = tiny_stream();
  std::unique_ptr<StreamSource> source;
  std::unique_ptr<Player> player;
  std::unique_ptr<LagAnalyzer> analyzer;

  // Window timing: w0 completes at 0.1 s, w1 at 0.2 s, w2 at 0.3 s.
  AnalyzerHarness() {
    source = std::make_unique<StreamSource>(sim, cfg, [](gossip::Event) {});
    source->start(sim::SimTime::zero(), 3);
    player = std::make_unique<Player>(sim, cfg, 3);
    analyzer = std::make_unique<LagAnalyzer>(*source);
    sim.run_until(sim::SimTime::sec(1));  // let the source finish
  }

  void arrive(std::uint32_t w, std::uint16_t i, double at_sec) {
    // Directly inject an arrival at a scripted time (time moves forward).
    sim.run_until(sim::SimTime::sec(at_sec));
    player->on_deliver(gossip::Event{packet_id(w, i), net::BufferRef{}});
  }
};

TEST(LagAnalyzer, WindowDecodeLags) {
  AnalyzerHarness h;
  // Window 0 (completes 0.1 s): 8 packets by 1.6 s -> lag 1.5 s.
  for (std::uint16_t i = 0; i < 8; ++i) h.arrive(0, i, 1.6);
  // Window 1: never decodable (7 < 8 packets).
  for (std::uint16_t i = 0; i < 7; ++i) h.arrive(1, i, 1.7);
  // Window 2 (completes ~0.3 s): decodable at 2.3 -> lag 2.0 s.
  for (std::uint16_t i = 0; i < 8; ++i) h.arrive(2, i, 2.3);

  const auto lags = h.analyzer->window_decode_lags(*h.player);
  ASSERT_EQ(lags.size(), 3u);
  EXPECT_NEAR(lags[0], 1.5, 0.02);
  EXPECT_TRUE(std::isinf(lags[1]));
  EXPECT_NEAR(lags[2], 2.0, 0.02);

  EXPECT_NEAR(h.analyzer->jitter_fraction(*h.player, 1.8), 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(h.analyzer->jitter_fraction(*h.player, 2.1), 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(h.analyzer->jitter_fraction_offline(*h.player), 1.0 / 3.0, 1e-9);
  // A fully jitter-free stream is unreachable (window 1 lost).
  EXPECT_FALSE(h.analyzer->lag_to_jitter_at_most(*h.player, 0.0).has_value());
  // Allowing 1/3 jitter: need the 2nd smallest lag.
  const auto lag13 = h.analyzer->lag_to_jitter_at_most(*h.player, 0.34);
  ASSERT_TRUE(lag13.has_value());
  EXPECT_NEAR(*lag13, 2.0, 0.02);
}

TEST(LagAnalyzer, DeliveryInJitteredWindows) {
  AnalyzerHarness h;
  // All three windows jittered at lag 0.05 (nothing arrives that fast).
  // Window 0: 4 of 8 data packets by deadline+lag... use lag 10 s with
  // window 1 having 7 data packets (jittered but 7/8 delivered).
  for (std::uint16_t i = 0; i < 8; ++i) h.arrive(0, i, 1.0);   // decodable
  for (std::uint16_t i = 0; i < 7; ++i) h.arrive(1, i, 1.0);   // jittered, 7/8
  for (std::uint16_t i = 0; i < 2; ++i) h.arrive(2, i, 1.0);   // jittered, 2/8
  const auto ratio = h.analyzer->mean_delivery_in_jittered(*h.player, 10.0);
  ASSERT_TRUE(ratio.has_value());
  EXPECT_NEAR(*ratio, (7.0 / 8.0 + 2.0 / 8.0) / 2.0, 1e-9);
}

TEST(LagAnalyzer, PacketLagsUseDecodeRecovery) {
  AnalyzerHarness h;
  // Window 0: packets 0..6 arrive at 1.0; packet 7 never arrives directly,
  // but parity 8 arrives at 2.0 making the window decodable then.
  for (std::uint16_t i = 0; i < 7; ++i) h.arrive(0, i, 1.0);
  h.arrive(0, 8, 2.0);
  const auto lags = h.analyzer->packet_delivery_lags(*h.player);
  // 3 windows x 8 data packets.
  ASSERT_EQ(lags.size(), 24u);
  // Packet (0,7) became viewable via decode at t=2.0.
  const double publish_7 =
      h.analyzer->packet_publish_time(packet_id(0, 7)).as_sec();
  EXPECT_NEAR(lags[7], 2.0 - publish_7, 0.02);
  // Window 1 and 2 packets: never viewable.
  EXPECT_TRUE(std::isinf(lags[8]));

  const auto lag99 = h.analyzer->lag_to_stream_fraction(*h.player, 0.33);
  ASSERT_TRUE(lag99.has_value());
  EXPECT_FALSE(h.analyzer->lag_to_stream_fraction(*h.player, 0.99).has_value());
}

TEST(LagAnalyzer, PerWindowDecodePercent) {
  AnalyzerHarness h;
  for (std::uint16_t i = 0; i < 8; ++i) h.arrive(0, i, 1.0);
  const Player* players[] = {h.player.get()};
  const auto pct = h.analyzer->per_window_decode_percent(players, 100.0, 1);
  ASSERT_EQ(pct.size(), 3u);
  EXPECT_DOUBLE_EQ(pct[0], 100.0);
  EXPECT_DOUBLE_EQ(pct[1], 0.0);
  // Against a population of 2, the same window counts 50%.
  const auto pct2 = h.analyzer->per_window_decode_percent(players, 100.0, 2);
  EXPECT_DOUBLE_EQ(pct2[0], 50.0);
}

}  // namespace
}  // namespace hg::stream
