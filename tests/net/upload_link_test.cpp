#include "net/upload_link.hpp"

#include <gtest/gtest.h>

#include "sim/simulator.hpp"

namespace hg::net {
namespace {

BufferRef make_bytes(std::size_t n) {
  return BufferRef::copy_of(std::vector<std::uint8_t>(n, 0xaa));
}

Datagram make_datagram(std::size_t body, MsgClass cls = MsgClass::kServe) {
  return Datagram{NodeId{0}, NodeId{1}, cls, 0, make_bytes(body), {}};
}

TEST(UploadLink, TransmissionTakesWireTime) {
  sim::Simulator s(1);
  std::vector<sim::SimTime> sent_at;
  // 1000 bits/sec; body 97 B + 28 B overhead = 125 B = 1000 bits -> 1 s each.
  UploadLink link(s, BitRate::bps(1000), QueueDiscipline::kFifo,
                  [&](Datagram&&) { sent_at.push_back(s.now()); });
  link.enqueue(make_datagram(97));
  link.enqueue(make_datagram(97));
  s.run_until(sim::SimTime::sec(10));
  ASSERT_EQ(sent_at.size(), 2u);
  EXPECT_EQ(sent_at[0], sim::SimTime::sec(1));
  EXPECT_EQ(sent_at[1], sim::SimTime::sec(2));
}

TEST(UploadLink, QueueDrainsInFifoOrder) {
  sim::Simulator s(1);
  std::vector<MsgClass> order;
  UploadLink link(s, BitRate::kbps(1000), QueueDiscipline::kFifo,
                  [&](Datagram&& d) { order.push_back(d.cls); });
  link.enqueue(make_datagram(500, MsgClass::kServe));
  link.enqueue(make_datagram(50, MsgClass::kPropose));
  link.enqueue(make_datagram(500, MsgClass::kServe));
  link.enqueue(make_datagram(50, MsgClass::kRequest));
  s.run_until(sim::SimTime::sec(10));
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], MsgClass::kServe);
  EXPECT_EQ(order[1], MsgClass::kPropose);
  EXPECT_EQ(order[2], MsgClass::kServe);
  EXPECT_EQ(order[3], MsgClass::kRequest);
}

TEST(UploadLink, ControlPriorityJumpsPayload) {
  sim::Simulator s(1);
  std::vector<MsgClass> order;
  UploadLink link(s, BitRate::kbps(1000), QueueDiscipline::kControlPriority,
                  [&](Datagram&& d) { order.push_back(d.cls); });
  // First serve starts transmitting immediately; the rest queue.
  link.enqueue(make_datagram(500, MsgClass::kServe));
  link.enqueue(make_datagram(500, MsgClass::kServe));
  link.enqueue(make_datagram(50, MsgClass::kPropose));
  s.run_until(sim::SimTime::sec(10));
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], MsgClass::kServe);    // already in service
  EXPECT_EQ(order[1], MsgClass::kPropose);  // jumped the queued serve
  EXPECT_EQ(order[2], MsgClass::kServe);
}

TEST(UploadLink, ThroughputMatchesCapacity) {
  sim::Simulator s(1);
  std::int64_t wire_bytes = 0;
  UploadLink link(s, BitRate::kbps(512), QueueDiscipline::kFifo,
                  [&](Datagram&& d) { wire_bytes += d.wire_bytes(); });
  // Offer 2x the capacity for 10 s.
  for (int i = 0; i < 100; ++i) link.enqueue(make_datagram(1316 - 28));
  s.run_until(sim::SimTime::sec(10));
  // 512 kbps * 10 s = 640000 bytes capacity; offered 131600 bytes, which
  // takes ~2.05 s — all of it must get through.
  EXPECT_EQ(wire_bytes, 100 * 1316);

  // Now saturate: enqueue far more than 10 s worth and check the drain rate.
  const std::int64_t before = wire_bytes;
  for (int i = 0; i < 10000; ++i) link.enqueue(make_datagram(1316 - 28));
  s.run_until(sim::SimTime::sec(20));
  const std::int64_t sent = wire_bytes - before;
  const double rate_bps = static_cast<double>(sent) * 8.0 / 10.0;
  EXPECT_NEAR(rate_bps, 512'000.0, 512000.0 * 0.01);
}

TEST(UploadLink, NeverExceedsCapacity) {
  sim::Simulator s(1);
  std::int64_t bytes = 0;
  UploadLink link(s, BitRate::kbps(256), QueueDiscipline::kFifo,
                  [&](Datagram&& d) { bytes += d.wire_bytes(); });
  for (int i = 0; i < 1000; ++i) link.enqueue(make_datagram(1288));
  s.run_until(sim::SimTime::sec(5));
  // "nodes do never exceed their given upload capability" (paper §3.1)
  EXPECT_LE(static_cast<double>(bytes) * 8.0, 256'000.0 * 5.0 * 1.001);
}

TEST(UploadLink, QueueDelayTracked) {
  sim::Simulator s(1);
  UploadLink link(s, BitRate::bps(1000), QueueDiscipline::kFifo, [](Datagram&&) {});
  link.enqueue(make_datagram(97));  // 1 s wire time
  link.enqueue(make_datagram(97));  // waits 1 s
  s.run_until(sim::SimTime::sec(5));
  EXPECT_EQ(link.max_queue_delay(), sim::SimTime::sec(1));
}

TEST(UploadLink, ShutdownDiscardsQueue) {
  sim::Simulator s(1);
  int delivered = 0;
  UploadLink link(s, BitRate::bps(1000), QueueDiscipline::kFifo,
                  [&](Datagram&&) { ++delivered; });
  for (int i = 0; i < 10; ++i) link.enqueue(make_datagram(97));
  s.run_until(sim::SimTime::ms(1500));  // first datagram got out
  link.shutdown();
  s.run_until(sim::SimTime::sec(60));
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(link.queue_len(), 0u);
}

TEST(UploadLink, UnlimitedCapacityIsImmediate) {
  sim::Simulator s(1);
  std::vector<sim::SimTime> at;
  UploadLink link(s, BitRate::unlimited(), QueueDiscipline::kFifo,
                  [&](Datagram&&) { at.push_back(s.now()); });
  for (int i = 0; i < 5; ++i) link.enqueue(make_datagram(100000));
  s.run_until(sim::SimTime::ms(1));
  ASSERT_EQ(at.size(), 5u);
  for (const auto& t : at) EXPECT_EQ(t, sim::SimTime::zero());
}

}  // namespace
}  // namespace hg::net
