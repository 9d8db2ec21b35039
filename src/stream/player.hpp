// The receiving side of the streaming application.
//
// Records the arrival time of every distinct stream packet. All of the
// paper's metrics are *post-hoc* functions of these timestamps (one run
// yields the jitter/lag curves at every lag simultaneously):
//   - a window is decodable at lag L iff >= k of its packets arrived by
//     (window publish-complete time + L)   [MDS counting rule]
//   - stream quality at lag L = fraction of windows decodable at L
//   - delivery ratio inside a jittered window = data packets arrived by the
//     deadline / k (systematic code: raw data packets remain viewable)
//
// In "smart receiver" mode (default, matching a real player), the player
// (a) tells the gossip engine to stop requesting packets of a window that
// is already decodable — those serves would be pure waste — and (b) keeps a
// per-window request budget: it grants requests only while
// received + outstanding < k + slack, because any k of the n coded packets
// decode the window. Grants expire after a TTL so a permanently lost serve
// cannot wedge the budget.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "gossip/messages.hpp"
#include "gossip/window_ring.hpp"
#include "sim/simulator.hpp"
#include "stream/packet.hpp"

namespace hg::stream {

class Player {
 public:
  using CancelWindowFn = std::function<void(std::uint32_t window)>;

  // What the player records per packet:
  //   kFull — every packet's arrival timestamp (all post-hoc metrics work).
  //   kLean — a seen-bitmap plus per-window counters and decode times. The
  //           per-packet timestamp array (~windows * 110 * 8 B per node —
  //           the dominant per-node cost of a 100k-node run) is never
  //           allocated; jitter/decode-lag metrics remain exact, while
  //           per-packet queries (data_arrived_by, packet_delivery_lags)
  //           are unavailable and assert.
  enum class Recording { kFull, kLean };

  Player(sim::Simulator& simulator, StreamConfig config, std::uint32_t windows_total,
         Recording recording = Recording::kFull);

  // Wire into the gossip engine: deliver callback + request gate. A `true`
  // from should_request is a grant — the engine will request the id — so
  // the call mutates the budget accounting.
  void on_deliver(const gossip::Event& event);
  [[nodiscard]] bool should_request(gossip::EventId id);

  // Smart-receiver hook: invoked once per window when it becomes decodable.
  void set_cancel_window(CancelWindowFn fn) { cancel_window_ = std::move(fn); }
  void set_smart(bool smart) { smart_ = smart; }

  // --- post-run queries -------------------------------------------------
  struct WindowRecord {
    std::vector<sim::SimTime> arrival;  // per packet index; SimTime::max() = never
    std::uint32_t received = 0;         // distinct packets
    std::uint32_t data_received = 0;    // distinct data packets
    sim::SimTime decode_time = sim::SimTime::max();  // when k-th packet arrived
    std::vector<sim::SimTime> grant_times;           // outstanding request grants
  };

  [[nodiscard]] const WindowRecord& window(std::uint32_t w) const { return windows_[w]; }
  [[nodiscard]] std::uint32_t windows_total() const {
    return static_cast<std::uint32_t>(windows_.size());
  }

  // Is window w decodable by `deadline`?
  [[nodiscard]] bool decodable_by(std::uint32_t w, sim::SimTime deadline) const {
    return windows_[w].decode_time <= deadline;
  }
  // Data packets of window w that arrived by `deadline` (<= k).
  [[nodiscard]] std::uint32_t data_arrived_by(std::uint32_t w, sim::SimTime deadline) const;

  [[nodiscard]] std::uint64_t packets_received() const { return packets_received_; }
  [[nodiscard]] std::uint64_t duplicates() const { return duplicates_; }
  [[nodiscard]] const StreamConfig& config() const { return config_; }
  [[nodiscard]] bool full_recording() const { return recording_ == Recording::kFull; }

 private:
  [[nodiscard]] bool seen(std::uint32_t window, std::uint16_t index) const {
    return seen_.contains(gossip::EventId{window, index});
  }
  void mark_seen(std::uint32_t window, std::uint16_t index) {
    seen_.insert(gossip::EventId{window, index});
  }

  sim::Simulator& sim_;
  StreamConfig config_;
  Recording recording_;
  std::vector<WindowRecord> windows_;
  // Lean mode: per-window packet dedup bitmaps, addressed by the same
  // (window, index) scheme the gossip rings use. The player measures the
  // whole stream, so the ring spans every window and its base never
  // advances. Empty (zero windows) in full-recording mode.
  gossip::WindowRing<void> seen_;
  bool smart_ = true;
  CancelWindowFn cancel_window_;
  std::uint64_t packets_received_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint64_t requests_deferred_ = 0;

 public:
  [[nodiscard]] std::uint64_t requests_deferred() const { return requests_deferred_; }
};

}  // namespace hg::stream
