// Online FEC decoding as a member of a receiver's stack.
//
// The player records *when* packets arrive; FecModule reconstructs *what*
// arrived. It keeps each window's delivered packets as the delivered
// net::BufferRef — the gossip store already holds the same bytes, so a shard
// costs a refcount, not a copy — and, the moment any k of the n coded
// packets are present (the MDS counting rule), repairs the window through
// byte views: only the missing data packets are rebuilt from parity, the
// window's k data packets are handed to an optional sink as views, and the
// shard references are dropped. core::NodeRuntime hands it each delivery
// right after the player, so decode happens at exactly the arrival the
// player stamps as decode_time — and on which, in smart mode, the player
// cancels the window's outstanding requests and retransmit timers.
//
// Only meaningful in real-payload deployments (there are no bytes to decode
// in virtual runs — decodability there is pure counting, which the player
// already does); Deployment mounts it on receivers iff
// StreamConfig::real_payloads is set, all of them sharing the deployment's
// one codec.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "fec/window_codec.hpp"
#include "gossip/messages.hpp"
#include "net/buffer.hpp"

namespace hg::stream {

class FecModule {
 public:
  // Receives each window's k data packets, in index order, immediately after
  // its decode succeeds. The views are valid only during the call.
  using WindowSink = std::function<void(std::uint32_t window,
                                        std::span<const std::span<const std::uint8_t>> data)>;

  struct Stats {
    std::uint64_t windows_decoded = 0;    // windows fully reconstructed
    std::uint64_t windows_complete = 0;   // of those, needed no repair (all data arrived)
    std::uint64_t erasures_repaired = 0;  // data packets rebuilt from parity
    std::uint64_t decode_failures = 0;    // RS rejected the shard set (untrusted wire)
    std::uint64_t malformed_packets = 0;  // payload size != packet_bytes, dropped
  };

  // `codec` is shared, not copied: it must outlive the module.
  FecModule(const fec::WindowCodec& codec, std::uint32_t windows_total)
      : codec_(codec), windows_(windows_total) {}

  // One delivered event; ids outside the stream's windows are ignored.
  void on_deliver(const gossip::Event& event);

  void set_window_sink(WindowSink sink) { sink_ = std::move(sink); }

  [[nodiscard]] bool window_decoded(std::uint32_t w) const {
    return w < windows_.size() && windows_[w].decoded;
  }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const fec::WindowCodec& codec() const { return codec_; }

 private:
  struct WindowState {
    // Lazily sized to window_packets on the window's first arrival (an empty
    // ref is a packet not yet arrived), released after a successful decode —
    // steady state pins only in-flight windows.
    std::vector<net::BufferRef> shards;
    std::uint32_t present = 0;
    bool decoded = false;
  };

  void try_decode(std::uint32_t w);

  const fec::WindowCodec& codec_;
  std::vector<WindowState> windows_;
  Stats stats_;
  WindowSink sink_;
};

}  // namespace hg::stream
