// Per-node traffic accounting.
//
// Everything Fig. 4 reports ("average bandwidth usage by class") derives
// from these counters: wire bytes (payload + UDP/IP overhead) that actually
// left the node's upload link, broken down by traffic class.
#pragma once

#include <array>
#include <cstdint>

#include "net/datagram.hpp"

namespace hg::net {

class TrafficMeter {
 public:
  // Accepted into the upload queue (offered load, may exceed capacity).
  void on_offered(MsgClass cls, std::int64_t wire_bytes) {
    auto& c = offered_[static_cast<std::size_t>(cls)];
    c.msgs += 1;
    c.bytes += wire_bytes;
  }
  // Fully transmitted onto the wire (can never exceed capacity * time).
  void on_sent(MsgClass cls, std::int64_t wire_bytes) {
    auto& c = sent_[static_cast<std::size_t>(cls)];
    c.msgs += 1;
    c.bytes += wire_bytes;
  }
  void on_received(MsgClass cls, std::int64_t wire_bytes) {
    auto& c = recv_[static_cast<std::size_t>(cls)];
    c.msgs += 1;
    c.bytes += wire_bytes;
  }
  void on_dropped_in_flight(std::int64_t wire_bytes) {
    dropped_msgs_ += 1;
    dropped_bytes_ += wire_bytes;
  }

  struct Counter {
    std::uint64_t msgs = 0;
    std::int64_t bytes = 0;
  };

  [[nodiscard]] Counter sent(MsgClass cls) const {
    return sent_[static_cast<std::size_t>(cls)];
  }
  [[nodiscard]] Counter offered(MsgClass cls) const {
    return offered_[static_cast<std::size_t>(cls)];
  }
  [[nodiscard]] std::int64_t total_offered_bytes() const {
    std::int64_t total = 0;
    for (const auto& c : offered_) total += c.bytes;
    return total;
  }
  [[nodiscard]] Counter received(MsgClass cls) const {
    return recv_[static_cast<std::size_t>(cls)];
  }
  [[nodiscard]] std::int64_t total_sent_bytes() const {
    std::int64_t total = 0;
    for (const auto& c : sent_) total += c.bytes;
    return total;
  }
  [[nodiscard]] std::int64_t total_received_bytes() const {
    std::int64_t total = 0;
    for (const auto& c : recv_) total += c.bytes;
    return total;
  }
  [[nodiscard]] std::uint64_t dropped_msgs() const { return dropped_msgs_; }

 private:
  static constexpr std::size_t kClasses = static_cast<std::size_t>(MsgClass::kCount_);
  std::array<Counter, kClasses> offered_{};
  std::array<Counter, kClasses> sent_{};
  std::array<Counter, kClasses> recv_{};
  std::uint64_t dropped_msgs_ = 0;
  std::int64_t dropped_bytes_ = 0;
};

}  // namespace hg::net
