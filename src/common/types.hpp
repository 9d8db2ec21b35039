// Fundamental identifier types shared by every subsystem.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <limits>

namespace hg {

// Identifies a node (peer) in the system. The stream source is a node too.
// Strong type: implicit conversion from integers is not allowed, so a NodeId
// can never be confused with a fanout, an index or a count.
class NodeId {
 public:
  constexpr NodeId() = default;
  constexpr explicit NodeId(std::uint32_t v) : value_(v) {}

  [[nodiscard]] constexpr std::uint32_t value() const { return value_; }
  [[nodiscard]] constexpr bool valid() const { return value_ != kInvalid; }

  friend constexpr auto operator<=>(NodeId, NodeId) = default;

 private:
  static constexpr std::uint32_t kInvalid = std::numeric_limits<std::uint32_t>::max();
  std::uint32_t value_ = kInvalid;
};

inline constexpr NodeId kInvalidNode{};

// Identifies an event (one stream packet): (window, index-in-window) packed
// into 64 bits. Index 0..data-1 are data packets, data..total-1 parity.
//
// This decomposition is the canonical dense-indexing scheme of the system:
// the stream is windowed by construction (a fixed packet count per window,
// strictly advancing window ids, state garbage-collected below a moving
// cutoff), so every per-event container — the gossip engine's window rings,
// the retransmit tracker, the player's seen-bitmaps — addresses state as
// (window, index) instead of hashing opaque 64-bit ids.
class EventId {
 public:
  constexpr EventId() = default;
  constexpr EventId(std::uint32_t window, std::uint16_t index)
      : v_((static_cast<std::uint64_t>(window) << 16) | index) {}

  [[nodiscard]] static constexpr EventId from_raw(std::uint64_t raw) {
    EventId id;
    id.v_ = raw;
    return id;
  }

  [[nodiscard]] constexpr std::uint64_t raw() const { return v_; }
  [[nodiscard]] constexpr std::uint32_t window() const {
    return static_cast<std::uint32_t>(v_ >> 16);
  }
  [[nodiscard]] constexpr std::uint16_t index() const {
    return static_cast<std::uint16_t>(v_ & 0xffff);
  }

  friend constexpr auto operator<=>(EventId, EventId) = default;

 private:
  std::uint64_t v_ = 0;
};

}  // namespace hg

// Deliberately NO std::hash specializations for NodeId/EventId: simulation
// state must never live in hash containers (iteration order is bucket-layout
// dependent — the determinism linter rejects them tree-wide), so making the
// ids hashable would only invite the bug back. Test-side hash *models* (e.g.
// the WindowRing equivalence fuzz) define their own local specializations.
