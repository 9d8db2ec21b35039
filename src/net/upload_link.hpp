// Upload-rate limiter with an application-level queue.
//
// This is the component the paper describes verbatim: "we implemented, at
// the application level, an upload rate limiter that queues packets which
// are about to cross the bandwidth limit. In practice, nodes do never exceed
// their given upload capability."
//
// Model: the link serializes datagrams at `capacity` bits/sec. A datagram
// enqueued while the link is busy waits in FIFO order (optionally, control
// messages may jump payload — the paper's implied discipline is FIFO, the
// priority mode exists for the ablation study). The queue is unbounded by
// default: the paper's observed failure mode for standard gossip is
// *unbounded queue growth at poor nodes* ("congested queues ... increases
// the transmission delays"), which an artificial cap would mask.
//
// Queued datagrams carry pooled, refcounted buffers: a deep queue of
// batched serves holds refcounts into a handful of shared header chunks and
// the payload chunks the node already stores, rather than one heap vector
// per datagram.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>

#include "common/units.hpp"
#include "net/datagram.hpp"
#include "sim/simulator.hpp"

namespace hg::net {

enum class QueueDiscipline : std::uint8_t {
  kFifo = 0,          // all classes share one FIFO (default, paper behaviour)
  kControlPriority,   // propose/request/aggregation bypass queued serves
};

class UploadLink {
 public:
  // `on_wire` fires when the last bit of a datagram has left the node; the
  // fabric then applies loss + propagation delay.
  using OnWireFn = std::function<void(Datagram&&)>;

  UploadLink(sim::Simulator& simulator, BitRate capacity, QueueDiscipline discipline,
             OnWireFn on_wire);

  void enqueue(Datagram d);

  [[nodiscard]] BitRate capacity() const { return capacity_; }

  // Halts the link (node crash): queued datagrams are discarded.
  void shutdown();

  // Introspection.
  [[nodiscard]] std::size_t queue_len() const { return queue_.size(); }
  [[nodiscard]] sim::SimTime max_queue_delay() const { return max_queue_delay_; }

 private:
  struct Pending {
    Datagram datagram;
    sim::SimTime enqueued_at;
  };

  void transmit_next();
  [[nodiscard]] bool is_control(MsgClass cls) const {
    return cls != MsgClass::kServe;
  }

  sim::Simulator& sim_;
  BitRate capacity_;
  QueueDiscipline discipline_;
  OnWireFn on_wire_;
  std::deque<Pending> queue_;
  bool busy_ = false;
  bool down_ = false;
  sim::SimTime max_queue_delay_ = sim::SimTime::zero();
};

}  // namespace hg::net
