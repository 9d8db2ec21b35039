#include "net/upload_link.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace hg::net {

UploadLink::UploadLink(sim::Simulator& simulator, BitRate capacity,
                       QueueDiscipline discipline, OnWireFn on_wire)
    : sim_(simulator),
      capacity_(capacity),
      discipline_(discipline),
      on_wire_(std::move(on_wire)) {
  HG_ASSERT(on_wire_ != nullptr);
}

void UploadLink::enqueue(Datagram d) {
  if (down_) return;
  Pending p{std::move(d), sim_.now()};
  if (discipline_ == QueueDiscipline::kControlPriority && is_control(p.datagram.cls)) {
    // Insert after the last queued control message, ahead of payload.
    auto it = std::find_if(queue_.begin(), queue_.end(), [this](const Pending& q) {
      return !is_control(q.datagram.cls);
    });
    queue_.insert(it, std::move(p));
  } else {
    queue_.push_back(std::move(p));
  }
  if (!busy_) transmit_next();
}

void UploadLink::transmit_next() {
  if (down_ || queue_.empty()) {
    busy_ = false;
    return;
  }
  busy_ = true;
  Pending p = std::move(queue_.front());
  queue_.pop_front();
  max_queue_delay_ = std::max(max_queue_delay_, sim_.now() - p.enqueued_at);

  const auto tx = sim::SimTime::us(transmission_time_us(p.datagram.wire_bytes(), capacity_));
  // The datagram is on the wire once fully serialized; then the next one may
  // start. Captures `this`; the owner (fabric) outlives the simulator run.
  sim_.after(tx, [this, d = std::move(p.datagram)]() mutable {
    if (down_) return;
    on_wire_(std::move(d));
    transmit_next();
  });
}

void UploadLink::shutdown() {
  down_ = true;
  queue_.clear();
}

}  // namespace hg::net
