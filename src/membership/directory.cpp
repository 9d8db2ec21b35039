#include "membership/directory.hpp"

#include <algorithm>
#include <numeric>

#include "common/assert.hpp"

namespace hg::membership {

namespace {
// Root stream tag of the detection-delay RNG.
constexpr std::uint64_t kDirectoryStream = 0x4d454d42;  // "MEMB"
}  // namespace

Directory::Directory(sim::ShardedEngine& engine, DetectionConfig detection)
    : engine_(engine), detection_(detection), rng_(engine.make_rng(kDirectoryStream)) {
  HG_ASSERT_MSG(detection_.wheel_tick > sim::SimTime::zero(),
                "DetectionConfig::wheel_tick must be positive");
  HG_ASSERT_MSG(detection_.mean >= sim::SimTime::zero(),
                "DetectionConfig::mean must not be negative");
  HG_ASSERT_MSG(detection_.spread >= 0.0 && detection_.spread <= 1.0,
                "DetectionConfig::spread must be within [0, 1]");
}

void Directory::add_node(NodeId id) {
  HG_ASSERT_MSG(id.value() == alive_.size(), "add nodes with consecutive ids from 0");
  alive_.push_back(true);
  ++alive_count_;
}

void Directory::kill(NodeId id) {
  HG_ASSERT(id.value() < alive_.size());
  if (!alive_[id.value()]) return;
  alive_[id.value()] = false;
  --alive_count_;
  const sim::SimTime now = engine_.now();
  const std::int64_t tick = detection_.wheel_tick.as_us();
  draws_.clear();
  for (LocalView* view : views_) {
    if (view == nullptr || view->owner() == id) continue;
    const double factor = rng_.uniform(1.0 - detection_.spread, 1.0 + detection_.spread);
    const auto delay = sim::SimTime::us(
        static_cast<std::int64_t>(static_cast<double>(detection_.mean.as_us()) * factor));
    // The fire time rounds up to the next wheel tick: that is the bucket.
    draws_.push_back(Draw{view->owner(), ((now + delay).as_us() + tick - 1) / tick});
  }
  if (draws_.empty()) return;
  // File the draws as one batch sorted by bucket, stably: each bucket keeps
  // registration order.
  std::stable_sort(draws_.begin(), draws_.end(),
                   [](const Draw& a, const Draw& b) { return a.bucket < b.bucket; });
  Batch& batch = batches_.emplace_back();
  batch.dead = id;
  batch.observers.reserve(draws_.size());
  for (const Draw& d : draws_) {
    if (batch.runs.empty() || batch.runs.back().bucket != d.bucket) {
      // Shared detection wheel: only a bucket no drain is scheduled for yet
      // schedules one. A death costs O(views) draws but only O(spread /
      // tick) scheduled events, shared with every other death hitting the
      // same ticks.
      if (scheduled_.insert(d.bucket).second) {
        const std::int64_t bucket = d.bucket;
        engine_.schedule_control(sim::SimTime::us(bucket * tick),
                                 [this, bucket]() { drain(bucket); });
      }
      batch.runs.push_back(Run{d.bucket, 0});
    }
    batch.observers.push_back(d.observer);
    batch.runs.back().end = static_cast<std::uint32_t>(batch.observers.size());
  }
}

void Directory::drain(std::int64_t bucket) {
  scheduled_.erase(bucket);
  due_.clear();
  for (Batch& batch : batches_) {
    if (batch.next == batch.runs.size() || batch.runs[batch.next].bucket != bucket) continue;
    const std::uint32_t begin = batch.next == 0 ? 0 : batch.runs[batch.next - 1].end;
    for (std::uint32_t i = begin; i < batch.runs[batch.next].end; ++i) {
      due_.push_back(Detection{batch.observers[i], batch.dead});
    }
    ++batch.next;
  }
  std::erase_if(batches_, [](const Batch& batch) { return batch.next == batch.runs.size(); });
  // Apply the detections view by view: a stable counting sort by observer
  // keeps each view's in kill order, and views are independent, so this
  // equals (kill, registration) order. A view's patch then stays in cache
  // across its detections instead of being fetched once per kill.
  offsets_.assign(view_by_owner_.size() + 1, 0);
  for (const Detection& d : due_) ++offsets_[d.observer.value() + 1];
  std::partial_sum(offsets_.begin(), offsets_.end(), offsets_.begin());
  by_view_.resize(due_.size());
  for (const Detection& d : due_) by_view_[offsets_[d.observer.value()]++] = d;
  for (const Detection& d : by_view_) {
    // Look the view up at fire time: it may have been destroyed (its owner
    // torn down) while the detection was pending.
    if (LocalView* v = view_of(d.observer)) v->mark_dead(d.dead);
  }
}

std::unique_ptr<LocalView> Directory::make_view(NodeId owner) {
  return std::unique_ptr<LocalView>(new LocalView(this, owner));
}

void Directory::register_view(LocalView* view) {
  view->registration_ = static_cast<std::uint32_t>(views_.size());
  views_.push_back(view);
  const std::size_t owner = view->owner().value();
  if (view_by_owner_.size() <= owner) view_by_owner_.resize(owner + 1, nullptr);
  view_by_owner_[owner] = view;
}

void Directory::unregister_view(LocalView* view) {
  views_[view->registration_] = nullptr;
  const std::size_t owner = view->owner().value();
  if (owner < view_by_owner_.size() && view_by_owner_[owner] == view) {
    view_by_owner_[owner] = nullptr;
  }
}

LocalView* Directory::view_of(NodeId owner) const {
  return owner.value() < view_by_owner_.size() ? view_by_owner_[owner.value()] : nullptr;
}


LocalView::LocalView(Directory* dir, NodeId owner)
    : dir_(dir),
      owner_(owner),
      snapshot_size_(static_cast<std::uint32_t>(dir->size())),
      base_(snapshot_size_ - (owner.value() < snapshot_size_ ? 1 : 0)),
      believed_(base_) {
  materialized_ = owner_.value() >= snapshot_size_ || !dir_->alive(owner_);
  if (dir_->alive_count() < snapshot_size_) {
    // Start from the identity and remove the dead in id order. Views are
    // built before the first crash, so this O(N) scan is off the usual path.
    for (std::uint32_t i = 0; i < snapshot_size_; ++i) {
      if (!dir_->alive(NodeId{i})) mark_dead(NodeId{i});
    }
  }
  dir_->register_view(this);
}

LocalView::~LocalView() { dir_->unregister_view(this); }

std::size_t LocalView::state_bytes() const {
  return slots_.capacity() * sizeof(Slot) +
         (tail_.capacity() + scratch_.capacity()) * sizeof(std::uint32_t);
}

void LocalView::mark_dead(NodeId id) {
  if (id == owner_ || id.value() >= snapshot_size_) return;
  materialized_ = true;
  if (dir_->alive(id)) ahead_of_directory_ = true;
  // Where does `id` live now? An id still inside the sequence at its home
  // position never moved; one whose home joined the removed tail did.
  const std::uint32_t home_pos = home(id);
  const bool moved = home_pos >= believed_;
  std::uint32_t pos = home_pos;
  if (moved) {
    pos = tail_[base_ - 1 - home_pos];
    if (pos == kNpos) return;
    tail_[base_ - 1 - home_pos] = kNpos;
  } else if (patch_of(pos) < slots_.size()) {
    return;  // its home holds a mover: it died already
  }
  // Swap-remove: the last position joins the removed tail, and its occupant
  // (the id that started there, or one moved in earlier) fills `pos`.
  const std::uint32_t last = believed_ - 1;
  NodeId mover = original(last);
  if (const std::size_t slot = patch_of(last); slot < slots_.size()) {
    mover = slots_[slot].id;
    erase(slot);
  }
  tail_.push_back(kNpos);
  --believed_;
  if (pos == last) return;  // the dead id was the last member
  tail_[base_ - 1 - home(mover)] = pos;
  if (moved) {
    slots_[find(pos)].id = mover;
  } else {
    insert(Slot{pos, mover});
  }
}

std::size_t LocalView::find(std::uint32_t pos) const {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t slot = home_slot(pos);; slot = (slot + 1) & mask) {
    if (slots_[slot].pos == pos) return slot;
    if (slots_[slot].pos == kNpos) return slots_.size();
  }
}

void LocalView::insert(Slot entry) {
  if ((slots_used_ + 1) * 2 > slots_.size()) {
    // Grow to keep the load at most one half, and re-file every entry.
    std::vector<Slot> old(std::max<std::size_t>(8, slots_.size() * 2), Slot{kNpos, NodeId{}});
    old.swap(slots_);
    slots_used_ = 0;
    for (const Slot& e : old) {
      if (e.pos != kNpos) insert(e);
    }
  }
  const std::size_t mask = slots_.size() - 1;
  std::size_t slot = home_slot(entry.pos);
  while (slots_[slot].pos != kNpos) slot = (slot + 1) & mask;
  slots_[slot] = entry;
  ++slots_used_;
}

void LocalView::erase(std::size_t slot) {
  // Backward-shift deletion keeps every probe sequence free of holes, so a
  // lookup may stop at the first empty slot: pull each later entry of the
  // run into the hole unless its home lies after the hole.
  const std::size_t mask = slots_.size() - 1;
  std::size_t hole = slot;
  for (std::size_t i = (hole + 1) & mask; slots_[i].pos != kNpos; i = (i + 1) & mask) {
    const std::size_t home_of_i = home_slot(slots_[i].pos);
    if (((i - home_of_i) & mask) >= ((i - hole) & mask)) {
      slots_[hole] = slots_[i];
      hole = i;
    }
  }
  slots_[hole].pos = kNpos;
  --slots_used_;
}

void LocalView::select_nodes(std::size_t k, std::vector<NodeId>& out, Rng& rng) {
  out.clear();
  const std::size_t take = std::min<std::size_t>(k, believed_);
  if (take == 0) return;
  scratch_.clear();
  rng.sample_indices(believed_, take, scratch_);
  out.reserve(take);
  for (const std::uint32_t idx : scratch_) out.push_back(member(idx));
}

}  // namespace hg::membership
