#include "membership/directory.hpp"

#include <algorithm>

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
  for (LocalView* view : views_) {
    if (view == nullptr || view->owner() == id) continue;
    const NodeId observer = view->owner();
    const double factor = rng_.uniform(1.0 - detection_.spread, 1.0 + detection_.spread);
    const auto delay = sim::SimTime::us(
        static_cast<std::int64_t>(static_cast<double>(detection_.mean.as_us()) * factor));
    // Shared detection wheel: the fire time rounds up to the next tick and
    // joins that bucket; only a fresh bucket schedules an event. A death
    // costs O(views) bucket pushes but only O(spread / tick) scheduled
    // events, shared with every other death hitting the same ticks.
    const std::int64_t bucket = ((now + delay).as_us() + tick - 1) / tick;
    const auto [it, inserted] = wheel_.try_emplace(bucket);
    it->second.push_back(Detection{observer, id});
    if (inserted) {
      engine_.schedule_control(sim::SimTime::us(bucket * tick),
                               [this, bucket]() { drain(bucket); });
    }
  }
}

void Directory::drain(std::int64_t bucket) {
  const auto it = wheel_.find(bucket);
  if (it == wheel_.end()) return;
  std::vector<Detection> due = std::move(it->second);
  wheel_.erase(it);
  for (const Detection& d : due) {
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
    : dir_(dir), owner_(owner), snapshot_size_(dir->size()) {
  const bool owner_counted = owner_.value() < snapshot_size_ && dir_->alive(owner_);
  believed_ = dir_->alive_count() - (owner_counted ? 1 : 0);
  if (believed_ + 1 < snapshot_size_ || !owner_counted) {
    // Someone is already dead (or the owner is not a directory member): the
    // implicit identity mapping does not hold, so snapshot eagerly.
    materialize();
  }
  dir_->register_view(this);
}

LocalView::~LocalView() { dir_->unregister_view(this); }

void LocalView::materialize() {
  materialized_ = true;
  positions_.assign(snapshot_size_, kNpos);
  members_.clear();
  members_.reserve(believed_);
  for (std::uint32_t i = 0; i < snapshot_size_; ++i) {
    const NodeId id{i};
    if (id == owner_ || !dir_->alive(id)) continue;
    positions_[i] = static_cast<std::uint32_t>(members_.size());
    members_.push_back(id);
  }
  believed_ = members_.size();
}

void LocalView::mark_dead(NodeId id) {
  if (id == owner_ || id.value() >= snapshot_size_) return;
  if (!materialized_) {
    // First detected death: switch from the implicit mapping to a private
    // array. Everything this view believes alive is, by construction of the
    // lazy representation, exactly "all snapshot ids except the owner" — the
    // directory's current alive set must not leak in here (other deaths may
    // still be undetected by this view), so fill from the id range directly.
    materialized_ = true;
    positions_.resize(snapshot_size_);
    members_.resize(snapshot_size_ - 1);
    for (std::size_t i = 0; i + 1 < snapshot_size_; ++i) {
      members_[i] = implicit_member(i);
      positions_[members_[i].value()] = static_cast<std::uint32_t>(i);
    }
    positions_[owner_.value()] = kNpos;
  }
  const std::uint32_t pos = positions_[id.value()];
  if (pos == kNpos) return;
  // Swap-remove keeps select_nodes O(k).
  const NodeId last = members_.back();
  members_[pos] = last;
  positions_[last.value()] = pos;
  members_.pop_back();
  positions_[id.value()] = kNpos;
  believed_ = members_.size();
}

void LocalView::select_nodes(std::size_t k, std::vector<NodeId>& out, Rng& rng) {
  out.clear();
  const std::size_t avail = believed_;
  const std::size_t take = std::min(k, avail);
  if (take == 0) return;
  scratch_.clear();
  rng.sample_indices(avail, take, scratch_);
  out.reserve(take);
  if (materialized_) {
    for (auto idx : scratch_) out.push_back(members_[idx]);
  } else {
    // Index order in the lazy mapping equals the id order the eager snapshot
    // used to build members_, so the same sampled indices yield the same
    // peers — representations are interchangeable mid-run.
    for (auto idx : scratch_) out.push_back(implicit_member(idx));
  }
}

}  // namespace hg::membership
