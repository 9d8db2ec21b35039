// Global membership directory and per-node membership views.
//
// The paper assumes uniform random peer selection over the full membership
// ("for simplicity, we consider here that the initial fanout is computed
// knowing the system size in advance"). Directory is that ground truth.
// Each node owns a LocalView which lags reality: after a crash, a view keeps
// returning the dead node until the configured failure-detection delay has
// elapsed (§3.6 configures this to 10 s on average).
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "sim/sharded_engine.hpp"

namespace hg::membership {

class LocalView;

struct DetectionConfig {
  // Detection latency is uniform in [mean*(1-spread), mean*(1+spread)]:
  // mean >= 0 and spread within [0, 1], so no delay is negative.
  sim::SimTime mean = sim::SimTime::sec(10.0);
  double spread = 0.5;
  // Per-observer detections are rounded *up* to the next wheel tick and
  // drained from a shared bucket: one scheduled event per non-empty bucket
  // instead of one per (death, observer) — a mass crash at 100k views would
  // otherwise flood the queue with 100k events per death. Must be positive.
  sim::SimTime wheel_tick = sim::SimTime::ms(250);
};

class Directory {
 public:
  // Wheel drains run as `engine`'s control tasks: single-threaded, with the
  // membership state quiescent (plain events at P == 1). Rejects a detection
  // config that could schedule into the past.
  Directory(sim::ShardedEngine& engine, DetectionConfig detection);

  // Adds a node; all ids must be consecutive from 0.
  void add_node(NodeId id);

  // Crash-stop at the current simulation time. Every registered LocalView
  // learns about it after its own sampled detection delay. Call it with the
  // engine quiescent (a control task, or between runs): views read the alive
  // bits while selecting on the workers.
  void kill(NodeId id);

  [[nodiscard]] bool alive(NodeId id) const { return alive_[id.value()]; }
  [[nodiscard]] std::size_t size() const { return alive_.size(); }
  [[nodiscard]] std::size_t alive_count() const { return alive_count_; }

  // Creates the membership view owned by `owner`. Must be called after all
  // add_node calls (views snapshot the full population).
  [[nodiscard]] std::unique_ptr<LocalView> make_view(NodeId owner);

 private:
  friend class LocalView;
  // One kill's pending detections, 4 bytes per observer: the observers
  // sorted by wheel bucket (registration order within a bucket), cut into
  // one run per non-empty bucket.
  struct Run {
    std::int64_t bucket;
    std::uint32_t end;  // one past the run's last index in observers
  };
  struct Batch {
    NodeId dead;
    std::uint32_t next = 0;  // first run not drained yet
    std::vector<Run> runs;
    std::vector<NodeId> observers;
  };
  struct Draw {
    NodeId observer;
    std::int64_t bucket;
  };
  struct Detection {
    NodeId observer;
    NodeId dead;
  };

  void register_view(LocalView* view);
  void unregister_view(LocalView* view);
  [[nodiscard]] LocalView* view_of(NodeId owner) const;
  void drain(std::int64_t bucket);

  sim::ShardedEngine& engine_;
  DetectionConfig detection_;
  std::vector<bool> alive_;
  std::size_t alive_count_ = 0;
  // Registration order (kill() draws per-observer detection delays in this
  // order — part of the deterministic contract) plus a dense owner-id index
  // so a detection event resolves its view in O(1), not O(views). A
  // destroyed view leaves a null hole, so tearing down N views costs O(N).
  // Views die only at teardown, so the holes are never reclaimed.
  std::vector<LocalView*> views_;
  std::vector<LocalView*> view_by_owner_;
  Rng rng_;
  // The shared detection wheel: a bucket is a fire time / wheel_tick,
  // rounded up. Pending batches in kill order (a batch is freed once its
  // last run drains) and the buckets with a drain scheduled — a drain erases
  // its own bucket, so a later kill may schedule it again.
  std::vector<Batch> batches_;
  std::set<std::int64_t> scheduled_;
  // Scratch: kill()'s draws, and a drain's detections before and after
  // grouping them by observer.
  std::vector<Draw> draws_;
  std::vector<Detection> due_;
  std::vector<Detection> by_view_;
  std::vector<std::uint32_t> offsets_;
};

// A node's (possibly stale) view of the membership.
//
// The believed-alive peers form a sequence: selection samples indices into
// it, and a detected death swap-removes the dead id (the last member moves
// into its slot). The sequence starts as the identity mapping "position i ->
// i-th node id, skipping the owner", and a view stores only a sparse patch
// of it, grown from its first detected death on: about 20 bytes per death
// it detected. A dense snapshot costs 8N bytes per view, O(N^2) across the
// views (~80 GB at 100k nodes).
//
// Only ids of the removed tail ever move (a swap-remove shrinks the sequence
// from the end), so the patch has two parts:
//   - tail_: for each removed position, counted from the end, where the id
//     that started there lives now, or kNpos once it is dead;
//   - slots_: an open-addressing table (linear probing, load at most one
//     half) from each position whose original occupant died, and which is
//     still in the sequence, to the id that fills it now.
// A view only learns of deaths the directory recorded, so a position whose
// original occupant the directory still has alive is unpatched: the
// directory's alive bits, shared by every view, keep most picks away from
// the table. Selection order and RNG consumption equal the classic dense
// snapshot with swap-remove bookkeeping.
class LocalView {
 public:
  ~LocalView();
  LocalView(const LocalView&) = delete;
  LocalView& operator=(const LocalView&) = delete;

  // k distinct peers chosen uniformly at random from the nodes this view
  // believes alive, excluding the owner. Returns fewer than k if the believed
  // population is too small.
  void select_nodes(std::size_t k, std::vector<NodeId>& out, Rng& rng);

  // Number of peers the view believes alive (excluding owner).
  [[nodiscard]] std::size_t believed_peers() const { return believed_; }

  [[nodiscard]] NodeId owner() const { return owner_; }

  // Immediate removal (invoked by the directory after the detection delay;
  // also usable directly by tests).
  void mark_dead(NodeId id);

  // True once the view has detected a death of a directory member other than
  // its owner, or was built when the identity mapping did not hold (someone
  // already dead, or the owner not a live member).
  [[nodiscard]] bool materialized() const { return materialized_; }

  // Heap bytes the view owns, from its containers' capacities.
  [[nodiscard]] std::size_t state_bytes() const;

 private:
  friend class Directory;
  static constexpr std::uint32_t kNpos = 0xffffffffu;

  // A patched position and the id that occupies it now; pos == kNpos marks
  // an empty slot.
  struct Slot {
    std::uint32_t pos;
    NodeId id;
  };

  LocalView(Directory* dir, NodeId owner);

  // The identity mapping: the id that starts at a position, and the position
  // an id starts at (id != owner).
  [[nodiscard]] NodeId original(std::uint32_t pos) const {
    return NodeId{pos < owner_.value() ? pos : pos + 1};
  }
  [[nodiscard]] std::uint32_t home(NodeId id) const {
    return id.value() < owner_.value() ? id.value() : id.value() - 1;
  }
  // The table slot of a patched position, or slots_.size() if unpatched. A
  // position whose original occupant the directory has alive skips the table.
  [[nodiscard]] std::size_t patch_of(std::uint32_t pos) const {
    if (slots_.empty() || (dir_->alive(original(pos)) && !ahead_of_directory_)) {
      return slots_.size();
    }
    return find(pos);
  }
  [[nodiscard]] NodeId member(std::uint32_t pos) const {
    const std::size_t slot = patch_of(pos);
    return slot < slots_.size() ? slots_[slot].id : original(pos);
  }
  [[nodiscard]] std::size_t home_slot(std::uint32_t pos) const {
    // Fibonacci hashing onto the power-of-two table.
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(pos * 0x9e3779b9u) * slots_.size()) >> 32);
  }
  // patch_of without the shortcuts; the table must not be empty.
  [[nodiscard]] std::size_t find(std::uint32_t pos) const;
  void insert(Slot entry);
  void erase(std::size_t slot);

  Directory* dir_;
  NodeId owner_;
  std::uint32_t registration_ = 0;  // index in the directory's views_
  std::uint32_t snapshot_size_;     // directory size when the view was built
  std::uint32_t base_;              // length of the identity mapping
  std::uint32_t believed_;          // peers this view believes alive
  std::uint32_t slots_used_ = 0;
  bool materialized_ = false;
  // Set once a direct call marked dead an id the directory has alive; the
  // directory's alive bits then no longer rule out a patch.
  bool ahead_of_directory_ = false;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> tail_;
  std::vector<std::uint32_t> scratch_;  // avoids per-call allocation
};

}  // namespace hg::membership
