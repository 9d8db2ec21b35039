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
#include <map>
#include <memory>
#include <utility>
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
  // learns about it after its own sampled detection delay.
  void kill(NodeId id);

  [[nodiscard]] bool alive(NodeId id) const { return alive_[id.value()]; }
  [[nodiscard]] std::size_t size() const { return alive_.size(); }
  [[nodiscard]] std::size_t alive_count() const { return alive_count_; }

  // Creates the membership view owned by `owner`. Must be called after all
  // add_node calls (views snapshot the full population).
  [[nodiscard]] std::unique_ptr<LocalView> make_view(NodeId owner);

 private:
  friend class LocalView;
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
  // The shared detection wheel: bucket index (fire time / wheel_tick,
  // rounded up) -> pending detections. Ordered map: drains erase their own
  // bucket, later kills may re-create it.
  std::map<std::int64_t, std::vector<Detection>> wheel_;
};

// A node's (possibly stale) view of the membership.
//
// Storage is copy-on-write against the shared directory. A freshly built
// view over an all-alive population is the identity mapping "index i -> i-th
// node id, skipping the owner" and stores nothing — the 100k-node case
// (100k views x 100k peers) would otherwise cost O(N^2) memory just for
// snapshots. Only when a view first *detects* a death does it materialize a
// private peer array and fall back to the classic swap-remove bookkeeping;
// selection order and RNG consumption are identical in both representations.
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

  // True once this view holds a private peer array (introspection/tests).
  [[nodiscard]] bool materialized() const { return materialized_; }

 private:
  friend class Directory;
  LocalView(Directory* dir, NodeId owner);

  // The implicit all-alive-except-owner mapping of the lazy representation.
  [[nodiscard]] NodeId implicit_member(std::size_t index) const {
    const auto i = static_cast<std::uint32_t>(index);
    return NodeId{i < owner_.value() ? i : i + 1};
  }
  void materialize();

  Directory* dir_;
  NodeId owner_;
  std::uint32_t registration_ = 0;       // index in the directory's views_
  std::size_t snapshot_size_;            // directory size when the view was built
  std::size_t believed_;                 // peers this view believes alive
  bool materialized_ = false;
  std::vector<NodeId> members_;          // believed-alive peers, order arbitrary
  std::vector<std::uint32_t> positions_; // node id -> index in members_, or npos
  std::vector<std::uint32_t> scratch_;   // avoids per-call allocation
  static constexpr std::uint32_t kNpos = 0xffffffffu;
};

}  // namespace hg::membership
