#include "scenario/deployment.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace hg::scenario {

namespace {
constexpr std::uint64_t kAssignStream = 0x41535347;  // "ASSG"
constexpr std::uint64_t kChurnStream = 0x4348524e;   // "CHRN"
}  // namespace

Deployment::~Deployment() {
  // Newest receiver first, the reverse of construction (a vector destroys
  // its elements oldest first). With glibc's allocator this keeps the heap
  // top in use while the older receivers are freed, so a teardown does not
  // trim the heap and the next deployment built in the same process reuses
  // warm pages: a 250-receiver rebuild faults in no pages instead of ~485.
  while (!receivers_.empty()) receivers_.pop_back();
}

std::unique_ptr<Deployment> Deployment::Builder::build() const {
  // --- plan validation ------------------------------------------------------
  sim::SimTime prev_churn = sim::SimTime::zero();
  for (const ChurnEvent& event : churn_.schedule) {
    HG_ASSERT_MSG(event.fraction >= 0.0 && event.fraction <= 1.0,
                  "ChurnEvent.fraction must be within [0, 1]");
    HG_ASSERT_MSG(event.at >= prev_churn,
                  "churn schedule must be sorted by time (non-monotone schedule rejected)");
    prev_churn = event.at;
  }
  HG_ASSERT_MSG(stream_.windows > 0, "StreamPlan::windows must be positive");

  // make_unique can't reach the private constructor.
  std::unique_ptr<Deployment> d(new Deployment());
  d->stream_ = stream_;
  d->churn_ = churn_;

  const std::size_t total = population_.node_count + 1;  // + source

  // Latency first: the engine's epoch width is the latency floor.
  // Rng(seed).fork(tag) is exactly what the engine's make_rng(tag) returns,
  // so the latency base stream is identical at every partition count.
  auto latency = std::make_unique<net::PlanetLabLatency>(network_.latency, Rng(seed_).fork(7));

  // Population assignment before engine construction: the clustered
  // placement needs per-node capabilities, and the assignment stream
  // (Rng(seed).fork) is engine-independent, so hoisting it changes no draw.
  Rng assign_rng = Rng(seed_).fork(kAssignStream);
  const auto assignment = population_.distribution.assign(population_.node_count, assign_rng);

  const sim::SimTime epoch = latency->min_delay();
  // workers == 0: one partition on the calling thread.
  std::uint32_t parts = parallel_.workers == 0 ? 1 : parallel_.partitions;
  if (parts == 0) {
    // Auto: one partition per ~64 nodes, capped — tiny runs stay on one
    // partition, big runs get enough blocks for 16 workers.
    parts = static_cast<std::uint32_t>(
        std::min<std::size_t>(16, std::max<std::size_t>(1, total / 64)));
  }
  std::vector<std::uint32_t> placement;
  if (parallel_.placement == Placement::kClustered && parts > 1 && total >= parts) {
    // Capability-sorted snake deal (see Placement::kClustered). The source
    // (node 0) ranks by its own capability like everyone else.
    std::vector<std::uint32_t> order(total);
    for (std::uint32_t i = 0; i < total; ++i) order[i] = i;
    auto capability_of = [&](std::uint32_t id) {
      return id == 0 ? population_.source_capability : assignment[id - 1].capability;
    };
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       const BitRate ca = capability_of(a);
                       const BitRate cb = capability_of(b);
                       if (ca.is_unlimited() != cb.is_unlimited()) return ca.is_unlimited();
                       if (ca.bits_per_sec() != cb.bits_per_sec()) {
                         return ca.bits_per_sec() > cb.bits_per_sec();
                       }
                       return a < b;  // id-stable ties
                     });
    placement.resize(total);
    for (std::uint32_t rank = 0; rank < total; ++rank) {
      const std::uint32_t lap = rank / parts;
      const std::uint32_t step = rank % parts;
      placement[order[rank]] = (lap % 2 == 0) ? step : parts - 1 - step;
    }
  }
  sim::ShardedEngine::Config config{parts, parallel_.workers, epoch, std::move(placement),
                                    parallel_.epoch_widening};
  d->engine_ = std::make_unique<sim::ShardedEngine>(seed_, total, std::move(config));
  d->fabric_ = std::make_unique<net::NetworkFabric>(
      *d->engine_, std::move(latency),
      net::FabricConfig{.discipline = network_.discipline, .loss_rate = network_.loss_rate});
  d->directory_ = std::make_unique<membership::Directory>(*d->engine_, churn_.detection);

  for (std::uint32_t i = 0; i < total; ++i) d->directory_->add_node(NodeId{i});

  // One Reed-Solomon codec per deployment: building one costs far more than
  // a node does, and the source and every receiver use the same code.
  if (stream_.stream.real_payloads) {
    const stream::StreamConfig& s = stream_.stream;
    d->codec_.emplace(fec::WindowCodecConfig{.data_per_window = s.data_per_window,
                                             .parity_per_window = s.parity_per_window,
                                             .packet_bytes = s.packet_bytes});
  }

  // Each node's stack runs on its own partition's simulator.
  auto sim_of = [&d](NodeId id) -> sim::Simulator& { return d->engine_->sim_of_node(id.value()); };

  NodeFactory make_node = factory_;
  if (!make_node) {
    make_node = [](sim::Simulator& s, net::NetworkFabric& f, membership::Directory& dir,
                   NodeId id, const core::NodeConfig& cfg) {
      return core::NodeRuntime::make(s, f, dir, id, cfg);
    };
  }

  // Per-node template. The stream fixes the gossip window geometry: the
  // rings are sized by its packets per window, and its payload mode selects
  // the serve wire framing deployment-wide. Idle gossip rounds park at
  // P >= 2 (message-identical there — see GossipConfig::park_idle_rounds —
  // and quiescent nodes are what epoch widening fast-forwards over); one
  // partition keeps the periodic timer and its bitwise-frozen interleaving.
  core::NodeConfig node_template = population_.node;
  node_template.gossip.packets_per_window =
      static_cast<std::uint32_t>(stream_.stream.window_packets());
  node_template.gossip.virtual_payloads = !stream_.stream.real_payloads;
  if (d->engine_->partitions() > 1) node_template.gossip.park_idle_rounds = true;

  // --- source (node 0) ----------------------------------------------------
  core::NodeConfig source_cfg = node_template;
  source_cfg.mode = core::Mode::kStandard;  // the broadcaster does not adapt
  source_cfg.capability = population_.source_capability;
  d->source_node_ =
      make_node(sim_of(NodeId{0}), *d->fabric_, *d->directory_, NodeId{0}, source_cfg);
  d->source_node_->attach(population_.source_capability);

  // --- receivers ----------------------------------------------------------
  d->receivers_.reserve(population_.node_count);
  for (std::size_t i = 0; i < population_.node_count; ++i) {
    const NodeId id{static_cast<std::uint32_t>(i + 1)};
    Receiver r;
    r.info.id = id;
    r.info.class_index = assignment[i].class_index;
    r.info.capability = assignment[i].capability;

    core::NodeConfig node_cfg = node_template;
    node_cfg.capability = r.info.capability;
    r.node = make_node(sim_of(id), *d->fabric_, *d->directory_, id, node_cfg);
    r.player = std::make_unique<stream::Player>(
        sim_of(id), stream_.stream, stream_.windows,
        population_.lean_players ? stream::Player::Recording::kLean
                                 : stream::Player::Recording::kFull);
    r.player->set_smart(population_.smart_receivers);
    // Real bytes on the wire also mount the online decoder, so windows are
    // reconstructed (erasures repaired from parity) the moment any k of n
    // packets arrive. Virtual runs build no codec and mount no decoder —
    // decodability is pure counting there.
    r.node->attach_receiver(*r.player, d->codec_.has_value() ? &*d->codec_ : nullptr);
    r.node->attach(r.info.capability);
    d->receivers_.push_back(std::move(r));
  }

  // --- stream source app ---------------------------------------------------
  d->source_ = std::make_unique<stream::StreamSource>(
      sim_of(NodeId{0}), stream_.stream,
      [source_node = d->source_node_.get()](gossip::Event e) {
        source_node->publish(std::move(e));
      },
      d->codec_.has_value() ? &*d->codec_ : nullptr);

  // --- churn ----------------------------------------------------------------
  // Armed here, not in start(): at P == 1 same-time events fire in
  // scheduling order, and crashes must preempt protocol timers tied to the
  // same timestamp. At P >= 2 the guarantee is structural: control tasks run
  // at the barrier before any partition's local events at that time.
  Deployment* dp = d.get();
  for (const ChurnEvent& event : churn_.schedule) {
    dp->schedule_control(event.at, [dp, event]() { dp->apply_churn(event); });
  }

  return d;
}

void Deployment::start() {
  HG_ASSERT_MSG(!started_, "Deployment::start is single-shot");
  started_ = true;

  source_->start(stream_.start, stream_.windows);
  source_node_->start();
  for (auto& r : receivers_) r.node->start();
}

void Deployment::apply_churn(const ChurnEvent& event) {
  const std::uint64_t tag = kChurnStream ^ static_cast<std::uint64_t>(event.at.as_us());
  Rng churn_rng = engine_->make_rng(tag);
  std::vector<std::size_t> alive_idx;
  for (std::size_t i = 0; i < receivers_.size(); ++i) {
    if (!receivers_[i].info.crashed) alive_idx.push_back(i);
  }
  const auto kill_count = static_cast<std::size_t>(
      event.fraction * static_cast<double>(receivers_.size()));
  churn_rng.shuffle(alive_idx);
  const std::size_t n = std::min(kill_count, alive_idx.size());
  for (std::size_t k = 0; k < n; ++k) {
    Receiver& r = receivers_[alive_idx[k]];
    r.info.crashed = true;
    r.info.crashed_at = now();
    r.node->stop();
    fabric_->kill(r.info.id);
    directory_->kill(r.info.id);
  }
}

}  // namespace hg::scenario
