// Micro-benchmarks (google-benchmark) for the hot substrate paths: GF(256)
// Reed-Solomon coding, event-queue churn, wire serialization, and the
// aggregation estimator.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "aggregation/freshness_aggregator.hpp"
#include "common/rng.hpp"
#include "fec/gf256.hpp"
#include "fec/reed_solomon.hpp"
#include "fec/window_codec.hpp"
#include "gossip/messages.hpp"
#include "gossip/window_ring.hpp"
#include "membership/directory.hpp"
#include "net/fabric.hpp"
#include "sim/sharded_engine.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace hg;

// GF(256) mul_add, one row per kernel this CPU runs (GFNI, SSSE3 or NEON,
// and the scalar log/exp loop), labelled with the kernel's name. Identical
// bytes by contract (gf256_test.cpp proves it); the rows track the speedups.
void BM_Gf256MulAdd(benchmark::State& state, fec::GF256::MulAddFn mul_add, const char* name) {
  const auto len = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint8_t> dst(len, 0), src(len);
  for (std::size_t i = 0; i < len; ++i) src[i] = static_cast<std::uint8_t>(i * 37 + 11);
  std::uint8_t coeff = 1;
  state.SetLabel(name);
  for (auto _ : state) {
    mul_add(dst.data(), src.data(), len, coeff);
    coeff = static_cast<std::uint8_t>(coeff + 2);  // odd: never the 0 fast path
    benchmark::DoNotOptimize(dst.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(len));
}

[[maybe_unused]] const bool kGf256MulAddRegistered = [] {
  for (const fec::GF256::Kernel& k : fec::GF256::kernels()) {
    if (!k.supported) continue;
    const std::string name = std::string("BM_Gf256MulAdd/") + k.name;
    auto* bench = benchmark::RegisterBenchmark(name.c_str(), BM_Gf256MulAdd, k.mul_add, k.name);
    bench->Arg(64)->Arg(1316);
  }
  return true;
}();

// Building the paper codec: the closed-form generator's k^2 + ~2mk field
// operations.
void BM_FecCodecBuild(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const auto m = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    fec::WindowCodec codec({.data_per_window = k, .parity_per_window = m,
                            .packet_bytes = 1316});
    benchmark::DoNotOptimize(&codec);
  }
}
BENCHMARK(BM_FecCodecBuild)->Args({101, 9});

// Raw ReedSolomon decode at the paper window: the all-data fast path (pure
// validation + copy) vs an e-erasure repair (e*(k-e) syndrome mul_adds, an
// e x e inversion, and e*e reconstruction mul_adds).
void run_rs_decode(benchmark::State& state, std::size_t erasures) {
  const std::size_t k = 101, m = 9;
  fec::ReedSolomon rs(k, m);
  Rng rng(17);
  std::vector<std::vector<std::uint8_t>> data(k, std::vector<std::uint8_t>(1316));
  for (auto& p : data) {
    for (auto& b : p) b = static_cast<std::uint8_t>(rng.below(256));
  }
  auto parity = rs.encode(data);
  std::vector<std::optional<std::vector<std::uint8_t>>> shards(k + m);
  for (std::size_t i = 0; i < k; ++i) shards[i] = data[i];
  for (std::size_t i = 0; i < m; ++i) shards[k + i] = parity[i];
  std::vector<std::uint32_t> drop;
  rng.sample_indices(k, erasures, drop);  // erase data shards (worst case)
  for (auto d : drop) shards[d].reset();
  for (auto _ : state) {
    benchmark::DoNotOptimize(rs.decode(shards));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(k * 1316));
}

void BM_RsDecodeAllData(benchmark::State& state) { run_rs_decode(state, 0); }
BENCHMARK(BM_RsDecodeAllData);

void BM_RsDecodeErasure(benchmark::State& state) {
  run_rs_decode(state, static_cast<std::size_t>(state.range(0)));
}
BENCHMARK(BM_RsDecodeErasure)->Arg(1)->Arg(9);

void BM_FecEncodeWindow(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const auto m = static_cast<std::size_t>(state.range(1));
  fec::WindowCodec codec({.data_per_window = k, .parity_per_window = m,
                          .packet_bytes = 1316});
  Rng rng(1);
  std::vector<std::vector<std::uint8_t>> data(k, std::vector<std::uint8_t>(1316));
  for (auto& p : data) {
    for (auto& b : p) b = static_cast<std::uint8_t>(rng.below(256));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.encode_window(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(k * 1316));
}
BENCHMARK(BM_FecEncodeWindow)->Args({101, 9})->Args({50, 5})->Args({16, 4});

void BM_FecDecodeWindow(benchmark::State& state) {
  const std::size_t k = 101, m = 9;
  const auto erasures = static_cast<std::size_t>(state.range(0));
  fec::WindowCodec codec({.data_per_window = k, .parity_per_window = m,
                          .packet_bytes = 1316});
  Rng rng(2);
  std::vector<std::vector<std::uint8_t>> data(k, std::vector<std::uint8_t>(1316));
  for (auto& p : data) {
    for (auto& b : p) b = static_cast<std::uint8_t>(rng.below(256));
  }
  auto parity = codec.encode_window(data);
  std::vector<std::optional<std::vector<std::uint8_t>>> received(k + m);
  for (std::size_t i = 0; i < k; ++i) received[i] = data[i];
  for (std::size_t i = 0; i < m; ++i) received[k + i] = parity[i];
  std::vector<std::uint32_t> drop;
  rng.sample_indices(k, erasures, drop);  // erase data packets (worst case)
  for (auto d : drop) received[d].reset();

  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.decode_window(received));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(k * 1316));
}
BENCHMARK(BM_FecDecodeWindow)->Arg(0)->Arg(1)->Arg(5)->Arg(9);

// --------------------------------------------------------------------------
// Pooled event queue
// --------------------------------------------------------------------------

// A delivery closure as the fabric schedules it: [fabric pointer,
// net::Datagram], exactly SmallFn's 48-byte inline budget. Here the pointer
// is the benchmark's byte sink.
auto delivery(std::uint64_t* sink, const net::BufferRef& bytes) {
  return [fabric = static_cast<void*>(sink),
          d = net::Datagram{NodeId{1}, NodeId{2}, net::MsgClass::kServe, 0, bytes, {}}] {
    *static_cast<std::uint64_t*>(fabric) += d.bytes.size();
  };
}
static_assert(sizeof(decltype(delivery(nullptr, {}))) == sim::SmallFn::kInlineBytes);

void BM_EventQueuePooledScheduleRun(benchmark::State& state) {
  const auto batch = static_cast<int>(state.range(0));
  const auto bytes = net::BufferRef::copy_of(std::vector<std::uint8_t>(48, 0xab));
  std::uint64_t sink = 0;
  for (auto _ : state) {
    sim::EventQueue q;
    sim::SimTime now = sim::SimTime::zero();
    for (int i = 0; i < batch; ++i) {
      q.schedule(sim::SimTime::us(i % 1000), delivery(&sink, bytes));
    }
    while (q.run_next(now)) {
    }
    benchmark::DoNotOptimize(q.executed());
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * batch);
}
BENCHMARK(BM_EventQueuePooledScheduleRun)->Arg(1000)->Arg(10000)->Arg(100000);

// The steady-state mix a gossip simulation generates, with `backlog` 1 s
// retransmission timers pending at once. Every step schedules one datagram
// delivery, arms one 1 s timer, answers the request armed kServeLagSteps
// steps earlier by cancelling its timer (nine requests in ten are served;
// the tenth timer fires), and runs every event due before the next step.
// Steps are 1 s / backlog apart, so the queue holds `backlog` timers, about
// 90% of them cancelled: at 100k, the shape of a 2000-node HEAP run, where
// timers dominate the queue and most of them die before they are due.
constexpr std::int64_t kRetxTimeoutUs = 1'000'000;
constexpr std::size_t kServeLagSteps = 4;

void BM_EventQueuePooledSimMix(benchmark::State& state) {
  const auto backlog = static_cast<std::int64_t>(state.range(0));
  const std::int64_t step_us = kRetxTimeoutUs / backlog;
  const auto bytes = net::BufferRef::copy_of(std::vector<std::uint8_t>(48, 0xab));
  std::uint64_t sink = 0;
  sim::EventQueue q;
  sim::SimTime now = sim::SimTime::zero();
  std::vector<sim::EventHandle> retx(kServeLagSteps);
  std::uint64_t step = 0;
  std::int64_t t = 0;
  for (auto _ : state) {
    q.schedule(sim::SimTime::us(t + 7), delivery(&sink, bytes));
    sim::EventHandle& served = retx[step % kServeLagSteps];
    served.cancel();
    served = q.schedule(sim::SimTime::us(t + kRetxTimeoutUs), [] {});
    if (step % 10 == 0) served = sim::EventHandle{};  // never served: the timer fires
    ++step;
    t += step_us;
    while (!q.prune_and_empty() && q.next_time().as_us() < t) q.run_next(now);
  }
  benchmark::DoNotOptimize(sink);
  benchmark::DoNotOptimize(q.executed());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueuePooledSimMix)->Arg(64)->Arg(100000);

void BM_EventQueuePooledCancellation(benchmark::State& state) {
  // The retransmission pattern: schedule + cancel nearly everything.
  for (auto _ : state) {
    sim::EventQueue q;
    sim::SimTime now = sim::SimTime::zero();
    std::vector<sim::EventHandle> handles;
    handles.reserve(10000);
    for (int i = 0; i < 10000; ++i) {
      handles.push_back(q.schedule(sim::SimTime::us(i), [] {}));
    }
    for (std::size_t i = 0; i < handles.size(); i += 2) handles[i].cancel();
    while (q.run_next(now)) {
    }
    benchmark::DoNotOptimize(q.executed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 10000);
}
BENCHMARK(BM_EventQueuePooledCancellation);

void BM_SimulatorScheduleRun(benchmark::State& state) {
  const auto batch = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim(1);
    for (int i = 0; i < batch; ++i) {
      sim.after(sim::SimTime::us(i % 1000), [] {});
    }
    sim.run_to_completion();
    benchmark::DoNotOptimize(sim.events_executed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * batch);
}
BENCHMARK(BM_SimulatorScheduleRun)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_SerializePropose(benchmark::State& state) {
  const auto ids_count = static_cast<std::size_t>(state.range(0));
  gossip::ProposeMsg msg;
  msg.sender = NodeId{7};
  for (std::size_t i = 0; i < ids_count; ++i) {
    msg.ids.emplace_back(static_cast<std::uint32_t>(i / 110),
                         static_cast<std::uint16_t>(i % 110));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(gossip::encode(msg));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SerializePropose)->Arg(11)->Arg(100);

void BM_DeserializeServe(benchmark::State& state) {
  auto payload = net::BufferRef::copy_of(std::vector<std::uint8_t>(1316, 0xab));
  const auto wire =
      gossip::encode(gossip::ServeMsg{NodeId{1}, {gossip::EventId{3, 4}, payload}});
  for (auto _ : state) {
    benchmark::DoNotOptimize(gossip::decode_serve(wire.header, wire.body));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(wire.header.size() + wire.body.size()));
}
BENCHMARK(BM_DeserializeServe);

// --------------------------------------------------------------------------
// The wire path: pooled BufferRef from encode to decode.
//
// ServeMix models one request round of the steady state: `batch` stored
// MTU-sized events are encoded as serves for a peer, pass through a delivery
// queue, and are decoded on arrival. The headers share one recycled buffer,
// and each datagram's body is the stored payload chunk itself, which the
// receiver keeps as its payload.
// --------------------------------------------------------------------------

void BM_WirePathPooledServeMix(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  std::vector<gossip::Event> store;
  for (std::size_t k = 0; k < batch; ++k) {
    store.push_back(gossip::Event{
        gossip::EventId{1, static_cast<std::uint16_t>(k)},
        net::BufferRef::copy_of(std::vector<std::uint8_t>(1316, 0xab))});
  }
  sim::EventQueue q;
  sim::SimTime now = sim::SimTime::zero();
  std::uint64_t sink = 0;
  std::int64_t t = 1;
  std::vector<gossip::ServeSpan> spans;
  for (auto _ : state) {
    // Sender: the production batching path — one header buffer per request.
    const net::BufferRef headers = gossip::encode_serve_batch(NodeId{1}, store, spans);
    // Wire: one delivery event per datagram; receiver decodes zero-copy.
    for (std::size_t k = 0; k < spans.size(); ++k) {
      const sim::SimTime at = sim::SimTime::us(t++);
      net::BufferRef header = headers.slice(spans[k].offset, spans[k].length);
      net::ChunkRef body = gossip::serve_body(store[k]);
      q.schedule(at, [header = std::move(header), body = std::move(body), &sink] {
        const auto msg = gossip::decode_serve(header, body);
        sink += msg->event.payload.size();
      });
    }
    while (q.run_next(now)) {
    }
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_WirePathPooledServeMix)->Arg(1)->Arg(11)->Arg(100);

// Node 0's aggregator among `n` registered nodes, its table seeded through
// the wire path with the other n - 1 origins (origin i stamped at i ms,
// capability 512 kbps + i bps). The other nodes drop what they receive.
struct AggregationTable {
  sim::ShardedEngine engine;
  sim::Simulator& sim;
  net::NetworkFabric fabric;
  membership::Directory dir;
  std::unique_ptr<membership::LocalView> view;
  std::unique_ptr<aggregation::FreshnessAggregator> agg;

  explicit AggregationTable(std::uint32_t n)
      : engine(3, n, {}),
        sim(engine.sim_of(0)),
        fabric(engine, std::make_unique<net::ConstantLatency>(sim::SimTime::ms(1))),
        dir(engine, membership::DetectionConfig{}) {
    for (std::uint32_t i = 0; i < n; ++i) dir.add_node(NodeId{i});
    view = dir.make_view(NodeId{0});
    agg = std::make_unique<aggregation::FreshnessAggregator>(
        sim, fabric, *view, NodeId{0}, BitRate::kbps(512), aggregation::AggregationConfig{});
    // Every origin must be a registered node, or its records are rejected.
    for (std::uint32_t i = 0; i < n; ++i) fabric.register_node(NodeId{i}, BitRate::unlimited(), {});
    sim.run_until(sim::SimTime::sec(2));  // every seeded stamp lies in the past
    std::vector<gossip::CapabilityRecord> records;
    for (std::uint32_t i = 1; i < n; ++i) {
      records.push_back({NodeId{i}, 512'000 + i, sim::SimTime::ms(i)});
      if (records.size() == 10 || i + 1 == n) {
        receive(gossip::encode(gossip::AggregationMsg{NodeId{i}, records}));
        records.clear();
      }
    }
  }

  void receive(net::BufferRef bytes) {
    agg->on_datagram(net::Datagram{NodeId{1}, NodeId{0}, net::MsgClass::kAggregation, 0,
                                   std::move(bytes), {}});
  }
};

void BM_AggregationEstimate(benchmark::State& state) {
  // Cost of computing b̄ over `range` known origins.
  AggregationTable t(static_cast<std::uint32_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.agg->average_capability_bps());
  }
}
BENCHMARK(BM_AggregationEstimate)->Arg(16)->Arg(270)->Arg(1000);

void BM_AggregationRound(benchmark::State& state) {
  // One gossip round of a node that knows `range` origins, driven through
  // the simulator: pick the records, encode, send, deliver.
  AggregationTable t(static_cast<std::uint32_t>(state.range(0)));
  const sim::SimTime period = aggregation::AggregationConfig{}.period;
  t.agg->start();
  for (auto _ : state) {
    t.sim.run_until(t.sim.now() + period);  // exactly one round per period
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AggregationRound)->Arg(16)->Arg(270)->Arg(1000);

void BM_AggregationMerge(benchmark::State& state) {
  // One received round — decode 10 records and merge them into a table of
  // `range` known origins. Every record is fresher than the one it replaces,
  // so each merges and enters the freshest records.
  const auto n = static_cast<std::uint32_t>(state.range(0));
  AggregationTable t(n);
  t.sim.run_until(sim::SimTime::sec(1e6));  // room for ~10^12 fresher stamps
  constexpr std::size_t kRing = 1024;
  std::vector<net::BufferRef> ring;
  std::vector<gossip::CapabilityRecord> records;
  std::uint64_t next = 0;  // origin cursor and stamp (µs) of the next record
  auto refill = [&] {
    ring.clear();
    for (std::size_t j = 0; j < kRing; ++j) {
      records.clear();
      for (int r = 0; r < 10; ++r, ++next) {
        const auto stamp = sim::SimTime::sec(2) + sim::SimTime::us(static_cast<std::int64_t>(next));
        records.push_back({NodeId{1 + static_cast<std::uint32_t>(next % (n - 1))}, 512'000, stamp});
      }
      ring.push_back(gossip::encode(gossip::AggregationMsg{NodeId{1}, records}));
    }
  };
  std::size_t at = kRing;
  for (auto _ : state) {
    if (at == kRing) {
      state.PauseTiming();
      refill();
      at = 0;
      state.ResumeTiming();
    }
    t.receive(ring[at++]);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 10);
}
BENCHMARK(BM_AggregationMerge)->Arg(16)->Arg(270)->Arg(1000);

// --------------------------------------------------------------------------
// Membership: a mass crash detected by every view
// --------------------------------------------------------------------------

// 3,000 views and 600 kills (every fifth node) at t = 1 s. Arg 0 times the
// kills plus draining the detection wheel to quiescence; Arg 1 times one
// select_nodes(10) per view afterwards. Building and tearing down the views
// is untimed.
struct MassCrash {
  static constexpr std::uint32_t kNodes = 3000;
  MassCrash() : engine(5, kNodes, {}), dir(engine, membership::DetectionConfig{}) {
    for (std::uint32_t i = 0; i < kNodes; ++i) dir.add_node(NodeId{i});
    views.reserve(kNodes);
    for (std::uint32_t i = 0; i < kNodes; ++i) views.push_back(dir.make_view(NodeId{i}));
    engine.run_until(sim::SimTime::sec(1));
  }
  void crash() {
    for (std::uint32_t i = 0; i < kNodes; i += 5) dir.kill(NodeId{i});
    engine.run_until(sim::SimTime::sec(30));
  }
  sim::ShardedEngine engine;
  membership::Directory dir;
  std::vector<std::unique_ptr<membership::LocalView>> views;
};

void BM_DirectoryMassCrash(benchmark::State& state) {
  const bool time_selects = state.range(0) == 1;
  std::unique_ptr<MassCrash> world;
  Rng rng(9);
  std::vector<NodeId> out;
  for (auto _ : state) {
    state.PauseTiming();
    world.reset();
    world = std::make_unique<MassCrash>();
    if (time_selects) world->crash();
    state.ResumeTiming();
    if (!time_selects) {
      world->crash();
      continue;
    }
    for (const auto& view : world->views) {
      view->select_nodes(10, out, rng);
      benchmark::DoNotOptimize(out.data());
    }
  }
}
BENCHMARK(BM_DirectoryMassCrash)->Arg(0)->Arg(1)->Iterations(5)->Unit(benchmark::kMillisecond);

// --------------------------------------------------------------------------
// Superstep-sharded engine: epoch stepping and the cross-partition exchange
// --------------------------------------------------------------------------

void BM_ParallelSuperstepEpochDrain(benchmark::State& state) {
  // Cost of driving 4 partitions through 1 ms epochs (barrier per epoch) with
  // purely local event load. Arg = worker threads; 1 measures pure engine
  // overhead, >1 adds the fork-join synchronization.
  const auto workers = static_cast<std::size_t>(state.range(0));
  sim::ShardedEngine engine(7, 256,
                            {.partitions = 4, .workers = workers, .epoch = sim::SimTime::ms(1)});
  constexpr int kEventsPerPartition = 64;
  std::vector<std::uint64_t> fired(engine.partitions(), 0);
  for (auto _ : state) {
    const sim::SimTime start = engine.now();
    for (std::uint32_t p = 0; p < engine.partitions(); ++p) {
      sim::Simulator& s = engine.sim_of(p);
      std::uint64_t* count = &fired[p];  // partition-private: no write sharing
      for (int i = 0; i < kEventsPerPartition; ++i) {
        s.after(sim::SimTime::us(100 * (i + 1)), [count] { benchmark::DoNotOptimize(++*count); });
      }
    }
    engine.run_until(start + sim::SimTime::ms(10));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(engine.partitions()) *
                          kEventsPerPartition);
}
BENCHMARK(BM_ParallelSuperstepEpochDrain)->Arg(1)->Arg(2)->Arg(4);

void BM_ParallelSuperstepBufferExchange(benchmark::State& state) {
  // Cost of the barrier exchange itself: every datagram crosses a partition
  // boundary, so each epoch gathers, orders, imports, and re-schedules the
  // full outbox volume. Arg = worker threads.
  const auto workers = static_cast<std::size_t>(state.range(0));
  constexpr std::uint32_t kNodes = 256;
  sim::ShardedEngine engine(11, kNodes,
                            {.partitions = 4, .workers = workers, .epoch = sim::SimTime::ms(1)});
  net::NetworkFabric fabric(engine, std::make_unique<net::ConstantLatency>(sim::SimTime::ms(1)));
  std::vector<std::uint64_t> received(engine.partitions(), 0);
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    std::uint64_t* count = &received[engine.partition_of(i)];
    fabric.register_node(NodeId{i}, BitRate::unlimited(),
                         [count](const net::Datagram&) { ++*count; });
  }
  const std::vector<std::uint8_t> payload(64, 0x5a);
  for (auto _ : state) {
    const sim::SimTime start = engine.now();
    for (std::uint32_t i = 0; i < kNodes; ++i) {
      // Destination 64 ids away: always a different partition of the 4.
      fabric.send(NodeId{i}, NodeId{(i + 64) % kNodes}, net::MsgClass::kPropose,
                  net::BufferRef::copy_of(payload));
    }
    engine.run_until(start + sim::SimTime::ms(3));
  }
  state.SetItemsProcessed(state.iterations() * kNodes);
}
BENCHMARK(BM_ParallelSuperstepBufferExchange)->Arg(1)->Arg(2)->Arg(4);

// Adaptive epoch widening over a sparse, quiescent-tail event pattern: one
// event per partition every 50 ms against a 1 ms epoch floor. Widening jumps
// barrier-to-event instead of grinding 50 empty barriers per event.
void BM_EpochWidenOn(benchmark::State& state) {
  const auto workers = static_cast<std::size_t>(state.range(0));
  sim::ShardedEngine engine(7, 256,
                            {.partitions = 4, .workers = workers, .epoch = sim::SimTime::ms(1)});
  constexpr int kEventsPerPartition = 10;
  std::vector<std::uint64_t> fired(engine.partitions(), 0);
  for (auto _ : state) {
    const sim::SimTime start = engine.now();
    for (std::uint32_t p = 0; p < engine.partitions(); ++p) {
      sim::Simulator& s = engine.sim_of(p);
      std::uint64_t* count = &fired[p];  // partition-private: no write sharing
      for (int i = 0; i < kEventsPerPartition; ++i) {
        s.after(sim::SimTime::ms(50 * (i + 1)), [count] { benchmark::DoNotOptimize(++*count); });
      }
    }
    engine.run_until(start + sim::SimTime::ms(500));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(engine.partitions()) *
                          kEventsPerPartition);
}
BENCHMARK(BM_EpochWidenOn)->Arg(1)->Arg(2)->Arg(4);

// --------------------------------------------------------------------------
// WindowRing: the gossip engine's per-window event state.
//
// Workload shape matches steady-state dissemination: a sliding domain of
// `horizon` windows x 110 packets, fully populated, probed with a mix of
// hits and (gc'd / not-yet-seen) misses, and advanced one window at a time.
// --------------------------------------------------------------------------

constexpr std::uint32_t kRingSlots = 110;
constexpr std::uint32_t kRingHorizon = 41;  // gc_window_horizon 40 -> 41 live windows

std::vector<gossip::EventId> ring_lookup_ids() {
  // 3/4 hits spread over the domain, 1/4 misses (half stale, half future).
  Rng rng(7);
  std::vector<gossip::EventId> ids;
  for (std::size_t i = 0; i < 4096; ++i) {
    const auto roll = rng.below(4);
    const std::uint32_t window =
        roll == 0 ? (i % 2 ? kRingHorizon + 1 + static_cast<std::uint32_t>(rng.below(8))
                           : 0)
                  : 1 + static_cast<std::uint32_t>(rng.below(kRingHorizon - 1));
    ids.emplace_back(window, static_cast<std::uint16_t>(rng.below(kRingSlots)));
  }
  return ids;
}

void BM_WindowRingLookup(benchmark::State& state) {
  gossip::WindowRing<std::uint64_t> ring({kRingHorizon, kRingSlots});
  ring.advance(1);  // window 0 is gc'd: stale probes miss below base
  for (std::uint32_t w = 1; w < kRingHorizon; ++w) {
    for (std::uint16_t i = 0; i < kRingSlots; ++i) {
      *ring.insert(gossip::EventId{w, i}).first = w + i;
    }
  }
  const std::vector<gossip::EventId> ids = ring_lookup_ids();
  for (auto _ : state) {
    for (const gossip::EventId id : ids) {
      benchmark::DoNotOptimize(ring.find(id));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ids.size()));
}
BENCHMARK(BM_WindowRingLookup);

void BM_WindowRingInsertGc(benchmark::State& state) {
  // One iteration = one stream window: insert its 110 ids, then advance the
  // gc cutoff by one window (what ThreePhaseGossip::gc does per window).
  gossip::WindowRing<std::uint64_t> ring({kRingHorizon, kRingSlots});
  std::uint32_t window = 0;
  for (auto _ : state) {
    for (std::uint16_t i = 0; i < kRingSlots; ++i) {
      *ring.insert(gossip::EventId{window, i}).first = i;
    }
    ++window;
    if (window >= kRingHorizon) ring.advance(window - kRingHorizon + 1);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kRingSlots);
}
BENCHMARK(BM_WindowRingInsertGc);

}  // namespace

BENCHMARK_MAIN();
