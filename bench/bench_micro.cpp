// Micro-benchmarks (google-benchmark) for the hot substrate paths: GF(256)
// Reed-Solomon coding, event-queue churn, wire serialization, and the
// aggregation estimator.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <unordered_map>

#include "aggregation/freshness_aggregator.hpp"
#include "common/rng.hpp"
#include "fec/gf256.hpp"
#include "fec/reed_solomon.hpp"
#include "fec/window_codec.hpp"
#include "gossip/messages.hpp"
#include "gossip/window_ring.hpp"
#include "net/fabric.hpp"
#include "sim/sharded_engine.hpp"
#include "sim/simulator.hpp"

// Bench-local hash support: src/ deliberately defines no std::hash for the id
// types (hash containers are banned there by the determinism linter), but the
// retained HashMap baseline rows are exactly hash containers.
template <>
struct std::hash<hg::EventId> {
  std::size_t operator()(hg::EventId id) const noexcept {
    return static_cast<std::size_t>(id.raw() * 0x9e3779b97f4a7c15ULL);  // Fibonacci hash
  }
};

namespace {

using namespace hg;

// GF(256) slice kernels: the scalar log/exp loop vs the runtime-dispatched
// split-nibble SIMD path (PSHUFB / NEON TBL). Identical bytes by contract
// (gf256_test.cpp proves it); this row tracks the speedup.
void BM_Gf256MulAddScalar(benchmark::State& state) {
  const auto len = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint8_t> dst(len, 0), src(len);
  for (std::size_t i = 0; i < len; ++i) src[i] = static_cast<std::uint8_t>(i * 37 + 11);
  std::uint8_t coeff = 1;
  for (auto _ : state) {
    fec::GF256::mul_add_slice_scalar(dst.data(), src.data(), len, coeff);
    coeff = static_cast<std::uint8_t>(coeff + 2);  // odd: never the 0 fast path
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(len));
}
BENCHMARK(BM_Gf256MulAddScalar)->Arg(64)->Arg(1316);

void BM_Gf256MulAddSimd(benchmark::State& state) {
  const auto len = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint8_t> dst(len, 0), src(len);
  for (std::size_t i = 0; i < len; ++i) src[i] = static_cast<std::uint8_t>(i * 37 + 11);
  std::uint8_t coeff = 1;
  state.SetLabel(fec::GF256::simd_level_name());
  for (auto _ : state) {
    fec::GF256::mul_add_slice(dst.data(), src.data(), len, coeff);
    coeff = static_cast<std::uint8_t>(coeff + 2);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(len));
}
BENCHMARK(BM_Gf256MulAddSimd)->Arg(64)->Arg(1316);

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
// Pooled event queue vs the pre-refactor std::function baseline.
//
// LegacyEventQueue reproduces the engine this repo shipped with: one
// std::function per entry moved through the heap, plus a shared_ptr<bool>
// allocation per cancellable event. The pooled queue must beat it by >= 2x
// events/sec on the representative workload (datagram-sized captures).
// --------------------------------------------------------------------------

class LegacyEventQueue {
 public:
  using Fn = std::function<void()>;

  std::shared_ptr<bool> schedule(sim::SimTime at, Fn fn) {
    auto alive = std::make_shared<bool>(true);
    heap_.push_back(Entry{at, next_seq_++, std::move(fn), alive});
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
    return alive;
  }

  void schedule_fire_and_forget(sim::SimTime at, Fn fn) {
    heap_.push_back(Entry{at, next_seq_++, std::move(fn), nullptr});
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  }

  bool run_next(sim::SimTime& now) {
    while (!heap_.empty() && heap_.front().alive && !*heap_.front().alive) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
      heap_.pop_back();
    }
    if (heap_.empty()) return false;
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    Entry e = std::move(heap_.back());
    heap_.pop_back();
    now = e.at;
    ++executed_;
    if (e.alive) *e.alive = false;
    e.fn();
    return true;
  }

  [[nodiscard]] std::uint64_t executed() const { return executed_; }

 private:
  struct Entry {
    sim::SimTime at;
    std::uint64_t seq;
    Fn fn;
    std::shared_ptr<bool> alive;

    bool operator>(const Entry& o) const {
      if (at != o.at) return at > o.at;
      return seq > o.seq;
    }
  };

  std::vector<Entry> heap_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
};

// The real delivery path captures a fabric pointer + a Datagram (~40 bytes
// with its shared payload): big enough to defeat std::function's 16-byte
// inline buffer, small enough for the pooled queue's 48-byte slots.
struct DeliveryCapture {
  void* fabric;
  std::uint32_t src, dst, msg_class;
  std::shared_ptr<const std::vector<std::uint8_t>> bytes;
  std::uint64_t* sink;
};

void BM_EventQueuePooledScheduleRun(benchmark::State& state) {
  const auto batch = static_cast<int>(state.range(0));
  auto payload = std::make_shared<const std::vector<std::uint8_t>>(1316, 0xab);
  std::uint64_t sink = 0;
  for (auto _ : state) {
    sim::EventQueue q;
    sim::SimTime now = sim::SimTime::zero();
    for (int i = 0; i < batch; ++i) {
      DeliveryCapture d{nullptr, 1, 2, 3, payload, &sink};
      q.schedule_fire_and_forget(sim::SimTime::us(i % 1000),
                                 [d] { *d.sink += d.bytes->size(); });
    }
    while (q.run_next(now)) {
    }
    benchmark::DoNotOptimize(q.executed());
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * batch);
}
BENCHMARK(BM_EventQueuePooledScheduleRun)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_EventQueueLegacyScheduleRun(benchmark::State& state) {
  const auto batch = static_cast<int>(state.range(0));
  auto payload = std::make_shared<const std::vector<std::uint8_t>>(1316, 0xab);
  std::uint64_t sink = 0;
  for (auto _ : state) {
    LegacyEventQueue q;
    sim::SimTime now = sim::SimTime::zero();
    for (int i = 0; i < batch; ++i) {
      DeliveryCapture d{nullptr, 1, 2, 3, payload, &sink};
      q.schedule_fire_and_forget(sim::SimTime::us(i % 1000),
                                 [d] { *d.sink += d.bytes->size(); });
    }
    while (q.run_next(now)) {
    }
    benchmark::DoNotOptimize(q.executed());
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * batch);
}
BENCHMARK(BM_EventQueueLegacyScheduleRun)->Arg(1000)->Arg(10000)->Arg(100000);

// The headline engine comparison: the steady-state mix a gossip simulation
// actually generates. Every cycle schedules one datagram delivery (40-byte
// capture), arms one cancellable retransmission timer, cancels the timer
// armed kRetxWindow cycles ago (serves almost always beat the timeout), and
// executes one event. The pooled queue runs this with zero allocations; the
// legacy queue pays a std::function heap allocation per delivery plus a
// shared_ptr control block per timer.
constexpr std::size_t kRetxWindow = 64;

void BM_EventQueuePooledSimMix(benchmark::State& state) {
  auto payload = std::make_shared<const std::vector<std::uint8_t>>(1316, 0xab);
  std::uint64_t sink = 0;
  sim::EventQueue q;
  sim::SimTime now = sim::SimTime::zero();
  std::vector<sim::EventHandle> retx(kRetxWindow);
  std::size_t w = 0;
  std::int64_t t = 1;
  for (auto _ : state) {
    DeliveryCapture d{nullptr, 1, 2, 3, payload, &sink};
    q.schedule_fire_and_forget(sim::SimTime::us(t + 7),
                               [d] { *d.sink += d.bytes->size(); });
    retx[w].cancel();
    retx[w] = q.schedule(sim::SimTime::us(t + 1000), [] {});
    w = (w + 1) % kRetxWindow;
    q.run_next(now);
    ++t;
  }
  benchmark::DoNotOptimize(sink);
  benchmark::DoNotOptimize(q.executed());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueuePooledSimMix);

void BM_EventQueueLegacySimMix(benchmark::State& state) {
  auto payload = std::make_shared<const std::vector<std::uint8_t>>(1316, 0xab);
  std::uint64_t sink = 0;
  LegacyEventQueue q;
  sim::SimTime now = sim::SimTime::zero();
  std::vector<std::shared_ptr<bool>> retx(kRetxWindow);
  std::size_t w = 0;
  std::int64_t t = 1;
  for (auto _ : state) {
    DeliveryCapture d{nullptr, 1, 2, 3, payload, &sink};
    q.schedule_fire_and_forget(sim::SimTime::us(t + 7),
                               [d] { *d.sink += d.bytes->size(); });
    if (retx[w]) *retx[w] = false;
    retx[w] = q.schedule(sim::SimTime::us(t + 1000), [] {});
    w = (w + 1) % kRetxWindow;
    q.run_next(now);
    ++t;
  }
  benchmark::DoNotOptimize(sink);
  benchmark::DoNotOptimize(q.executed());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueueLegacySimMix);

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

void BM_EventQueueLegacyCancellation(benchmark::State& state) {
  for (auto _ : state) {
    LegacyEventQueue q;
    sim::SimTime now = sim::SimTime::zero();
    std::vector<std::shared_ptr<bool>> handles;
    handles.reserve(10000);
    for (int i = 0; i < 10000; ++i) {
      handles.push_back(q.schedule(sim::SimTime::us(i), [] {}));
    }
    for (std::size_t i = 0; i < handles.size(); i += 2) *handles[i] = false;
    while (q.run_next(now)) {
    }
    benchmark::DoNotOptimize(q.executed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 10000);
}
BENCHMARK(BM_EventQueueLegacyCancellation);

void BM_SimulatorScheduleRun(benchmark::State& state) {
  const auto batch = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim(1);
    for (int i = 0; i < batch; ++i) {
      sim.after_fire_and_forget(sim::SimTime::us(i % 1000), [] {});
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
  const auto buf =
      gossip::encode(gossip::ServeMsg{NodeId{1}, {gossip::EventId{3, 4}, payload}});
  for (auto _ : state) {
    benchmark::DoNotOptimize(gossip::decode_serve(buf));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(buf.size()));
}
BENCHMARK(BM_DeserializeServe);

// --------------------------------------------------------------------------
// The wire path: pooled BufferRef vs the pre-refactor shared_ptr<vector>
// baseline.
//
// ServeMix models one request round of the steady state: `batch` stored
// MTU-sized events are encoded as serves for a peer, pass through a delivery
// queue, and are decoded on arrival. The pooled path encodes the whole batch
// into one recycled buffer, sends zero-copy slices, and decodes payloads as
// slices of the arrival buffer; the legacy path pays one vector + one
// shared_ptr control block per encode and a payload copy per decode. The
// pooled path must win by >= 1.3x events/sec.
// --------------------------------------------------------------------------

// The shared_ptr<vector> wire path this repo shipped with, reproduced.
using LegacyBytes = std::shared_ptr<const std::vector<std::uint8_t>>;

LegacyBytes legacy_encode_serve(NodeId sender, gossip::EventId id,
                                const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> buf;
  buf.reserve(16 + payload.size());
  buf.push_back(static_cast<std::uint8_t>(gossip::MsgTag::kServe));
  const std::uint32_t s = sender.value();
  const std::uint64_t raw = id.raw();
  const auto append = [&buf](const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    buf.insert(buf.end(), b, b + n);
  };
  append(&s, sizeof s);
  append(&raw, sizeof raw);
  std::uint64_t len = payload.size();
  while (len >= 0x80) {
    buf.push_back(static_cast<std::uint8_t>(len) | 0x80);
    len >>= 7;
  }
  buf.push_back(static_cast<std::uint8_t>(len));
  buf.insert(buf.end(), payload.begin(), payload.end());
  return std::make_shared<const std::vector<std::uint8_t>>(std::move(buf));
}

struct LegacyServe {
  NodeId sender;
  gossip::EventId id;
  LegacyBytes payload;  // copied out of the arrival buffer, as decode did
};

std::optional<LegacyServe> legacy_decode_serve(const std::vector<std::uint8_t>& buf) {
  net::ByteReader r(buf);
  LegacyServe m;
  const auto tag = r.u8();
  if (!tag || *tag != static_cast<std::uint8_t>(gossip::MsgTag::kServe)) return std::nullopt;
  const auto s = r.u32();
  const auto raw = r.u64();
  if (!s || !raw) return std::nullopt;
  m.sender = NodeId{*s};
  m.id = gossip::EventId::from_raw(*raw);
  const auto payload = r.bytes();
  if (!payload) return std::nullopt;
  m.payload =
      std::make_shared<const std::vector<std::uint8_t>>(payload->begin(), payload->end());
  return m;
}

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
    // Sender: the production batching path — one pooled buffer per request.
    const net::BufferRef all = gossip::encode_serve_batch(NodeId{1}, store, spans);
    // Wire: one delivery event per datagram; receiver decodes zero-copy.
    for (const auto& [off, len, phantom] : spans) {
      q.schedule_fire_and_forget(
          sim::SimTime::us(t++), [slice = all.slice(off, len), &sink]() {
            const auto msg = gossip::decode_serve(slice);
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

void BM_WirePathLegacyServeMix(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  struct LegacyEvent {
    gossip::EventId id;
    std::vector<std::uint8_t> payload;
  };
  std::vector<LegacyEvent> store;
  for (std::size_t k = 0; k < batch; ++k) {
    store.push_back(LegacyEvent{gossip::EventId{1, static_cast<std::uint16_t>(k)},
                                std::vector<std::uint8_t>(1316, 0xab)});
  }
  sim::EventQueue q;
  sim::SimTime now = sim::SimTime::zero();
  std::uint64_t sink = 0;
  std::int64_t t = 1;
  for (auto _ : state) {
    for (const auto& ev : store) {
      // Sender: one heap vector + one control block per serve.
      LegacyBytes bytes = legacy_encode_serve(NodeId{1}, ev.id, ev.payload);
      q.schedule_fire_and_forget(sim::SimTime::us(t++),
                                 [bytes = std::move(bytes), &sink]() {
                                   const auto msg = legacy_decode_serve(*bytes);
                                   sink += msg->payload->size();
                                 });
    }
    while (q.run_next(now)) {
    }
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_WirePathLegacyServeMix)->Arg(1)->Arg(11)->Arg(100);

void BM_AggregationEstimate(benchmark::State& state) {
  // Cost of computing b̄ over `range` known origins.
  sim::Simulator sim(3);
  net::NetworkFabric fabric(sim, std::make_unique<net::ConstantLatency>(sim::SimTime::ms(1)),
                            std::make_unique<net::NoLoss>());
  membership::Directory dir(sim, membership::DetectionConfig{});
  const auto n = static_cast<std::uint32_t>(state.range(0));
  for (std::uint32_t i = 0; i < n; ++i) dir.add_node(NodeId{i});
  auto view = dir.make_view(NodeId{0});
  aggregation::FreshnessAggregator agg(sim, fabric, *view, NodeId{0}, BitRate::kbps(512),
                                       {});
  fabric.register_node(NodeId{0}, BitRate::unlimited(), nullptr);
  // Seed records directly through the wire path.
  std::vector<gossip::CapabilityRecord> records;
  for (std::uint32_t i = 1; i < n; ++i) {
    records.push_back({NodeId{i}, 512'000 + i, sim::SimTime::ms(i)});
    if (records.size() == 10 || i + 1 == n) {
      const auto bytes = gossip::encode(gossip::AggregationMsg{NodeId{i}, records});
      agg.on_datagram(net::Datagram{NodeId{i}, NodeId{0}, net::MsgClass::kAggregation,
                                    bytes});
      records.clear();
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(agg.average_capability_bps());
  }
}
BENCHMARK(BM_AggregationEstimate)->Arg(16)->Arg(270)->Arg(1000);

// --------------------------------------------------------------------------
// Superstep-sharded engine: epoch stepping and the cross-partition exchange
// --------------------------------------------------------------------------

void BM_ParallelSuperstepEpochDrain(benchmark::State& state) {
  // Cost of driving 4 partitions through 1 ms epochs (barrier per epoch) with
  // purely local event load. Arg = worker threads; 1 measures pure engine
  // overhead, >1 adds the fork-join synchronization.
  const auto workers = static_cast<std::size_t>(state.range(0));
  sim::ShardedEngine engine(7, 256, {4, workers, sim::SimTime::ms(1)});
  constexpr int kEventsPerPartition = 64;
  std::vector<std::uint64_t> fired(engine.partitions(), 0);
  for (auto _ : state) {
    const sim::SimTime start = engine.now();
    for (std::uint32_t p = 0; p < engine.partitions(); ++p) {
      sim::Simulator& s = engine.sim_of(p);
      std::uint64_t* count = &fired[p];  // partition-private: no write sharing
      for (int i = 0; i < kEventsPerPartition; ++i) {
        s.after_fire_and_forget(sim::SimTime::us(100 * (i + 1)),
                                [count] { benchmark::DoNotOptimize(++*count); });
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
  // full outbox volume (default batched mode). Arg = worker threads.
  const auto workers = static_cast<std::size_t>(state.range(0));
  constexpr std::uint32_t kNodes = 256;
  sim::ShardedEngine engine(11, kNodes, {4, workers, sim::SimTime::ms(1)});
  net::NetworkFabric fabric(engine, std::make_unique<net::ConstantLatency>(sim::SimTime::ms(1)),
                            std::make_unique<net::NoLoss>());
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

// Batched (pooled segment blocks, one import copy per <=256 KiB) vs
// per-message deep-copy exchange, at stream-packet payload sizes where the
// per-message allocation cost dominates. Results are bit-identical between
// the two modes; only the import path differs.
void run_parallel_exchange(benchmark::State& state, net::FabricConfig::ExchangeMode mode) {
  const auto workers = static_cast<std::size_t>(state.range(0));
  constexpr std::uint32_t kNodes = 256;
  sim::ShardedEngine engine(11, kNodes, {4, workers, sim::SimTime::ms(1)});
  net::FabricConfig cfg;
  cfg.exchange = mode;
  net::NetworkFabric fabric(engine, std::make_unique<net::ConstantLatency>(sim::SimTime::ms(1)),
                            std::make_unique<net::NoLoss>(), cfg);
  std::vector<std::uint64_t> received(engine.partitions(), 0);
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    std::uint64_t* count = &received[engine.partition_of(i)];
    fabric.register_node(NodeId{i}, BitRate::unlimited(),
                         [count](const net::Datagram&) { ++*count; });
  }
  const std::vector<std::uint8_t> payload(1316, 0x5a);  // one stream packet
  for (auto _ : state) {
    const sim::SimTime start = engine.now();
    for (std::uint32_t i = 0; i < kNodes; ++i) {
      fabric.send(NodeId{i}, NodeId{(i + 64) % kNodes}, net::MsgClass::kServe,
                  net::BufferRef::copy_of(payload));
    }
    engine.run_until(start + sim::SimTime::ms(3));
  }
  state.SetItemsProcessed(state.iterations() * kNodes);
}

void BM_ParallelExchangeBatched(benchmark::State& state) {
  run_parallel_exchange(state, net::FabricConfig::ExchangeMode::kBatched);
}
BENCHMARK(BM_ParallelExchangeBatched)->Arg(1)->Arg(2)->Arg(4);

void BM_ParallelExchangeDeepCopy(benchmark::State& state) {
  run_parallel_exchange(state, net::FabricConfig::ExchangeMode::kDeepCopy);
}
BENCHMARK(BM_ParallelExchangeDeepCopy)->Arg(1)->Arg(2)->Arg(4);

// Adaptive epoch widening over a sparse, quiescent-tail event pattern: one
// event per partition every 50 ms against a 1 ms epoch floor. Widening jumps
// barrier-to-event; the baseline grinds 50 empty barriers per event. Results
// (event order, counts) are identical in both modes.
void run_epoch_widen(benchmark::State& state, bool widen) {
  const auto workers = static_cast<std::size_t>(state.range(0));
  sim::ShardedEngine::Config cfg{4, workers, sim::SimTime::ms(1)};
  cfg.epoch_widening = widen;
  sim::ShardedEngine engine(7, 256, std::move(cfg));
  constexpr int kEventsPerPartition = 10;
  std::vector<std::uint64_t> fired(engine.partitions(), 0);
  for (auto _ : state) {
    const sim::SimTime start = engine.now();
    for (std::uint32_t p = 0; p < engine.partitions(); ++p) {
      sim::Simulator& s = engine.sim_of(p);
      std::uint64_t* count = &fired[p];  // partition-private: no write sharing
      for (int i = 0; i < kEventsPerPartition; ++i) {
        s.after_fire_and_forget(sim::SimTime::ms(50 * (i + 1)),
                                [count] { benchmark::DoNotOptimize(++*count); });
      }
    }
    engine.run_until(start + sim::SimTime::ms(500));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(engine.partitions()) *
                          kEventsPerPartition);
}

void BM_EpochWidenOn(benchmark::State& state) { run_epoch_widen(state, true); }
BENCHMARK(BM_EpochWidenOn)->Arg(1)->Arg(2)->Arg(4);

void BM_EpochWidenOff(benchmark::State& state) { run_epoch_widen(state, false); }
BENCHMARK(BM_EpochWidenOff)->Arg(1)->Arg(2)->Arg(4);

// --------------------------------------------------------------------------
// WindowRing vs the unordered_map it replaced in the gossip engine.
//
// Workload shape matches steady-state dissemination: a sliding domain of
// `horizon` windows x 110 packets, fully populated, probed with a mix of
// hits and (gc'd / not-yet-seen) misses, and advanced one window at a time.
// --------------------------------------------------------------------------

constexpr std::uint32_t kRingSlots = 110;
constexpr std::uint32_t kRingHorizon = 41;  // gc_window_horizon 40 -> 41 live windows

template <typename Fill>
void ring_lookup_ids(std::vector<gossip::EventId>& ids, Fill&& fill) {
  // 3/4 hits spread over the domain, 1/4 misses (half stale, half future).
  Rng rng(7);
  for (std::size_t i = 0; i < 4096; ++i) {
    const auto roll = rng.below(4);
    const std::uint32_t window =
        roll == 0 ? (i % 2 ? kRingHorizon + 1 + static_cast<std::uint32_t>(rng.below(8))
                           : 0)
                  : 1 + static_cast<std::uint32_t>(rng.below(kRingHorizon - 1));
    ids.emplace_back(window, static_cast<std::uint16_t>(rng.below(kRingSlots)));
    fill(ids.back());
  }
}

void BM_WindowRingLookup(benchmark::State& state) {
  gossip::WindowRing<std::uint64_t> ring({kRingHorizon, kRingSlots});
  ring.advance(1);  // window 0 is gc'd: stale probes miss below base
  for (std::uint32_t w = 1; w < kRingHorizon; ++w) {
    for (std::uint16_t i = 0; i < kRingSlots; ++i) {
      *ring.insert(gossip::EventId{w, i}).first = w + i;
    }
  }
  std::vector<gossip::EventId> ids;
  ring_lookup_ids(ids, [](gossip::EventId) {});
  for (auto _ : state) {
    for (const gossip::EventId id : ids) {
      benchmark::DoNotOptimize(ring.find(id));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ids.size()));
}
BENCHMARK(BM_WindowRingLookup);

void BM_HashMapLookup(benchmark::State& state) {
  std::unordered_map<gossip::EventId, std::uint64_t> map;
  for (std::uint32_t w = 1; w < kRingHorizon; ++w) {
    for (std::uint16_t i = 0; i < kRingSlots; ++i) {
      map.emplace(gossip::EventId{w, i}, w + i);
    }
  }
  std::vector<gossip::EventId> ids;
  ring_lookup_ids(ids, [](gossip::EventId) {});
  for (auto _ : state) {
    for (const gossip::EventId id : ids) {
      benchmark::DoNotOptimize(map.find(id));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ids.size()));
}
BENCHMARK(BM_HashMapLookup);

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

void BM_HashMapInsertGc(benchmark::State& state) {
  std::unordered_map<gossip::EventId, std::uint64_t> map;
  std::uint32_t window = 0;
  for (auto _ : state) {
    for (std::uint16_t i = 0; i < kRingSlots; ++i) {
      map.emplace(gossip::EventId{window, i}, i);
    }
    ++window;
    if (window >= kRingHorizon) {
      const std::uint32_t cutoff = window - kRingHorizon + 1;
      std::erase_if(map, [&](const auto& kv) { return kv.first.window() < cutoff; });
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kRingSlots);
}
BENCHMARK(BM_HashMapInsertGc);

}  // namespace

BENCHMARK_MAIN();
