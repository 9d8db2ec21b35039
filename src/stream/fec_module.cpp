#include "stream/fec_module.hpp"

namespace hg::stream {

void FecModule::on_deliver(const gossip::Event& event) {
  const gossip::EventId id = event.id;
  if (id.window() >= windows_.size()) return;
  if (id.index() >= codec_.window_packets()) return;
  WindowState& ws = windows_[id.window()];
  if (ws.decoded) return;
  // The payload came off the wire: wrong-sized bytes cannot be a shard of
  // this window, so drop them here rather than poisoning the shard set.
  if (event.payload.size() != codec_.config().packet_bytes) {
    ++stats_.malformed_packets;
    return;
  }
  if (ws.shards.empty()) ws.shards.resize(codec_.window_packets());
  net::BufferRef& slot = ws.shards[id.index()];
  if (slot) return;  // duplicate delivery
  slot = event.payload;
  ++ws.present;
  if (codec_.decodable(ws.present)) try_decode(id.window());
}

void FecModule::try_decode(std::uint32_t w) {
  WindowState& ws = windows_[w];
  std::vector<fec::ReedSolomon::ShardView> views(ws.shards.size());
  for (std::size_t i = 0; i < ws.shards.size(); ++i) {
    if (ws.shards[i]) views[i] = ws.shards[i].bytes();
  }
  const auto repaired = codec_.repair_window(views);
  if (!repaired.has_value()) {
    // Leave the window open: a later arrival changes the shard set and may
    // decode where this one failed.
    ++stats_.decode_failures;
    return;
  }
  ws.decoded = true;
  ++stats_.windows_decoded;
  if (repaired->empty()) {
    ++stats_.windows_complete;
  } else {
    stats_.erasures_repaired += repaired->size();
  }
  if (sink_) {
    // The window's data packets: arrived ones in place, repaired ones from
    // the decode, in index order.
    const std::size_t k = codec_.config().data_per_window;
    std::vector<std::span<const std::uint8_t>> data(k);
    std::size_t next = 0;
    for (std::size_t i = 0; i < k; ++i) {
      if (views[i].has_value()) {
        data[i] = *views[i];
      } else {
        data[i] = (*repaired)[next++];
      }
    }
    sink_(w, data);
  }
  ws.shards.clear();
  ws.shards.shrink_to_fit();
}

}  // namespace hg::stream
