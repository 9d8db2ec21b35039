#include "tree/static_tree.hpp"

#include "common/assert.hpp"
#include "net/serde.hpp"

namespace hg::tree {

StaticTree::StaticTree(sim::Simulator& simulator, net::NetworkFabric& fabric,
                       std::size_t nodes, std::size_t arity, DeliverFn deliver)
    : sim_(simulator), fabric_(fabric), nodes_(nodes), arity_(arity),
      deliver_(std::move(deliver)) {
  HG_ASSERT(arity_ >= 1);
  HG_ASSERT(deliver_ != nullptr);
}

std::vector<NodeId> StaticTree::children_of(NodeId node) const {
  std::vector<NodeId> out;
  const std::uint64_t base = std::uint64_t{node.value()} * arity_ + 1;
  for (std::size_t k = 0; k < arity_; ++k) {
    const std::uint64_t child = base + k;
    if (child >= nodes_) break;
    out.push_back(NodeId{static_cast<std::uint32_t>(child)});
  }
  return out;
}

std::size_t StaticTree::depth() const {
  std::size_t d = 0;
  std::uint64_t covered = 1, level = 1;
  while (covered < nodes_) {
    level *= arity_;
    covered += level;
    ++d;
  }
  return d;
}

void StaticTree::publish(const gossip::Event& event) {
  deliver_(NodeId{0}, event);
  forward(NodeId{0}, event);
}

void StaticTree::forward(NodeId from, const gossip::Event& event) {
  // The serve framing, tagged kTreePush: a header encoded once and shared
  // across all children, and the payload chunk itself as the body.
  net::ByteWriter w(16);
  w.u8(static_cast<std::uint8_t>(gossip::MsgTag::kTreePush));
  w.u32(from.value());
  w.u64(event.id.raw());
  w.varint(event.payload.size());
  const net::BufferRef header = w.finish();
  const net::ChunkRef body = gossip::serve_body(event);
  for (NodeId child : children_of(from)) {
    fabric_.send(from, child, net::MsgClass::kTree, header, body);
  }
}

void StaticTree::on_datagram(NodeId node, const net::Datagram& d) {
  // Zero copy: the delivered payload is the datagram's body chunk.
  const auto m = gossip::decode_serve(d.bytes, d.body, /*virtual_payloads=*/false,
                                      gossip::MsgTag::kTreePush);
  if (!m) return;
  deliver_(node, m->event);
  forward(node, m->event);
}

}  // namespace hg::tree
