#include "core/snapshot.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace megflood {

Snapshot::Snapshot(const Snapshot& other) : num_nodes_(other.num_nodes_) {
  owned_.reserve(other.num_edges());
  other.for_each_edge(
      [this](NodeId u, NodeId v) { owned_.push_back(pack_pair(u, v)); });
}

Snapshot& Snapshot::operator=(const Snapshot& other) {
  Snapshot copy(other);
  return *this = std::move(copy);
}

void Snapshot::reset(std::size_t num_nodes) {
  num_nodes_ = num_nodes;
  clear();
}

void Snapshot::own() {
  if (form_ == Form::kGroups) {
    (void)keys();
  } else if (form_ == Form::kBorrowed) {
    owned_ = Snapshot(*this).owned_;
  }
  form_ = Form::kOwned;
}

void Snapshot::write_group_keys() const {
  owned_.clear();
  owned_.reserve(groups_.edges);
  for_each_key([this](NodeId u, NodeId v, std::uint32_t /*on*/) {
    owned_.push_back(pack_pair(u, v));
  });
  keys_valid_ = true;
}

void Snapshot::ensure_csr() const {
  if (csr_valid_) return;
  // offsets_ entries are uint32 directed-edge counts; 2 * |E| past that
  // range would wrap the prefix sums into corrupt adjacency.
  const std::size_t edges = num_edges();
  if (edges > (std::numeric_limits<std::uint32_t>::max)() / 2) {
    throw std::length_error("Snapshot: edge count overflows CSR offsets");
  }
  // Two-pass counting build: degree histogram, exclusive prefix sum, fill.
  // A key that is not an edge counts nothing and stores its endpoints
  // into the two slots past the last row, dropped at the end.
  offsets_.assign(num_nodes_ + 1, 0);
  std::uint32_t* const offsets = offsets_.data();
  for_each_key([offsets](NodeId u, NodeId v, std::uint32_t on) {
    offsets[u + 1] += on;
    offsets[v + 1] += on;
  });
  for (std::size_t i = 0; i < num_nodes_; ++i) offsets_[i + 1] += offsets_[i];
  const auto spare = static_cast<std::uint32_t>(2 * edges);
  neighbors_.resize(2 * edges + 2);
  cursor_.assign(offsets_.begin(), offsets_.end() - 1);
  std::uint32_t* const cursor = cursor_.data();
  NodeId* const neighbors = neighbors_.data();
  for_each_key([cursor, neighbors, spare](NodeId u, NodeId v,
                                          std::uint32_t on) {
    neighbors[on != 0 ? cursor[u] : spare] = v;
    cursor[u] += on;
    neighbors[on != 0 ? cursor[v] : spare + 1] = u;
    cursor[v] += on;
  });
  neighbors_.resize(2 * edges);
  csr_valid_ = true;
}

std::span<const NodeId> Snapshot::neighbors(NodeId v) const {
  check_node(v);
  ensure_csr();
  return {neighbors_.data() + offsets_[v],
          neighbors_.data() + offsets_[v + 1]};
}

std::size_t Snapshot::degree(NodeId v) const {
  check_node(v);
  return visit_rows(
      [v](const auto& rows) { return std::size_t{rows.degree(v)}; });
}

bool Snapshot::has_edge(NodeId u, NodeId v) const {
  check_node(u);
  check_node(v);
  ensure_csr();
  const std::size_t du = offsets_[u + 1] - offsets_[u];
  const std::size_t dv = offsets_[v + 1] - offsets_[v];
  const NodeId probe = du <= dv ? u : v;
  const NodeId target = du <= dv ? v : u;
  const auto row = neighbors(probe);
  return std::find(row.begin(), row.end(), target) != row.end();
}

std::vector<std::pair<NodeId, NodeId>> Snapshot::edges() const {
  ensure_csr();
  std::vector<std::pair<NodeId, NodeId>> result;
  result.reserve(num_edges());
  for (NodeId u = 0; u < num_nodes_; ++u) {
    for (NodeId v : neighbors(u)) {
      if (u < v) result.emplace_back(u, v);
    }
  }
  return result;
}

}  // namespace megflood
