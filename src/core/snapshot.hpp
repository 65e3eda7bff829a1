#pragma once

// A snapshot is the edge set E_t of the dynamic graph at one time step.
//
// Storage is a flat edge buffer plus a CSR (compressed sparse row)
// adjacency view — one `offsets` array and one flat `neighbors` array —
// instead of per-node vectors.  Producers append edges in O(1); the CSR
// view is built lazily in two passes on first neighbor query (unless a
// producer hands over its own, swap_edges_and_csr) and all buffers reuse
// their capacity across clear()/add_edge cycles, so a model stepping in a
// loop performs no per-step allocation after warmup.
//
// The CSR fill pass walks the edge buffer in insertion order, so each
// node's neighbor list is exactly the sequence of push_backs the old
// per-node-vector layout produced — downstream consumers that sample from
// neighbor lists (e.g. k-push) see bit-for-bit identical streams.

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

namespace megflood {

using NodeId = std::uint32_t;

class Snapshot {
 public:
  Snapshot() = default;
  explicit Snapshot(std::size_t num_nodes) : num_nodes_(num_nodes) {}

  std::size_t num_nodes() const noexcept { return num_nodes_; }
  std::size_t num_edges() const noexcept { return edges_.size(); }

  // Drops all edges, keeps capacity.  Inline: clear()/add_edge() are the
  // producer side of every model's per-step snapshot rebuild.
  void clear() noexcept {
    edges_.clear();
    csr_valid_ = false;
  }

  // Resize to `num_nodes` and drop all edges.
  void reset(std::size_t num_nodes);

  // Adds undirected {u, v}; caller guarantees no duplicates within a step
  // (models generate each pair at most once per snapshot).
  void add_edge(NodeId u, NodeId v) {
    check_node(u);
    check_node(v);
    edges_.emplace_back(u, v);
    csr_valid_ = false;
  }

  // Replaces the edge set wholesale by swapping buffers: `edges` receives
  // the previous edge list (its capacity gets reused by the producer next
  // step).  Caller guarantees the add_edge contract for every entry
  // (endpoints < num_nodes(), no duplicates); producers that already own
  // a validated pair list (NeighborIndex::collect_pairs) skip the
  // per-edge bounds checks this way.
  void swap_edges(std::vector<std::pair<NodeId, NodeId>>& edges) noexcept {
    edges_.swap(edges);
    csr_valid_ = false;
  }

  // swap_edges() plus a producer-built CSR, marked valid (the buffers
  // swap too).  Caller guarantees it is what the lazy build makes from
  // `edges`; clear()/add_edge()/reset() fall back to the lazy build.
  void swap_edges_and_csr(std::vector<std::pair<NodeId, NodeId>>& edges,
                          std::vector<std::uint32_t>& offsets,
                          std::vector<NodeId>& neighbors) noexcept {
    edges_.swap(edges);
    offsets_.swap(offsets);
    neighbors_.swap(neighbors);
    csr_valid_ = true;
  }

  // Neighbor list of v in insertion order.  The span is invalidated by the
  // next clear()/reset()/add_edge().
  std::span<const NodeId> neighbors(NodeId v) const;

  std::size_t degree(NodeId v) const;

  bool has_edge(NodeId u, NodeId v) const;

  // Canonical (u < v) edge list, ordered by u then by adjacency position.
  std::vector<std::pair<NodeId, NodeId>> edges() const;

  // The raw edge buffer in insertion order (endpoints as added, not
  // canonicalized).  Lets edge-centric consumers (the word-parallel
  // all-sources flood) iterate E_t without materializing the CSR view.
  const std::vector<std::pair<NodeId, NodeId>>& edge_buffer() const noexcept {
    return edges_;
  }

  // Raw CSR view for hot loops that scan many nodes per round: node v's
  // neighbors are neighbors[offsets[v] .. offsets[v + 1]).  `offsets` has
  // num_nodes() + 1 entries; pointers are invalidated by the next
  // mutation.
  struct CsrView {
    const std::uint32_t* offsets;
    const NodeId* neighbors;
  };
  CsrView csr() const {
    ensure_csr();
    return {offsets_.data(), neighbors_.data()};
  }

 private:
  void ensure_csr() const;
  void check_node(NodeId v) const {
    if (v >= num_nodes_) {
      throw std::out_of_range("Snapshot: node id out of range");
    }
  }

  std::size_t num_nodes_ = 0;
  std::vector<std::pair<NodeId, NodeId>> edges_;

  // Lazily built CSR view; mutable because building it on first query is
  // not an observable state change (single-threaded use assumed).
  mutable std::vector<std::uint32_t> offsets_;  // num_nodes_ + 1 entries
  mutable std::vector<std::uint32_t> cursor_;   // fill scratch
  mutable std::vector<NodeId> neighbors_;       // 2 * num_edges entries
  mutable bool csr_valid_ = false;
};

}  // namespace megflood
