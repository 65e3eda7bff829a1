#pragma once

// A snapshot is the edge set E_t of the dynamic graph at one time step.
//
// Storage is one array of packed pair keys (u << 32) | v
// (meg/pair_index.hpp), each edge in the orientation it was added in,
// plus a CSR (compressed sparse row) adjacency view — one `offsets` array
// and one flat `neighbors` array — instead of per-node vectors.  The key
// array is either the snapshot's own (add_edge and the bulk producers
// that fill key_buffer()) or borrowed: an edge-MEG engine lends its own
// sorted key set, which stays valid until the engine's next step() or
// reset(), so no engine keeps a second copy of its edges.  A borrowed set
// may carry one state byte per key; then a key is an edge iff its state
// is on in the engine's StateMask, and num_edges() is the count the
// engine's writer made.  The CSR view is built lazily in two passes on
// first neighbor query (unless a producer hands over its own, adopt_csr)
// and all buffers reuse their capacity across clear()/add_edge cycles, so
// a model stepping in a loop performs no per-step allocation after
// warmup.  Copying a snapshot makes an owning copy of its edges.
//
// The CSR fill pass walks the keys in array order, so each node's
// neighbor list is exactly the sequence of push_backs the old
// per-node-vector layout produced — downstream consumers that sample from
// neighbor lists (e.g. k-push) see bit-for-bit identical streams.

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "meg/pair_index.hpp"

namespace megflood {

using NodeId = std::uint32_t;

// Which key states of a state-carrying snapshot are edges: on[s] is 1 if
// a key in state s is an edge and 0 if it is not.
using StateMask = std::array<std::uint8_t, 256>;

class Snapshot {
 public:
  Snapshot() = default;
  explicit Snapshot(std::size_t num_nodes) : num_nodes_(num_nodes) {}
  Snapshot(const Snapshot& other);
  Snapshot& operator=(const Snapshot& other);
  Snapshot(Snapshot&&) noexcept = default;
  Snapshot& operator=(Snapshot&&) noexcept = default;

  std::size_t num_nodes() const noexcept { return num_nodes_; }
  std::size_t num_edges() const noexcept {
    return borrowed_ ? borrowed_edges_ : owned_.size();
  }

  // Drops all edges, keeps capacity.  Inline: clear()/add_edge() are the
  // producer side of every model's per-step snapshot rebuild.
  void clear() noexcept {
    owned_.clear();
    borrowed_ = false;
    csr_valid_ = false;
  }

  // Resize to `num_nodes` and drop all edges.
  void reset(std::size_t num_nodes);

  // Adds undirected {u, v}; caller guarantees no duplicates within a step
  // (models generate each pair at most once per snapshot).
  void add_edge(NodeId u, NodeId v) {
    check_node(u);
    check_node(v);
    if (borrowed_) own();
    owned_.push_back(pack_pair(u, v));
    csr_valid_ = false;
  }

  // The snapshot's own key array, for a bulk producer to overwrite with
  // the whole edge set (it holds the previous owned keys, so their
  // capacity gets reused).  Caller guarantees the add_edge contract for
  // every key it leaves there (endpoints < num_nodes(), no duplicates);
  // producers that validate their pairs themselves (the mobility models'
  // ColocationBuilder) skip the per-edge bounds checks this way.
  std::vector<std::uint64_t>& key_buffer() noexcept {
    borrowed_ = false;
    csr_valid_ = false;
    return owned_;
  }

  // Hands over a producer-built CSR of the current keys, marked valid
  // (the buffers swap).  Caller guarantees it is what the lazy build
  // makes from them; clear()/add_edge()/reset()/key_buffer() fall back
  // to the lazy build.
  void adopt_csr(std::vector<std::uint32_t>& offsets,
                 std::vector<NodeId>& neighbors) noexcept {
    offsets_.swap(offsets);
    neighbors_.swap(neighbors);
    csr_valid_ = true;
  }

  // Borrows an engine's key set, every key an edge.  The caller keeps
  // `keys` alive and unchanged until it replaces or drops the borrow.
  void borrow(std::span<const std::uint64_t> keys) noexcept {
    borrow(keys, nullptr, nullptr, keys.size());
  }

  // Borrows an engine's key set with one state per key (states has one
  // entry per key): key k is an edge iff on[states[k]], and `num_edges`
  // of them are.  The snapshot keeps its own copy of `on`.
  void borrow(std::span<const std::uint64_t> keys,
              std::span<const std::uint8_t> states, const StateMask& on,
              std::size_t num_edges) noexcept {
    borrow(keys, states.data(), &on, num_edges);
  }

  // The key array in insertion order (endpoints as added, not
  // canonicalized); on a state-carrying snapshot it also holds keys that
  // are not edges (see key_states()).
  std::span<const std::uint64_t> keys() const noexcept {
    if (borrowed_) return {borrowed_keys_, borrowed_size_};
    return owned_;
  }

  // One state per key, or null when every key is an edge (for_each_key
  // applies the states).
  const std::uint8_t* key_states() const noexcept {
    return borrowed_ ? states_ : nullptr;
  }

  // Calls fn(u, v, on) for every key in array order, with on = 1 for an
  // edge and 0 for a key that is not one, so that an edge-centric reader
  // (the word-parallel floods, the lazy CSR build) can apply it without a
  // branch.  On a plain snapshot `on` is the constant 1.
  template <typename Fn>
  void for_each_key(Fn&& fn) const {
    const std::span<const std::uint64_t> all = keys();
    const std::uint64_t* const key = all.data();
    const std::size_t size = all.size();
    const std::uint8_t* const states = key_states();
    if (states == nullptr) {
      for (std::size_t k = 0; k < size; ++k) {
        fn(pair_key_i(key[k]), pair_key_j(key[k]), std::uint32_t{1});
      }
      return;
    }
    const std::uint8_t* const on = on_.data();
    for (std::size_t k = 0; k < size; ++k) {
      fn(pair_key_i(key[k]), pair_key_j(key[k]), std::uint32_t{on[states[k]]});
    }
  }

  // Calls fn(u, v) for every edge in key order.
  template <typename Fn>
  void for_each_edge(Fn&& fn) const {
    for_each_key([&fn](NodeId u, NodeId v, std::uint32_t on) {
      if (on != 0) fn(u, v);
    });
  }

  // Neighbor list of v in insertion order.  The span is invalidated by the
  // next clear()/reset()/add_edge().
  std::span<const NodeId> neighbors(NodeId v) const;

  std::size_t degree(NodeId v) const;

  bool has_edge(NodeId u, NodeId v) const;

  // Canonical (u < v) edge list, ordered by u then by adjacency position.
  std::vector<std::pair<NodeId, NodeId>> edges() const;

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
  void borrow(std::span<const std::uint64_t> keys, const std::uint8_t* states,
              const StateMask* on, std::size_t num_edges) noexcept {
    borrowed_ = true;
    borrowed_keys_ = keys.data();
    borrowed_size_ = keys.size();
    borrowed_edges_ = num_edges;
    states_ = states;
    if (on != nullptr) on_ = *on;
    csr_valid_ = false;
  }
  // Copies the borrowed edges into the snapshot's own array.
  void own();
  void ensure_csr() const;
  void check_node(NodeId v) const {
    if (v >= num_nodes_) {
      throw std::out_of_range("Snapshot: node id out of range");
    }
  }

  std::size_t num_nodes_ = 0;
  std::vector<std::uint64_t> owned_;
  // The borrowed set, read instead of owned_ while borrowed_.
  bool borrowed_ = false;
  const std::uint64_t* borrowed_keys_ = nullptr;
  std::size_t borrowed_size_ = 0;
  std::size_t borrowed_edges_ = 0;
  const std::uint8_t* states_ = nullptr;  // null: every key is an edge
  StateMask on_{};

  // Lazily built CSR view; mutable because building it on first query is
  // not an observable state change (single-threaded use assumed).
  mutable std::vector<std::uint32_t> offsets_;  // num_nodes_ + 1 entries
  mutable std::vector<std::uint32_t> cursor_;   // fill scratch
  mutable std::vector<NodeId> neighbors_;       // 2 * num_edges entries
  mutable bool csr_valid_ = false;
};

}  // namespace megflood
