#pragma once

// A snapshot is the edge set E_t of the dynamic graph at one time step.
//
// Storage takes one of three forms.
// - Owned keys: one array of packed pair keys (u << 32) | v
//   (meg/pair_index.hpp), each edge in the orientation it was added in,
//   filled by add_edge or by a bulk producer through key_buffer().
// - Borrowed keys: an edge-MEG engine lends its own sorted key set,
//   which stays valid until the engine's next step() or reset(), so no
//   engine keeps a second copy of its edges.  A borrowed set may carry
//   one state byte per key; then a key is an edge iff its state is on in
//   the engine's StateMask, and num_edges() is the count the engine's
//   writer made.
// - Groups (adopt_groups): the co-location form of a mobility model
//   whose edges are exactly the cliques of the agents sharing a point.
//   It holds the agents of each occupied point, ascending, and each
//   agent's group and slot; num_edges() is the sum of k (k - 1) / 2
//   over the groups.  Order contract: the form reads as the keys the
//   co-location builder writes, group by group, at each group every
//   member a paired with each later member b, (a, b) ascending.
//   for_each_key and for_each_edge walk that order without storing
//   anything; keys() and the CSR are built from it on first query.
//
// A sampler that picks one neighbour per node by rank reads the rows
// through visit_rows(): a CsrView, or on the group form a GroupView,
// whose r-th neighbour of u is the r-th other member of u's group, so a
// round costs O(nodes) instead of O(edges).
//
// The CSR (compressed sparse row) adjacency view — one `offsets` array
// and one flat `neighbors` array — is built lazily in two passes on
// first neighbor query, and all buffers reuse their capacity across
// clear()/add_edge cycles and group hand-overs, so a model stepping in a
// loop performs no per-step allocation after warmup.  Copying a
// snapshot makes an owning copy of its edges, as keys.
//
// The CSR fill pass walks the keys in array order, so each node's
// neighbor list is exactly the sequence of push_backs the old
// per-node-vector layout produced — downstream consumers that sample from
// neighbor lists (e.g. k-push) see bit-for-bit identical streams.  Only
// keys() and the CSR readers build anything, under the single-threaded
// lazy contract; for_each_key never writes, so several threads may walk
// one snapshot at once.

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
  // The group form's buffers: group g's members are
  // members[end[g] .. end[g + 1]), ascending, for g < count, and node i
  // is members[slot[i]], in group group[i].  `end` may have entries past
  // end[count] and `members` slots past the last group (a builder's
  // write slack); `edges` is the sum of k (k - 1) / 2 over the groups.
  struct Groups {
    std::vector<std::uint32_t> end;
    std::vector<NodeId> members;
    std::vector<std::uint32_t> group, slot;  // one entry per node
    std::uint32_t count = 0;
    std::size_t edges = 0;
  };

  Snapshot() = default;
  explicit Snapshot(std::size_t num_nodes) : num_nodes_(num_nodes) {}
  Snapshot(const Snapshot& other);
  Snapshot& operator=(const Snapshot& other);
  Snapshot(Snapshot&&) noexcept = default;
  Snapshot& operator=(Snapshot&&) noexcept = default;

  std::size_t num_nodes() const noexcept { return num_nodes_; }
  std::size_t num_edges() const noexcept {
    switch (form_) {
      case Form::kBorrowed:
        return borrowed_edges_;
      case Form::kGroups:
        return groups_.edges;
      case Form::kOwned:
        break;
    }
    return owned_.size();
  }

  // Drops all edges, keeps capacity.  Inline: clear()/add_edge() are the
  // producer side of every model's per-step snapshot rebuild.
  void clear() noexcept {
    owned_.clear();
    form_ = Form::kOwned;
    csr_valid_ = false;
  }

  // Resize to `num_nodes` and drop all edges.
  void reset(std::size_t num_nodes);

  // Adds undirected {u, v}; caller guarantees no duplicates within a step
  // (models generate each pair at most once per snapshot).
  void add_edge(NodeId u, NodeId v) {
    check_node(u);
    check_node(v);
    if (form_ != Form::kOwned) own();
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
    form_ = Form::kOwned;
    csr_valid_ = false;
    return owned_;
  }

  // Switches to the group form over `groups`, whose buffers swap with the
  // snapshot's (the producer gets the previous ones back as scratch).
  // Caller guarantees the Groups contract over num_nodes() nodes.
  void adopt_groups(Groups& groups) noexcept {
    std::swap(groups_, groups);
    form_ = Form::kGroups;
    keys_valid_ = false;
    csr_valid_ = false;
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
  // are not edges (see key_states()).  The group form builds it on first
  // call.
  std::span<const std::uint64_t> keys() const {
    if (form_ == Form::kBorrowed) return {borrowed_keys_, borrowed_size_};
    if (form_ == Form::kGroups && !keys_valid_) write_group_keys();
    return owned_;
  }

  // One state per key, or null when every key is an edge (for_each_key
  // applies the states).
  const std::uint8_t* key_states() const noexcept {
    return form_ == Form::kBorrowed ? states_ : nullptr;
  }

  // The group form's buffers, or null on the key forms.
  const Groups* groups() const noexcept {
    return form_ == Form::kGroups ? &groups_ : nullptr;
  }

  // Calls fn(u, v, on) for every key in array order, with on = 1 for an
  // edge and 0 for a key that is not one, so that an edge-centric reader
  // (the word-parallel floods, the lazy CSR build) can apply it without a
  // branch.  On a plain snapshot `on` is the constant 1; the group form
  // walks its pairs in the same order and writes nothing.
  template <typename Fn>
  void for_each_key(Fn&& fn) const {
    if (form_ == Form::kGroups) {
      const std::uint32_t* const end = groups_.end.data();
      const NodeId* const members = groups_.members.data();
      for (std::uint32_t g = 0; g < groups_.count; ++g) {
        const NodeId* const last = members + end[g + 1];
        for (const NodeId* a = members + end[g]; a < last; ++a) {
          for (const NodeId* b = a + 1; b < last; ++b) {
            fn(*a, *b, std::uint32_t{1});
          }
        }
      }
      return;
    }
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
  // mutation.  degree(u) and neighbor(u, r), the r-th entry of u's row,
  // are the rank reader's interface, shared with GroupView.
  struct CsrView {
    const std::uint32_t* offsets;
    const NodeId* neighbors;

    std::uint32_t degree(NodeId u) const noexcept {
      return offsets[u + 1] - offsets[u];
    }
    NodeId neighbor(NodeId u, std::uint32_t r) const noexcept {
      return neighbors[offsets[u] + r];
    }
  };
  CsrView csr() const {
    ensure_csr();
    return {offsets_.data(), neighbors_.data()};
  }

  // The group form's rows, read in place: u's row is its group with u
  // cut out, so neighbor(u, r) is the entry of the CSR row at r.
  struct GroupView {
    const std::uint32_t* end;
    const NodeId* members;
    const std::uint32_t* group;
    const std::uint32_t* slot;

    std::uint32_t degree(NodeId u) const noexcept {
      return end[group[u] + 1] - end[group[u]] - 1;
    }
    NodeId neighbor(NodeId u, std::uint32_t r) const noexcept {
      const std::uint32_t at = end[group[u]] + r;
      return members[at + (at >= slot[u] ? 1u : 0u)];
    }
  };

  // Calls fn(view) with the GroupView of the group form, else with the
  // CSR view (built on first query), and returns what fn returns; a
  // reader written once against degree()/neighbor() serves both.
  template <typename Fn>
  decltype(auto) visit_rows(Fn&& fn) const {
    if (form_ == Form::kGroups) {
      return fn(GroupView{groups_.end.data(), groups_.members.data(),
                          groups_.group.data(), groups_.slot.data()});
    }
    return fn(csr());
  }

 private:
  enum class Form : std::uint8_t { kOwned, kBorrowed, kGroups };

  void borrow(std::span<const std::uint64_t> keys, const std::uint8_t* states,
              const StateMask* on, std::size_t num_edges) noexcept {
    form_ = Form::kBorrowed;
    borrowed_keys_ = keys.data();
    borrowed_size_ = keys.size();
    borrowed_edges_ = num_edges;
    states_ = states;
    if (on != nullptr) on_ = *on;
    csr_valid_ = false;
  }
  // Leaves the edges in the snapshot's own array (copied from a borrow or
  // written from the groups) and the owned form.
  void own();
  void write_group_keys() const;
  void ensure_csr() const;
  void check_node(NodeId v) const {
    if (v >= num_nodes_) {
      throw std::out_of_range("Snapshot: node id out of range");
    }
  }

  std::size_t num_nodes_ = 0;
  Form form_ = Form::kOwned;
  // The owned keys; on the group form, its keys once keys() wrote them.
  mutable std::vector<std::uint64_t> owned_;
  mutable bool keys_valid_ = false;
  // The borrowed set, read instead of owned_ on the borrowed form.
  const std::uint64_t* borrowed_keys_ = nullptr;
  std::size_t borrowed_size_ = 0;
  std::size_t borrowed_edges_ = 0;
  const std::uint8_t* states_ = nullptr;  // null: every key is an edge
  StateMask on_{};
  Groups groups_;

  // Lazily built CSR view; mutable because building it on first query is
  // not an observable state change (single-threaded use assumed).
  mutable std::vector<std::uint32_t> offsets_;  // num_nodes_ + 1 entries
  mutable std::vector<std::uint32_t> cursor_;   // fill scratch
  mutable std::vector<NodeId> neighbors_;       // 2 * num_edges entries
  mutable bool csr_valid_ = false;
};

}  // namespace megflood
