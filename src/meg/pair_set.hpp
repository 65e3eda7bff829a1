#pragma once

// The sorted pair set of the three edge-MEG engines: packed pair keys
// (meg/pair_index.hpp) in ascending order, with one state byte per key
// when the engine keeps hidden states (the sparse GeneralEdgeMEG's
// minority map; every other engine keeps its on-set in one).  The
// engines keep only their draws: every write of a set goes through one
// PairSetWriter, which writes the next set in one ascending pass, driven
// by PairSet::merge (engines that list their flips) or by walk_complement
// (sparse engines that draw over the implicit complement of their set),
// and lends it to the engine's snapshot as its key array.

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/snapshot.hpp"
#include "meg/on_set.hpp"
#include "meg/pair_index.hpp"
#include "util/rng.hpp"

namespace megflood {

// Above every packed pair key (i < j, so the two words are never both all
// ones), so it closes an ascending key list: a scan that compares against
// it never needs a bounds check.
constexpr std::uint64_t kNoKey = std::numeric_limits<std::uint64_t>::max();

// Makes room for `size` elements in a step buffer.  A set's size drifts a
// little from step to step, so a buffer that has to grow gets 1/16 of
// headroom, and its stale contents are dropped rather than copied into
// the new pages.
template <typename T>
void reserve_headroom(std::vector<T>& buffer, std::uint64_t size) {
  if (buffer.capacity() >= size) return;
  buffer.clear();
  buffer.reserve(size + size / 16);
}

// Ascending packed keys with a parallel state byte per key (states stays
// empty in a set without states), this step's flips (died, born), and the
// buffers a PairSetWriter fills for the next step: the next keys and
// states.
struct PairSet {
  std::vector<std::uint64_t> keys;
  std::vector<std::uint8_t> states;
  std::vector<std::uint64_t> died;
  std::vector<std::uint64_t> born;
  std::vector<std::uint64_t> next_keys;
  std::vector<std::uint8_t> next_states;

  // set := (set ∪ born) \ died over an n-node population, lends the new
  // set to `snapshot`, and empties both lists.  Both lists are ascending
  // and every key in `died` is in the set, so a key of `born` already in
  // the set stays once unless it dies.  A set built in place is lent by a
  // merge with no flips.
  void merge(std::uint64_t n, Snapshot& snapshot);
};

// Writes the next set of a PairSet and counts its snapshot edges.
// Entries must arrive in ascending key order, at most as many as the
// constructor was told.  Both emits are branch-free: they always store
// into the next slot (one of slack) and count it only when the entry
// stays, so the writer's counts and constants live in registers rather
// than in the engine, whose members any byte store may alias.  finish()
// swaps the result in and lends it to the snapshot.
class PairSetWriter {
 public:
  // A set without states: emit(key, keep) keeps the key, which is then
  // also a snapshot edge, or drops it.
  PairSetWriter(PairSet& set, std::uint64_t n, std::uint64_t max_entries)
      : set_(set),
        n_(static_cast<NodeId>(n)),
        keys_(slots(set.next_keys, max_entries)) {}

  // A set with states: emit_state(key, state) drops an entry in the
  // `majority` state, and an entry in a state s with on[s] is also a
  // snapshot edge.  on[majority] must be 0.
  PairSetWriter(PairSet& set, std::uint64_t n, std::uint64_t max_entries,
                std::uint8_t majority, const StateMask& on)
      : set_(set),
        n_(static_cast<NodeId>(n)),
        majority_(majority),
        on_(&on),
        is_on_(on),
        keys_(slots(set.next_keys, max_entries)),
        states_(slots(set.next_states, max_entries)) {}

  void emit(std::uint64_t key, bool keep) {
    keys_[entries_] = key;
    entries_ += keep;
    count_edge(key, keep);
  }

  void emit_state(std::uint64_t key, std::uint8_t state) {
    keys_[entries_] = key;
    states_[entries_] = state;
    entries_ += state != majority_;
    count_edge(key, is_on_[state] != 0);
  }

  void finish(Snapshot& snapshot) {
    if (out_of_range_) {
      throw std::out_of_range("edge-MEG: edge endpoint out of range");
    }
    commit(set_, entries_, on_, edge_count_, snapshot);
  }

 private:
  // The buffer work at both ends, kept out of line so that the writer
  // itself inlines whole and its counts stay in registers: `size` slots
  // plus the one of slack; then the trim to what was written, and the
  // swap.
  template <typename T>
  [[gnu::noinline]] static T* slots(std::vector<T>& buffer,
                                    std::uint64_t size) {
    reserve_headroom(buffer, size + 1);
    buffer.resize(size + 1);
    return buffer.data();
  }
  [[gnu::noinline]] static void commit(PairSet& set, std::size_t entries,
                                       const StateMask* on, std::size_t edges,
                                       Snapshot& snapshot) {
    set.next_keys.resize(entries);
    std::swap(set.keys, set.next_keys);
    if (on == nullptr) {
      snapshot.borrow(set.keys);
      return;
    }
    set.next_states.resize(entries);
    std::swap(set.states, set.next_states);
    snapshot.borrow(set.keys, set.states, *on, edges);
  }

  void count_edge(std::uint64_t key, bool on) {
    // The range check Snapshot::add_edge would make; i < j, so j < n
    // covers both endpoints.
    out_of_range_ |= on & (pair_key_j(key) >= n_);
    edge_count_ += on;
  }

  PairSet& set_;
  NodeId n_;
  std::uint8_t majority_ = 0;
  const StateMask* on_ = nullptr;  // the states mode's mask
  StateMask is_on_;  // its copy the emits read, in the writer's frame
  std::uint64_t* keys_;
  std::uint8_t* states_ = nullptr;
  std::size_t entries_ = 0;
  std::size_t edge_count_ = 0;
  bool out_of_range_ = false;
};

inline void PairSet::merge(std::uint64_t n, Snapshot& snapshot) {
  PairSetWriter out(*this, n, keys.size() - died.size() + born.size());
  // All three lists ascending and closed by kNoKey, so the loop takes the
  // smaller head each pass (a key in both the set and born once), drops it
  // if it heads died too, and stops when every head is kNoKey.
  keys.push_back(kNoKey);
  died.push_back(kNoKey);
  born.push_back(kNoKey);
  const std::uint64_t* a = keys.data();
  const std::uint64_t* b = born.data();
  const std::uint64_t* dead = died.data();
  for (;;) {
    const std::uint64_t x = *a;
    const std::uint64_t y = *b;
    const std::uint64_t key = x < y ? x : y;
    if (key == kNoKey) break;
    a += x <= y;
    b += y <= x;
    const bool dies = key == *dead;
    dead += dies;
    out.emit(key, !dies);
  }
  died.clear();
  born.clear();
  out.finish(snapshot);
}

// Converts the ascending pair indices in `marks` over the n-node pair
// enumeration to packed keys in place.  Fewer marks than rows mostly sit
// rows apart (the serve regime's births), where a cursor's same-row and
// next-row tests would mispredict, so each mark takes the branch-free
// closed form of its row; denser marks walk the rows with a PairRowCursor.
inline void indices_to_keys(std::uint64_t n,
                            std::vector<std::uint64_t>& marks) {
  if (marks.size() < n - 1) {
    for (std::uint64_t& mark : marks) mark = pair_key_from_index(n, mark);
    return;
  }
  PairRowCursor cursor(n);
  for (std::uint64_t& mark : marks) mark = cursor.key(mark);
}

// Selects an iid Bernoulli(p) subset of the pairs outside a set of
// `set_size` keys within the n-node pair population, as ascending ranks
// into that complement: a Binomial(count, p) size plus a uniform distinct
// placement (sample_distinct_positions, meg/on_set.hpp: a sort of the raw
// draws, topped up until they are distinct), which is exactly the law of
// geometric-skipping a materialized complement, without its O(n^2) keys.
inline void draw_complement_ranks(Rng& rng, std::uint64_t n,
                                  std::uint64_t set_size, double p,
                                  std::vector<std::uint64_t>& ranks) {
  const std::uint64_t count = pair_count(n) - set_size;
  if (count == 0 || p <= 0.0) {
    ranks.clear();
    return;
  }
  // No clear: each branch of sample_distinct_positions writes or clears
  // `ranks`, and resizing over the old ranks zero-fills only growth.
  const std::uint64_t k = rng.binomial(count, p);
  sample_distinct_positions(rng, k, count, ranks);
}

// Walks the set's `keys` and the complement `ranks` (both ascending) in
// one ascending pass: entry(pos) for each key, and rank(r, key) with the
// key of the ranks[r]-th pair outside the set.  Key pos has
// pair_index(keys[pos]) - pos complement pairs below it, a non-decreasing
// count, so rank r goes before key pos iff that count exceeds ranks[r],
// and sits at pair index ranks[r] + pos.
template <typename Entry, typename Rank>
void walk_complement(std::uint64_t n, const std::vector<std::uint64_t>& keys,
                     const std::vector<std::uint64_t>& ranks, Entry&& entry,
                     Rank&& rank) {
  // Plain pointers: the callbacks' byte stores could alias the vectors.
  const std::uint64_t* key = keys.data();
  const std::size_t size = keys.size();
  const std::uint64_t* rank_of = ranks.data();
  const std::size_t count = ranks.size();
  PairRowCursor cursor(n);
  std::size_t pos = 0;
  for (std::size_t r = 0; r < count; ++r) {
    for (; pos < size && pair_index_from_key(n, key[pos]) - pos <= rank_of[r];
         ++pos) {
      entry(pos);
    }
    rank(r, cursor.key(rank_of[r] + pos));
  }
  for (; pos < size; ++pos) entry(pos);
}

}  // namespace megflood
