#pragma once

// The sorted pair set of the three edge-MEG engines: packed pair keys
// (meg/pair_index.hpp) in ascending order, with one state byte per key
// when the engine keeps hidden states (the sparse GeneralEdgeMEG's
// minority map; every other engine keeps its on-set in one).  The
// engines keep only their draws: every write of a set goes through one
// PairSetWriter, driven by PairSet::merge (engines that list their flips)
// or by walk_complement (sparse engines that draw over the implicit
// complement of their set), and the set is lent to the engine's snapshot
// as its key array.
//
// A set has one key array and one state array, and every write is an
// in-place forward walk.  Before the walk the writer moves the set up by
// the number of entries that can enter it (the born keys of a merge, the
// ranks of a complement walk), growing the buffer only when that room is
// short; then it writes the next set from the front.  Its write index is
// at most the entries read plus the entries inserted, which is at most
// the read position plus that shift, so it never passes the read cursor.
// The keys that enter are checked before anything moves (every born
// key's j < n, the last rank below the complement count), so a set that
// throws is left as it was.

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
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

// An allocator whose value-less construct leaves the slot unwritten, so
// that resizing a set's arrays to make room for a walk writes nothing the
// walk then overwrites.
template <typename T>
struct UninitializedAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = UninitializedAllocator<U>;
  };
  UninitializedAllocator() = default;
  template <typename U>
  UninitializedAllocator(const UninitializedAllocator<U>&) noexcept {}
  template <typename U>
  void construct(U* slot) noexcept {
    ::new (static_cast<void*>(slot)) U;
  }
  template <typename U, typename... Args>
  void construct(U* slot, Args&&... args) {
    ::new (static_cast<void*>(slot)) U(std::forward<Args>(args)...);
  }
};

using PairKeys = std::vector<std::uint64_t, UninitializedAllocator<std::uint64_t>>;
using PairStates = std::vector<std::uint8_t, UninitializedAllocator<std::uint8_t>>;

// Makes room for `size` elements in a step buffer.  A set's size drifts a
// little from step to step, so a buffer that has to grow gets 1/16 of
// headroom, and its stale contents are dropped rather than copied into
// the new pages.
template <typename T, typename Alloc>
void reserve_headroom(std::vector<T, Alloc>& buffer, std::uint64_t size) {
  if (buffer.capacity() >= size) return;
  buffer.clear();
  buffer.reserve(size + size / 16);
}

// Ascending packed keys with a parallel state byte per key (states stays
// empty in a set without states), and this step's flips (died, born).
struct PairSet {
  PairKeys keys;
  PairStates states;
  PairKeys died;
  PairKeys born;

  // set := (set ∪ born) \ died over an n-node population, lends the new
  // set to `snapshot`, and empties both lists.  Both lists are ascending
  // and every key in `died` is in the set, so a key of `born` already in
  // the set stays once unless it dies.  A set built in place is lent by a
  // merge with no flips.  Throws std::out_of_range, with the set, the
  // lists and the snapshot unchanged, if a born key's j is not below n.
  void merge(std::uint64_t n, Snapshot& snapshot);
};

// Writes the next set of a PairSet in place and counts its snapshot
// edges.  The constructor moves the set up by the number of entries that
// can enter; the walk then reads the moved set through keys() and
// states() and emits every entry in ascending key order, each set entry
// once.  Both emits are branch-free: they always store into the next
// slot, which is never past the entry being read, and count it only when
// the entry stays, so the writer's counts and constants live in registers
// rather than in the engine, whose members any byte store may alias.
// finish() trims the set to what was written and lends it to the
// snapshot.  A callback that throws mid-walk leaves the set unspecified.
class PairSetWriter {
 public:
  // A walk of a set without states and the ascending complement `ranks`
  // (walk_complement): emit(key, keep) keeps the key, which is then also
  // a snapshot edge, or drops it.  Throws std::out_of_range, with the set
  // unchanged, unless the last rank is below the set's complement count
  // in the n-node pair population.
  PairSetWriter(PairSet& set, std::uint64_t n,
                const std::vector<std::uint64_t>& ranks)
      : PairSetWriter(set, checked_room(set, n, ranks)) {}

  // The same walk over a set with states: emit_state(key, state) drops an
  // entry in the `majority` state, and an entry in a state s with on[s] is
  // also a snapshot edge.  on[majority] must be 0.
  PairSetWriter(PairSet& set, std::uint64_t n,
                const std::vector<std::uint64_t>& ranks, std::uint8_t majority,
                const StateMask& on)
      : set_(set),
        majority_(majority),
        on_(&on),
        is_on_(on),
        shift_(checked_room(set, n, ranks)),
        keys_(make_room(set.keys, shift_)),
        states_(make_room(set.states, shift_)) {}

  // The moved set, which the walk reads: entry pos is keys()[pos].
  const std::uint64_t* keys() const noexcept { return keys_ + shift_; }
  const std::uint8_t* states() const noexcept { return states_ + shift_; }

  void emit(std::uint64_t key, bool keep) {
    keys_[entries_] = key;
    entries_ += keep;
  }

  void emit_state(std::uint64_t key, std::uint8_t state) {
    keys_[entries_] = key;
    states_[entries_] = state;
    entries_ += state != majority_;
    edge_count_ += is_on_[state];
  }

  void finish(Snapshot& snapshot) {
    commit(set_, entries_, on_, edge_count_, snapshot);
  }

 private:
  friend struct PairSet;

  // A walk that `entering` entries can enter, of a set without states.
  PairSetWriter(PairSet& set, std::size_t entering)
      : set_(set), shift_(entering), keys_(make_room(set.keys, shift_)) {}

  // The room a complement walk needs, one slot per rank, once the ranks
  // are checked.
  static std::size_t checked_room(const PairSet& set, std::uint64_t n,
                                  const std::vector<std::uint64_t>& ranks) {
    if (!ranks.empty() && ranks.back() >= pair_count(n) - set.keys.size()) {
      throw std::out_of_range("edge-MEG: edge endpoint out of range");
    }
    return ranks.size();
  }

  // The buffer work at both ends, kept out of line so that the writer
  // itself inlines whole and its counts stay in registers: the set moved
  // up by `shift` slots, with one slot more of capacity for a closing
  // kNoKey (a buffer that is short grows by 1/16, and the copy into the
  // new buffer is the move); then the trim to what was written.
  template <typename T>
  [[gnu::noinline]] static T* make_room(
      std::vector<T, UninitializedAllocator<T>>& buffer, std::size_t shift) {
    const std::size_t size = buffer.size();
    const std::size_t room = size + shift;
    if (buffer.capacity() <= room) {
      std::vector<T, UninitializedAllocator<T>> grown;
      grown.reserve(room + 1 + room / 16);
      grown.resize(room);
      if (size != 0) {
        std::memcpy(grown.data() + shift, buffer.data(), size * sizeof(T));
      }
      buffer.swap(grown);
    } else {
      buffer.resize(room);
      std::memmove(buffer.data() + shift, buffer.data(), size * sizeof(T));
    }
    return buffer.data();
  }
  [[gnu::noinline]] static void commit(PairSet& set, std::size_t entries,
                                       const StateMask* on, std::size_t edges,
                                       Snapshot& snapshot) {
    set.keys.resize(entries);
    if (on == nullptr) {
      snapshot.borrow(set.keys);
      return;
    }
    set.states.resize(entries);
    snapshot.borrow(set.keys, set.states, *on, edges);
  }

  PairSet& set_;
  std::uint8_t majority_ = 0;
  const StateMask* on_ = nullptr;  // the states mode's mask
  StateMask is_on_{};  // its copy the emits read, in the writer's frame
  std::size_t shift_;
  std::uint64_t* keys_;
  std::uint8_t* states_ = nullptr;
  std::size_t entries_ = 0;
  std::size_t edge_count_ = 0;
};

inline void PairSet::merge(std::uint64_t n, Snapshot& snapshot) {
  // The check the snapshot's add_edge would make, over the keys that
  // enter (the set's own were checked when they entered); i < j, so
  // j < n covers both endpoints.  One OR per key: the largest key's j
  // bounds no other key's j.
  bool out_of_range = false;
  for (const std::uint64_t key : born) out_of_range |= pair_key_j(key) >= n;
  if (out_of_range) {
    throw std::out_of_range("edge-MEG: edge endpoint out of range");
  }
  PairSetWriter out(*this, born.size());
  // All three lists ascending and closed by kNoKey, so the loop takes the
  // smaller head each pass (a key in both the set and born once), drops it
  // if it heads died too, and stops when every head is kNoKey.  The
  // sentinel goes into the slot of capacity the writer left past the set.
  keys.push_back(kNoKey);
  died.push_back(kNoKey);
  born.push_back(kNoKey);
  const std::uint64_t* a = out.keys();
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
inline void indices_to_keys(std::uint64_t n, std::span<std::uint64_t> marks) {
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
  // `ranks`, and resizing over the old ranks zero-fills only growth.  A
  // buffer that grows takes the headroom rule rather than doubling over
  // a copy of stale ranks.
  const std::uint64_t k = rng.binomial(count, p);
  reserve_headroom(ranks, k);
  sample_distinct_positions(rng, k, count, ranks);
}

// Walks the set's `keys` and the complement `ranks` (both ascending) in
// one ascending pass: entry(pos) for each key, and rank(r, key) with the
// key of the ranks[r]-th pair outside the set.  Key pos has
// pair_index(keys[pos]) - pos complement pairs below it, a non-decreasing
// count, so rank r goes before key pos iff that count exceeds ranks[r],
// and sits at pair index ranks[r] + pos.
template <typename Entry, typename Rank>
void walk_complement(std::uint64_t n, std::span<const std::uint64_t> keys,
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
