#pragma once

// Shared incremental maintenance of a sorted on-edge set (packed pair
// keys, see meg/pair_index.hpp) for the geometric-skip edge-MEG engines:
// per step only the flipped edges are known, and the set is updated with
// one merge pass instead of an O(n^2) rebuild.
//
// Also the shared sampling machinery of the *sparse* storage mode:
// uniform distinct subsets emitted in ascending order, and iid selection
// over an implicit complement population without ever materializing it.
// The sparse GeneralEdgeMEG merges its minority map, its majority movers
// and its snapshot in one walk of its own (general_edge_meg.cpp).

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/bitwords.hpp"
#include "meg/pair_index.hpp"
#include "util/rng.hpp"

namespace megflood {

// Applies on := (on \ died) ∪ born in a single linear pass.
// Preconditions: `on` is sorted; every key in `died` is present in `on`;
// no key in `born` is present in `on`.  `died` and `born` may arrive in
// any order (they are sorted in place unless already sorted, which the
// sparse engines' ascending scans deliver); `scratch` is reused capacity.
inline void apply_on_set_delta(std::vector<std::uint64_t>& on,
                               std::vector<std::uint64_t>& died,
                               std::vector<std::uint64_t>& born,
                               std::vector<std::uint64_t>& scratch) {
  if (died.empty() && born.empty()) return;
  if (!std::is_sorted(died.begin(), died.end())) {
    std::sort(died.begin(), died.end());
  }
  if (!std::is_sorted(born.begin(), born.end())) {
    std::sort(born.begin(), born.end());
  }
  scratch.clear();
  scratch.reserve(on.size() - died.size() + born.size());
  auto d = died.begin();
  auto b = born.begin();
  for (const std::uint64_t key : on) {
    if (d != died.end() && *d == key) {
      ++d;
      continue;
    }
    while (b != born.end() && *b < key) scratch.push_back(*b++);
    scratch.push_back(key);
  }
  scratch.insert(scratch.end(), b, born.end());
  std::swap(on, scratch);
}

// The dedup set of sample_distinct_positions' sparse branch: distinct
// positions < bound kept in ascending slot order by ordered linear
// probing over a monotone hash.  The home slot of pos is
// floor(pos * slots / bound) as a fixed-point 128-bit multiply, so home
// slots never decrease with pos.  An insert walks its run to the first
// larger entry and shifts the rest of the run one slot right, so every
// run stays sorted; a run never wraps, it grows the table at its tail
// instead.  Occupied slots, read left to right, are therefore ascending,
// and append_sorted emits the set with one compacting scan.  The occupied
// slots are the ones a plain linear-probing table would fill, so a load
// <= 1/2 keeps runs short.  Every position is < bound <= the all-ones
// Slot, which therefore marks an empty slot and compares above every
// stored position.
template <typename Slot>
class OrderedProbeTable {
 public:
  // Room for `capacity` >= 1 positions at load <= 1/2; needs
  // 2 * capacity < bound so the fixed-point scale fits 64 bits.
  OrderedProbeTable(std::uint64_t capacity, std::uint64_t bound)
      : home_slots_(static_cast<std::size_t>(2 * capacity)),
        scale_(static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(home_slots_) << 64) / bound)) {
    assert(capacity >= 1 && 2 * capacity < bound && bound <= kEmpty);
    // A run past the last home slot is at most as long as the final
    // cluster, O(log slots) at load 1/2; the slack spares that tail a
    // reallocation, and a longer one still just reallocates.
    table_.reserve(home_slots_ + kTailSlack);
    table_.assign(home_slots_, kEmpty);
  }

  std::size_t home(std::uint64_t pos) const noexcept {
    return static_cast<std::size_t>(
        (static_cast<unsigned __int128>(pos) * scale_) >> 64);
  }
  std::size_t home_slots() const noexcept { return home_slots_; }
  // Slots in use including the tail growth; > home_slots() once a run
  // has run past the last home slot.
  std::size_t extent() const noexcept { return table_.size(); }

  // Inserts pos (< bound); false if it is already present.
  bool insert(std::uint64_t pos) {
    const std::size_t end = table_.size();
    std::size_t slot = home(pos);
    while (slot < end && table_[slot] < pos) ++slot;
    if (slot < end && table_[slot] == pos) return false;
    auto carry = static_cast<Slot>(pos);
    for (; slot < end && carry != kEmpty; ++slot) {
      std::swap(carry, table_[slot]);
    }
    if (carry != kEmpty) table_.push_back(carry);
    return true;
  }

  // Hints the cache line of pos's home slot, where insert(pos) starts.
  void prefetch(std::uint64_t pos) const noexcept {
    __builtin_prefetch(table_.data() + home(pos));
  }

  // Appends every stored position to `out`, ascending.
  void append_sorted(std::vector<std::uint64_t>& out) const {
    for (const Slot value : table_) {
      if (value != kEmpty) out.push_back(value);
    }
  }

 private:
  static constexpr Slot kEmpty = ~Slot{0};
  static constexpr std::size_t kTailSlack = 64;
  std::size_t home_slots_;
  std::uint64_t scale_;
  std::vector<Slot> table_;
};

// How many draws ahead draw_distinct_ordered prefetches.
inline constexpr int kDrawLookahead = 16;

// The sparse branch of sample_distinct_positions: k distinct uniform
// draws from [0, bound), rejecting repeats, appended to `out` ascending.
// The table outgrows the caches at paper scale, so a copy of the stream
// runs kDrawLookahead draws ahead and prefetches the home slot each
// future draw will probe.  Every loop pass makes exactly one draw from
// each stream, so the copy stays exactly that far ahead through the
// rejections; `rng` itself draws exactly as it would without the copy.
template <typename Slot>
inline void draw_distinct_ordered(Rng& rng, std::uint64_t k,
                                  std::uint64_t bound,
                                  std::vector<std::uint64_t>& out) {
  OrderedProbeTable<Slot> table(k, bound);
  Rng ahead = rng;
  for (int i = 0; i < kDrawLookahead; ++i) {
    table.prefetch(ahead.uniform_int(bound));
  }
  for (std::uint64_t drawn = 0; drawn < k;) {
    table.prefetch(ahead.uniform_int(bound));
    if (table.insert(rng.uniform_int(bound))) ++drawn;
  }
  table.append_sorted(out);
}

// Draws a uniform random k-subset of [0, bound) into `out`, sorted
// ascending, by rejection against the already-drawn set.  The rejection
// stream depends only on set *membership*, so the dedup structure is a
// pure space/time choice, and both of them emit the subset in ascending
// order with one scan instead of a sort: a flat bound-bit bitmap when the
// subset is a meaningful fraction of the range (the dense initializers),
// an OrderedProbeTable sized to k when it is vanishingly small (the sparse
// engines, where an O(bound) buffer is the very allocation being avoided;
// 32-bit slots while bound fits them, as pair counts do up to n = 92682).
// All produce the identical draw sequence, so the sampled subset is
// bit-for-bit the same either way.  Expected < 2 draws per slot while
// k <= bound / 2.  Precondition: k <= bound.
inline void sample_distinct_positions(Rng& rng, std::uint64_t k,
                                      std::uint64_t bound,
                                      std::vector<std::uint64_t>& out) {
  assert(k <= bound);
  out.clear();
  if (k == 0) return;
  out.reserve(k);
  if (k >= bound / 32) {
    std::vector<std::uint64_t> taken(bit_words(bound), 0);
    for (std::uint64_t drawn = 0; drawn < k; ++drawn) {
      std::uint64_t pos = rng.uniform_int(bound);
      while (test_bit(taken.data(), pos)) pos = rng.uniform_int(bound);
      set_bit(taken.data(), pos);
    }
    for_each_set_bit(taken.data(), taken.size(),
                     [&out](std::size_t pos) { out.push_back(pos); });
  } else if (bound <= std::numeric_limits<std::uint32_t>::max()) {
    draw_distinct_ordered<std::uint32_t>(rng, k, bound, out);
  } else {
    draw_distinct_ordered<std::uint64_t>(rng, k, bound, out);
  }
}

// Selects an iid Bernoulli(p) subset of the *complement* of `minority`
// (sorted packed keys) within the n-node pair population and calls
// visit(key) in ascending key order.  The implicit-population sampling
// primitive of the sparse HeterogeneousEdgeMEG (the sparse GeneralEdgeMEG
// makes the same draws but merges the ranks into its own map walk): a
// Binomial(count, p) size plus a uniform distinct placement is exactly an
// iid per-pair selection, so the law matches geometric-skipping a dense
// majority bucket — without ever materializing it.  `rank_scratch` is
// reused capacity.
//
// The rank -> pair-index translation is a single two-pointer merge: the
// r-th complement element is r + j where j counts the minority entries
// below it (minority keys sort like linear pair indices, so the walk is
// one pass over the map).
template <typename Visit>
inline void bernoulli_complement_select(Rng& rng, std::uint64_t n,
                                        const std::vector<std::uint64_t>& minority,
                                        double p,
                                        std::vector<std::uint64_t>& rank_scratch,
                                        Visit&& visit) {
  const std::uint64_t total = pair_count(n);
  assert(minority.size() <= total);
  const std::uint64_t count = total - minority.size();
  if (count == 0 || p <= 0.0) return;
  const std::uint64_t k = rng.binomial(count, p);
  if (k == 0) return;
  sample_distinct_positions(rng, k, count, rank_scratch);
  PairRowCursor cursor(n);
  std::size_t j = 0;
  std::uint64_t next_minority_index =
      j < minority.size() ? pair_index_from_key(n, minority[j]) : 0;
  for (const std::uint64_t rank : rank_scratch) {
    while (j < minority.size() && next_minority_index <= rank + j) {
      ++j;
      if (j < minority.size()) {
        next_minority_index = pair_index_from_key(n, minority[j]);
      }
    }
    visit(cursor.key(rank + j));
  }
}

}  // namespace megflood
