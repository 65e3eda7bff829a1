#pragma once

// Shared incremental maintenance of a sorted on-edge set (packed pair
// keys, see meg/pair_index.hpp) for the geometric-skip edge-MEG engines:
// per step only the flipped edges are known, and the set is updated with
// one merge pass instead of an O(n^2) rebuild.
//
// Also the shared machinery of the *sparse* storage mode (minority-state
// maps): batched subset sampling over an implicit complement population
// and the sorted-merge delta that keeps a minority map (parallel key /
// state vectors) ordered without ever materializing the majority.

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "meg/pair_index.hpp"
#include "util/rng.hpp"

namespace megflood {

// Applies on := (on \ died) ∪ born in a single linear pass.
// Preconditions: `on` is sorted; every key in `died` is present in `on`;
// no key in `born` is present in `on`.  `died` and `born` may arrive in
// any order (they are sorted in place); `scratch` is reused capacity.
inline void apply_on_set_delta(std::vector<std::uint64_t>& on,
                               std::vector<std::uint64_t>& died,
                               std::vector<std::uint64_t>& born,
                               std::vector<std::uint64_t>& scratch) {
  if (died.empty() && born.empty()) return;
  std::sort(died.begin(), died.end());
  std::sort(born.begin(), born.end());
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

// Below this many values sort_below uses std::sort: the radix passes'
// fixed cost (a second buffer, one histogram per digit) does not pay off.
inline constexpr std::size_t kRadixSortMin = 4096;

// Sorts `values`, all < bound, ascending.  An LSD radix sort over 11-bit
// digits that visits only the digits bound - 1 spans (three passes for
// the ~2^29 pairs at n = 32768) and skips a digit every value shares;
// std::sort below kRadixSortMin values.
inline void sort_below(std::vector<std::uint64_t>& values, std::uint64_t bound) {
  const std::size_t count = values.size();
  if (count < kRadixSortMin) {
    std::sort(values.begin(), values.end());
    return;
  }
  constexpr unsigned kDigitBits = 11;
  constexpr std::size_t kRadix = std::size_t{1} << kDigitBits;
  const auto width = static_cast<unsigned>(std::bit_width(bound - 1));
  const unsigned digits = (width + kDigitBits - 1) / kDigitBits;
  std::vector<std::size_t> offsets(digits * kRadix, 0);
  for (const std::uint64_t v : values) {
    for (unsigned d = 0; d < digits; ++d) {
      ++offsets[d * kRadix + ((v >> (d * kDigitBits)) & (kRadix - 1))];
    }
  }
  std::vector<std::uint64_t> buffer(count);
  for (unsigned d = 0; d < digits; ++d) {
    const unsigned shift = d * kDigitBits;
    std::size_t* offset = offsets.data() + d * kRadix;
    if (offset[(values[0] >> shift) & (kRadix - 1)] == count) continue;
    std::size_t next = 0;
    for (std::size_t b = 0; b < kRadix; ++b) {
      const std::size_t in_bucket = offset[b];
      offset[b] = next;
      next += in_bucket;
    }
    for (const std::uint64_t v : values) {
      buffer[offset[(v >> shift) & (kRadix - 1)]++] = v;
    }
    values.swap(buffer);
  }
}

// The sparse branch of sample_distinct_positions: appends k distinct
// uniform draws from [0, bound) to `out` in draw order, rejecting repeats
// against a linear-probing, Fibonacci-hashed table of >= 2k Slot words
// (load <= 1/2).  Every position is < bound <= the all-ones Slot, which
// therefore marks an empty slot.
template <typename Slot>
inline void draw_distinct_hashed(Rng& rng, std::uint64_t k, std::uint64_t bound,
                                 std::vector<std::uint64_t>& out) {
  constexpr Slot kEmpty = ~Slot{0};
  assert(bound <= kEmpty);
  const std::size_t slots = std::bit_ceil(static_cast<std::size_t>(2 * k));
  const int shift = 64 - std::countr_zero(slots);
  std::vector<Slot> table(slots, kEmpty);
  for (std::uint64_t drawn = 0; drawn < k; ++drawn) {
    for (;;) {
      const std::uint64_t pos = rng.uniform_int(bound);
      std::size_t slot =
          static_cast<std::size_t>((pos * 0x9e3779b97f4a7c15ULL) >> shift);
      while (table[slot] != kEmpty && table[slot] != pos) {
        slot = (slot + 1) & (slots - 1);
      }
      if (table[slot] == kEmpty) {
        table[slot] = static_cast<Slot>(pos);
        out.push_back(pos);
        break;
      }
    }
  }
}

// Draws a uniform random k-subset of [0, bound) into `out`, sorted
// ascending, by rejection against the already-drawn set.  The rejection
// stream depends only on set *membership*, so the dedup structure is a
// pure space/time choice: a flat bound-sized bitmap when the subset is a
// meaningful fraction of the range (the dense initializers — one byte
// per slot against 8-32 B per drawn value), a transient open-addressing
// table sized to k when it is vanishingly small (the sparse engines,
// where an O(bound) buffer is the very allocation being avoided; 32-bit
// slots while bound fits them, as pair counts do up to n = 92682).  All
// produce the identical draw sequence, so the sampled subset is
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
    std::vector<std::uint8_t> taken(bound, 0);
    for (std::uint64_t drawn = 0; drawn < k; ++drawn) {
      std::uint64_t pos = rng.uniform_int(bound);
      while (taken[pos]) pos = rng.uniform_int(bound);
      taken[pos] = 1;
      out.push_back(pos);
    }
  } else if (bound <= std::numeric_limits<std::uint32_t>::max()) {
    draw_distinct_hashed<std::uint32_t>(rng, k, bound, out);
  } else {
    draw_distinct_hashed<std::uint64_t>(rng, k, bound, out);
  }
  sort_below(out, bound);
}

// Selects an iid Bernoulli(p) subset of the *complement* of `minority`
// (sorted packed keys) within the n-node pair population and calls
// visit(key) in ascending key order.  The implicit-majority sampling
// primitive of the sparse engines: a Binomial(count, p) size plus a
// uniform distinct placement is exactly an iid per-pair selection, so the
// law matches geometric-skipping a dense majority bucket — without ever
// materializing it.  `rank_scratch` is reused capacity.
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
    visit(pair_key_from_index(n, rank + j));
  }
}

// Applies one step's delta to a minority map (sorted `keys` with a
// parallel `states` vector): drops the entries at `removed_positions`
// (sorted, positions into the pre-delta map) and merges in the new
// `inserted_keys` / `inserted_states` (sorted by key, disjoint from the
// surviving keys).  In-place state changes are the caller's business (a
// state overwrite does not move an entry).  One linear pass, reused
// scratch capacity — the minority-map analogue of apply_on_set_delta.
inline void apply_minority_delta(std::vector<std::uint64_t>& keys,
                                 std::vector<std::uint8_t>& states,
                                 const std::vector<std::uint64_t>& removed_positions,
                                 const std::vector<std::uint64_t>& inserted_keys,
                                 const std::vector<std::uint8_t>& inserted_states,
                                 std::vector<std::uint64_t>& key_scratch,
                                 std::vector<std::uint8_t>& state_scratch) {
  assert(inserted_keys.size() == inserted_states.size());
  if (removed_positions.empty() && inserted_keys.empty()) return;
  key_scratch.clear();
  state_scratch.clear();
  const std::size_t final_size =
      keys.size() - removed_positions.size() + inserted_keys.size();
  key_scratch.reserve(final_size);
  state_scratch.reserve(final_size);
  std::size_t r = 0;
  std::size_t ins = 0;
  for (std::size_t pos = 0; pos < keys.size(); ++pos) {
    if (r < removed_positions.size() && removed_positions[r] == pos) {
      ++r;
      continue;
    }
    const std::uint64_t key = keys[pos];
    while (ins < inserted_keys.size() && inserted_keys[ins] < key) {
      key_scratch.push_back(inserted_keys[ins]);
      state_scratch.push_back(inserted_states[ins]);
      ++ins;
    }
    key_scratch.push_back(key);
    state_scratch.push_back(states[pos]);
  }
  for (; ins < inserted_keys.size(); ++ins) {
    key_scratch.push_back(inserted_keys[ins]);
    state_scratch.push_back(inserted_states[ins]);
  }
  assert(key_scratch.size() == final_size);
  std::swap(keys, key_scratch);
  std::swap(states, state_scratch);
}

}  // namespace megflood
