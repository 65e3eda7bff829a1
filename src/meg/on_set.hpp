#pragma once

// The uniform distinct-subset draw of the edge-MEG engines:
// sample_distinct_positions emits a uniform k-subset of [0, bound) in
// ascending order.  The batched initializers scatter their minority
// states with it, and the sparse engines place their draws over an
// implicit complement population with it (draw_complement_ranks in
// meg/pair_set.hpp).

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "core/bitwords.hpp"
#include "util/rng.hpp"

namespace megflood {

namespace subset_detail {

// Word i of raw storage, read and written through memcpy: the 32-bit draws
// of the sparse branch overlay the caller's 64-bit output vector, and
// memcpy accesses may alias it where a std::uint32_t* could not.
template <typename W>
W load_word(const void* base, std::size_t i) noexcept {
  W w;
  std::memcpy(&w, static_cast<const char*>(base) + i * sizeof(W), sizeof(W));
  return w;
}

template <typename W>
void store_word(void* base, std::size_t i, W w) noexcept {
  std::memcpy(static_cast<char*>(base) + i * sizeof(W), &w, sizeof(W));
}

// A sort of n draws splits them by their top kMsdBits first (the MSD
// pass), so that each bucket's own pass runs in cache; sorts of fewer
// than kMsdBuckets words skip it.
inline constexpr int kMsdBits = 8;
inline constexpr std::size_t kMsdBuckets = std::size_t{1} << kMsdBits;
// Runs of at most kInsertionMax words are insertion-sorted outright.
inline constexpr std::size_t kInsertionMax = 32;

template <typename W>
void insertion_sort(void* data, std::size_t n) noexcept {
  for (std::size_t i = 1; i < n; ++i) {
    const W w = load_word<W>(data, i);
    std::size_t j = i;
    for (W prev; j > 0 && (prev = load_word<W>(data, j - 1)) > w; --j) {
      store_word(data, j, prev);
    }
    store_word(data, j, w);
  }
}

// Sorts the n words at `src`, equal above their low `bits` bits, into
// `dst`: one counting pass on the top bit_width(n) of those bits spreads
// uniform draws about one per slot, and an insertion sort then settles
// the few that share a slot.  `slots` is the reused slot histogram.
template <typename W>
void spread_sort(const void* src, void* dst, std::size_t n, int bits,
                 std::vector<std::uint32_t>& slots) {
  if (n <= kInsertionMax) {
    std::memcpy(dst, src, n * sizeof(W));
    insertion_sort<W>(dst, n);
    return;
  }
  const int width = std::min(bits, static_cast<int>(std::bit_width(n)));
  const int shift = bits - width;
  const W mask = static_cast<W>((std::uint64_t{1} << width) - 1);
  slots.assign((std::size_t{1} << width) + 1, 0);
  assert(n <= std::numeric_limits<std::uint32_t>::max());
  std::uint32_t* const next = slots.data();
  for (std::size_t i = 0; i < n; ++i) {
    ++next[((load_word<W>(src, i) >> shift) & mask) + 1];
  }
  for (std::size_t slot = 1; slot <= mask; ++slot) next[slot] += next[slot - 1];
  for (std::size_t i = 0; i < n; ++i) {
    const W w = load_word<W>(src, i);
    store_word(dst, next[(w >> shift) & mask]++, w);
  }
  insertion_sort<W>(dst, n);
}

// Sorts the n words of `data`, each < 2^bits, in place, with `spare` (n
// words) as scratch: the MSD pass scatters them into `spare` by their top
// kMsdBits, then each bucket spread-sorts back into its stretch of `data`.
template <typename W>
void radix_sort(void* data, void* spare, std::size_t n, int bits) {
  std::vector<std::uint32_t> slots;
  if (n < kMsdBuckets || bits <= kMsdBits) {
    spread_sort<W>(data, spare, n, bits, slots);
    std::memcpy(data, spare, n * sizeof(W));
    return;
  }
  const int shift = bits - kMsdBits;
  std::array<std::size_t, kMsdBuckets + 1> start{};
  for (std::size_t i = 0; i < n; ++i) {
    ++start[(load_word<W>(data, i) >> shift) + 1];
  }
  for (std::size_t b = 1; b <= kMsdBuckets; ++b) start[b] += start[b - 1];
  std::array<std::size_t, kMsdBuckets> next;
  std::copy(start.begin(), start.end() - 1, next.begin());
  for (std::size_t i = 0; i < n; ++i) {
    const W w = load_word<W>(data, i);
    store_word(spare, next[w >> shift]++, w);
  }
  for (std::size_t b = 0; b < kMsdBuckets; ++b) {
    const std::size_t offset = start[b] * sizeof(W);
    spread_sort<W>(static_cast<const char*>(spare) + offset,
                   static_cast<char*>(data) + offset, start[b + 1] - start[b],
                   shift, slots);
  }
}

// Draws n values from [0, bound) into `data` and sorts them there, with
// `spare` (n words) as scratch.
template <typename W>
void draw_sorted(Rng& rng, std::size_t n, std::uint64_t bound, void* data,
                 void* spare) {
  // A local copy of the stream: the stores cannot alias it, so its state
  // stays in registers across the loop.
  Rng local = rng;
  for (std::size_t i = 0; i < n; ++i) {
    store_word(data, i, static_cast<W>(local.uniform_int(bound)));
  }
  rng = local;
  radix_sort<W>(data, spare, n,
                static_cast<int>(std::bit_width(bound - 1)));
}

// Draws n 64-bit values from [0, bound) into `data` and sorts them there
// with no n-word scratch: a first pass over a copy of the stream counts
// the values per MSD bucket, the replayed draws then land straight in
// their buckets, and each bucket spread-sorts through a bucket-sized
// scratch.  The draws, and so the stream, are draw_sorted's.
inline void draw_sorted_in_place(Rng& rng, std::size_t n, std::uint64_t bound,
                                 std::uint64_t* data) {
  const int bits = static_cast<int>(std::bit_width(bound - 1));
  if (n < kMsdBuckets || bits <= kMsdBits) {
    std::vector<std::uint64_t> spare(n);
    draw_sorted<std::uint64_t>(rng, n, bound, data, spare.data());
    return;
  }
  const int shift = bits - kMsdBits;
  std::array<std::size_t, kMsdBuckets + 1> start{};
  Rng count = rng;
  for (std::size_t i = 0; i < n; ++i) {
    ++start[(count.uniform_int(bound) >> shift) + 1];
  }
  std::size_t largest = 0;
  for (std::size_t b = 1; b <= kMsdBuckets; ++b) {
    largest = std::max(largest, start[b]);
    start[b] += start[b - 1];
  }
  std::array<std::size_t, kMsdBuckets> next;
  std::copy(start.begin(), start.end() - 1, next.begin());
  Rng local = rng;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t w = local.uniform_int(bound);
    data[next[w >> shift]++] = w;
  }
  rng = local;
  std::vector<std::uint64_t> bucket(largest);
  std::vector<std::uint32_t> slots;
  for (std::size_t b = 0; b < kMsdBuckets; ++b) {
    const std::size_t size = start[b + 1] - start[b];
    std::copy_n(data + start[b], size, bucket.data());
    spread_sort<std::uint64_t>(bucket.data(), data + start[b], size, shift,
                               slots);
  }
}

// The sparse branch of sample_distinct_positions: k uniform distinct
// values from [0, bound), 2^32 >= bound when W is 32 bits, in `out`,
// ascending.  Draws k values, sorts them and drops the repeats; then, d
// distinct so far, draws k - d more and merges the new ones in, until k
// are distinct.  A rejection loop would reject exactly those repeats, so
// the subset and the draws made are the same: every round ends with
// fewer than k distinct values unless its last draw completes them.
// 32-bit draws sort inside `out` itself, in its upper half with the lower
// half as scratch, and the 64-bit values then overwrite them front to
// back: value d takes words 2d and 2d + 1, d <= s < k, so it stays below
// word k + s + 1, the next sorted one read.  64-bit draws sort in `out`
// (draw_sorted_in_place), and the repeats drop in place.
template <typename W, typename Alloc>
void draw_distinct_sorted(Rng& rng, std::size_t k, std::uint64_t bound,
                          std::vector<std::uint64_t, Alloc>& out) {
  out.resize(k);  // every word is overwritten
  std::uint64_t* const set = out.data();
  void* sorted = set;
  if constexpr (sizeof(W) == sizeof(std::uint32_t)) {
    sorted = static_cast<char*>(sorted) + k * sizeof(W);
    draw_sorted<W>(rng, k, bound, sorted, set);
  } else {
    draw_sorted_in_place(rng, k, bound, set);
  }
  std::uint64_t last = load_word<W>(sorted, 0);
  set[0] = last;
  std::size_t d = 1;
  for (std::size_t s = 1; s < k; ++s) {
    const std::uint64_t w = load_word<W>(sorted, s);
    set[d] = w;
    d += w != last;
    last = w;
  }
  std::vector<W> fresh;
  std::vector<std::uint64_t> added;
  while (d < k) {
    const std::size_t m = k - d;
    fresh.resize(2 * m);
    draw_sorted<W>(rng, m, bound, fresh.data() + m, fresh.data());
    // The new values once each, less those already in the set; both are
    // ascending, so one forward search covers them all.
    added.clear();
    std::uint64_t* probe = set;
    for (std::size_t s = 0; s < m; ++s) {
      const std::uint64_t w = fresh[m + s];
      if (!added.empty() && added.back() == w) continue;
      probe = std::lower_bound(probe, set + d, w);
      if (probe == set + d || *probe != w) added.push_back(w);
    }
    // Merge them in from the back, into the free tail of `out`.
    std::size_t i = d;
    std::size_t j = added.size();
    d += j;
    for (std::size_t write = d; j > 0;) {
      set[--write] = i > 0 && set[i - 1] > added[j - 1] ? set[--i]
                                                         : added[--j];
    }
  }
}

}  // namespace subset_detail

// Draws a uniform random k-subset of [0, bound) into `out`, sorted
// ascending, exactly as rejection against the already-drawn set would:
// the same uniform_int draws in the same order, so the subset and the
// caller's next draw are the rejection loop's.  A flat bound-bit bitmap
// dedups when the subset is a meaningful fraction of the range (the dense
// initializers) and emits it with one scan; a subset vanishingly small
// against its range (the sparse engines, where an O(bound) buffer is the
// very allocation being avoided) is sorted from its raw draws instead
// (subset_detail::draw_distinct_sorted; 32-bit words inside `out` while
// bound fits them, as pair counts do up to n = 92682, and 64-bit words
// sorted in `out` past that).  Expected < 2
// draws per slot while k <= bound / 2.  Precondition: k <= bound.
template <typename Alloc>
void sample_distinct_positions(Rng& rng, std::uint64_t k, std::uint64_t bound,
                               std::vector<std::uint64_t, Alloc>& out) {
  assert(k <= bound);
  if (k == 0) {
    out.clear();
  } else if (k >= bound / 32) {
    out.clear();
    out.reserve(k);
    std::vector<std::uint64_t> taken(bit_words(bound), 0);
    for (std::uint64_t drawn = 0; drawn < k; ++drawn) {
      std::uint64_t pos = rng.uniform_int(bound);
      while (test_bit(taken.data(), pos)) pos = rng.uniform_int(bound);
      set_bit(taken.data(), pos);
    }
    for_each_set_bit(taken.data(), taken.size(),
                     [&out](std::size_t pos) { out.push_back(pos); });
  } else if (bound <= std::uint64_t{1} << 32) {
    subset_detail::draw_distinct_sorted<std::uint32_t>(rng, k, bound, out);
  } else {
    subset_detail::draw_distinct_sorted<std::uint64_t>(rng, k, bound, out);
  }
}

}  // namespace megflood
