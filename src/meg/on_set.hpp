#pragma once

// The uniform distinct-subset draw of the edge-MEG engines:
// sample_distinct_positions emits a uniform k-subset of [0, bound) in
// ascending order.  The batched initializers scatter their minority
// states with it, and the sparse engines place their draws over an
// implicit complement population with it (draw_complement_ranks in
// meg/pair_set.hpp).

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "core/bitwords.hpp"
#include "util/rng.hpp"

namespace megflood {

// Hands the whole pages inside [begin, end) back to the system: they stay
// allocated to the caller, and read as zeros if touched again.  For a
// buffer's consumed stretch, so that it stops counting toward the
// process's resident memory before the buffer itself is freed.
inline void release_pages(const void* begin, const void* end) noexcept {
  static const auto page = static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
  const std::uintptr_t lo =
      (reinterpret_cast<std::uintptr_t>(begin) + page - 1) & ~(page - 1);
  const std::uintptr_t hi = reinterpret_cast<std::uintptr_t>(end) & ~(page - 1);
  if (hi > lo) madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_DONTNEED);
}

// The dedup set of sample_distinct_positions' sparse branch: distinct
// positions < bound kept in ascending slot order by ordered linear
// probing over a monotone hash.  The home slot of pos is
// floor(pos * slots / bound) as a fixed-point 128-bit multiply, so home
// slots never decrease with pos.  An insert walks its run to the first
// larger entry and shifts the rest of the run one slot right, so every
// run stays sorted; a run never wraps, it grows the table at its tail
// instead.  Occupied slots, read left to right, are therefore ascending,
// and drain_sorted emits the set with one compacting scan.  The occupied
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

  // Appends every stored position to `out`, ascending, and empties the
  // table.  The scan releases each stretch of slots it has passed, so at
  // paper scale (64-bit slots, twice as many as positions) the table and
  // `out` never hold all the positions at once.
  void drain_sorted(std::vector<std::uint64_t>& out) {
    constexpr std::size_t kStretch = (std::size_t{1} << 20) / sizeof(Slot);
    const Slot* const slots = table_.data();
    const std::size_t size = table_.size();
    for (std::size_t begin = 0; begin < size; begin += kStretch) {
      const std::size_t end = std::min(size, begin + kStretch);
      for (std::size_t s = begin; s < end; ++s) {
        if (slots[s] != kEmpty) out.push_back(slots[s]);
      }
      release_pages(slots + begin, slots + end);
    }
    table_ = {};
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
  table.drain_sorted(out);
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

}  // namespace megflood
