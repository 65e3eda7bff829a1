#pragma once

// Packed-word bit sets for the flooding engine: an informed set over n
// nodes is ceil(n/64) uint64 words, so set union (one flooding round) is
// word-parallel — 64 node memberships per OR.  Free functions over raw
// word pointers rather than a class, so the n x n all-sources reachability
// matrix can be stored as one flat allocation of n rows.

#include <bit>
#include <cstddef>
#include <cstdint>

namespace megflood {

inline constexpr std::size_t kBitWordBits = 64;

// Number of 64-bit words needed for n bits.
inline constexpr std::size_t bit_words(std::size_t n) noexcept {
  return (n + kBitWordBits - 1) / kBitWordBits;
}

inline void set_bit(std::uint64_t* words, std::size_t i) noexcept {
  words[i / kBitWordBits] |= std::uint64_t{1} << (i % kBitWordBits);
}

inline bool test_bit(const std::uint64_t* words, std::size_t i) noexcept {
  return (words[i / kBitWordBits] >> (i % kBitWordBits)) & 1u;
}

inline std::size_t popcount_words(const std::uint64_t* words,
                                  std::size_t count) noexcept {
  std::size_t total = 0;
  for (std::size_t w = 0; w < count; ++w) {
    total += static_cast<std::size_t>(std::popcount(words[w]));
  }
  return total;
}

// Calls fn(index) for every set bit, in increasing index order.
template <typename Fn>
inline void for_each_set_bit(const std::uint64_t* words, std::size_t count,
                             Fn&& fn) {
  for (std::size_t w = 0; w < count; ++w) {
    std::uint64_t bits = words[w];
    while (bits != 0) {
      const auto b = static_cast<std::size_t>(std::countr_zero(bits));
      fn(w * kBitWordBits + b);
      bits &= bits - 1;
    }
  }
}

// dst[w] |= src[w] & mask over a word range — the all-sources flood
// applies this per snapshot key, restricted to one worker's word-column
// block, with mask all ones for an edge and zero for a key that is not
// one.
inline void or_words(std::uint64_t* dst, const std::uint64_t* src,
                     std::size_t count, std::uint64_t mask) noexcept {
  for (std::size_t w = 0; w < count; ++w) dst[w] |= src[w] & mask;
}

// Calls fn(index) for every bit set in `next` but not in `cur`, in
// increasing index order, offsetting indices by `base_bit` (the first bit
// of the word range being scanned).  The all-sources flood uses it to
// turn a word-column delta into per-source counter updates.
template <typename Fn>
inline void for_each_fresh_bit(const std::uint64_t* cur,
                               const std::uint64_t* next, std::size_t count,
                               std::size_t base_bit, Fn&& fn) {
  for (std::size_t w = 0; w < count; ++w) {
    std::uint64_t fresh = next[w] & ~cur[w];
    while (fresh != 0) {
      const auto b = static_cast<std::size_t>(std::countr_zero(fresh));
      fn(base_bit + w * kBitWordBits + b);
      fresh &= fresh - 1;
    }
  }
}

}  // namespace megflood
