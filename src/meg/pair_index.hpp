#pragma once

// Linear indexing of the n(n-1)/2 unordered node pairs: row-major
// enumeration of the strictly-upper-triangular matrix, row i spanning
// indices [row_start(i), row_start(i) + (n - 1 - i)).
//
// The inversion (index -> pair) is exact.  Up to n = 2^25 the row has a
// branch-free closed form: the discriminant (2n-1)^2 - 8*index stays below
// 2^52, where a double holds it and the floor of its correctly rounded
// square root exactly, so one conditional decrement settles the row.
// Past that the discriminant outgrows both 64 bits (for n near 2^32) and a
// double's integer precision, so the float root only seeds an integer
// square root that is corrected exactly in unsigned __int128.

#include <cmath>
#include <cstdint>
#include <utility>

namespace megflood {

// Total number of unordered pairs over n nodes.
inline constexpr std::uint64_t pair_count(std::uint64_t n) noexcept {
  return n * (n - 1) / 2;
}

// Packed-key representation of a pair (i < j): (i << 32) | j.  Keys sort
// in the same order as the row-major linear pair index, so sorted key
// vectors and sorted index vectors enumerate pairs identically.  Shared
// by every edge-MEG's on-set / bucket storage.
inline constexpr std::uint64_t pack_pair(std::uint32_t i,
                                         std::uint32_t j) noexcept {
  return (static_cast<std::uint64_t>(i) << 32) | j;
}

inline constexpr std::uint32_t pair_key_i(std::uint64_t key) noexcept {
  return static_cast<std::uint32_t>(key >> 32);
}

inline constexpr std::uint32_t pair_key_j(std::uint64_t key) noexcept {
  return static_cast<std::uint32_t>(key & 0xffffffffu);
}

// Index of the first pair in row i (pairs (i, j) with j > i).
inline constexpr std::uint64_t pair_row_start(std::uint64_t n,
                                              std::uint64_t i) noexcept {
  return i * (2 * n - i - 1) / 2;
}

// Linear index of pair (i, j), i < j < n.
inline constexpr std::uint64_t pair_index_of(std::uint64_t n, std::uint64_t i,
                                             std::uint64_t j) noexcept {
  return pair_row_start(n, i) + (j - i - 1);
}

// Exact floor(sqrt(x)) for 128-bit x.
inline std::uint64_t isqrt_u128(unsigned __int128 x) noexcept {
  if (x == 0) return 0;
  // Seed from the double sqrt (good to ~53 bits), then correct exactly.
  auto r = static_cast<std::uint64_t>(std::sqrt(static_cast<double>(x)));
  while (r > 0 && static_cast<unsigned __int128>(r) * r > x) --r;
  while (static_cast<unsigned __int128>(r + 1) * (r + 1) <= x) ++r;
  return r;
}

// The largest n whose rows pair_row_closed_form inverts: 2n - 1 < 2^26.
inline constexpr std::uint64_t kClosedFormMaxNodes = std::uint64_t{1} << 25;

// The row i of pair index `index`: the largest i with row_start(i) <=
// index, which is floor(((2n-1) - sqrt((2n-1)^2 - 8*index)) / 2).  With
// s = floor(sqrt(disc)), (2n-1 - s) / 2 is that row or the one after it.
// Precondition: 2 <= n <= kClosedFormMaxNodes, index < pair_count(n).
inline std::uint64_t pair_row_closed_form(std::uint64_t n,
                                          std::uint64_t index) noexcept {
  const std::uint64_t a = 2 * n - 1;
  const std::uint64_t disc = a * a - 8 * index;  // >= 9 for valid index
  const auto s =
      static_cast<std::uint64_t>(std::sqrt(static_cast<double>(disc)));
  const std::uint64_t i = (a - s) / 2;
  return i - (pair_row_start(n, i) > index);
}

// pair_row_closed_form for any n: the exact 128-bit root past 2^25 nodes.
inline std::uint64_t pair_row(std::uint64_t n, std::uint64_t index) noexcept {
  if (n <= kClosedFormMaxNodes) return pair_row_closed_form(n, index);
  const std::uint64_t a = 2 * n - 1;
  const unsigned __int128 disc =
      static_cast<unsigned __int128>(a) * a -
      static_cast<unsigned __int128>(8) * index;  // >= 1 for valid index
  std::uint64_t i = (a - isqrt_u128(disc)) / 2;
  // floor(sqrt) rounds the row down by at most one; settle exactly.
  while (i + 1 < n && pair_row_start(n, i + 1) <= index) ++i;
  while (i > 0 && pair_row_start(n, i) > index) --i;
  return i;
}

// Inverse of pair_index_of: the pair (i, j) with pair_index_of(n, i, j) ==
// index.  Precondition: index < pair_count(n), n >= 2.
inline std::pair<std::uint32_t, std::uint32_t> pair_from_index(
    std::uint64_t n, std::uint64_t index) noexcept {
  const std::uint64_t i = pair_row(n, index);
  const std::uint64_t j = i + 1 + (index - pair_row_start(n, i));
  return {static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(j)};
}

// Converters between the two interchangeable pair representations.  Both
// orders agree (keys sort like indices), so any sorted vector can hold
// either; the packed key is the storage format of the on-sets and
// minority maps, the linear index the sampling format of the implicit
// (complement) populations.
inline std::uint64_t pair_key_from_index(std::uint64_t n,
                                         std::uint64_t index) noexcept {
  const auto [i, j] = pair_from_index(n, index);
  return pack_pair(i, j);
}

inline std::uint64_t pair_index_from_key(std::uint64_t n,
                                         std::uint64_t key) noexcept {
  return pair_index_of(n, pair_key_i(key), pair_key_j(key));
}

// pair_key_from_index for a non-decreasing sequence of indices that mostly
// stay in their row or move on to the next: a forward cursor over the rows
// of the pair triangle.  An index in the current row costs a subtraction,
// one in the next row an addition, and only a longer jump re-seats the
// cursor by the row's closed form (pair_row).  Indices that sit rows
// apart are cheaper through pair_key_from_index itself, which has no
// branch to mispredict (indices_to_keys, meg/pair_set.hpp).
// Precondition: n >= 2, every index < pair_count(n) and >= the index of
// the previous key() call.
class PairRowCursor {
 public:
  explicit PairRowCursor(std::uint64_t n) noexcept : n_(n), row_end_(n - 1) {}

  std::uint64_t key(std::uint64_t index) noexcept {
    if (index >= row_end_) seek(index);
    const std::uint64_t j = row_ + 1 + (index - row_start_);
    return pack_pair(static_cast<std::uint32_t>(row_),
                     static_cast<std::uint32_t>(j));
  }

 private:
  void seek(std::uint64_t index) noexcept {
    ++row_;
    row_start_ = row_end_;
    if (index >= row_start_ + (n_ - 1 - row_)) {
      row_ = pair_row(n_, index);
      row_start_ = pair_row_start(n_, row_);
    }
    row_end_ = row_start_ + (n_ - 1 - row_);
  }

  std::uint64_t n_;
  std::uint64_t row_ = 0;
  std::uint64_t row_start_ = 0;
  std::uint64_t row_end_;  // one past the last index of row_
};

}  // namespace megflood
