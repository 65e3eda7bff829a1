// Tests for the exact integer triangular pair indexing (meg/pair_index.hpp).
// The historical double/sqrt inversion loses integer precision once the
// discriminant passes 2^53; the replacement must be exact over the whole
// NodeId domain, so the large-n cases here probe indices where a double
// cannot even represent the discriminant.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "meg/pair_index.hpp"
#include "util/rng.hpp"

namespace megflood {
namespace {

TEST(PairIndex, RoundTripSmall) {
  for (std::uint64_t n : {2ull, 3ull, 5ull, 17ull, 64ull}) {
    std::uint64_t index = 0;
    for (std::uint64_t i = 0; i + 1 < n; ++i) {
      for (std::uint64_t j = i + 1; j < n; ++j, ++index) {
        EXPECT_EQ(pair_index_of(n, i, j), index);
        const auto [gi, gj] = pair_from_index(n, index);
        EXPECT_EQ(gi, i) << "n=" << n << " index=" << index;
        EXPECT_EQ(gj, j) << "n=" << n << " index=" << index;
      }
    }
    EXPECT_EQ(index, pair_count(n));
  }
}

TEST(PairIndex, RoundTripMediumSampled) {
  const std::uint64_t n = 100'000;  // ~5e9 pairs: past 32 bits
  for (std::uint64_t index = 0; index < pair_count(n);
       index += 982'451'653ull / 7) {
    const auto [i, j] = pair_from_index(n, index);
    ASSERT_LT(i, j);
    ASSERT_LT(j, n);
    EXPECT_EQ(pair_index_of(n, i, j), index);
  }
}

TEST(PairIndex, ExactAtRowBoundaries) {
  // Row starts and row ends are where an off-by-one inversion misassigns
  // the row; check them exactly for rows spread over the full range.
  const std::uint64_t n = 1'000'003;
  for (std::uint64_t i : {std::uint64_t{0}, std::uint64_t{1}, n / 3, n / 2,
                          n - 3, n - 2}) {
    const std::uint64_t start = pair_row_start(n, i);
    const std::uint64_t len = n - 1 - i;
    {
      const auto [gi, gj] = pair_from_index(n, start);
      EXPECT_EQ(gi, i);
      EXPECT_EQ(gj, i + 1);
    }
    {
      const auto [gi, gj] = pair_from_index(n, start + len - 1);
      EXPECT_EQ(gi, i);
      EXPECT_EQ(gj, n - 1);
    }
  }
}

TEST(PairIndex, LargeNRegressionPastDoublePrecision) {
  // n at the top of the NodeId domain: pair_count(n) ~ 9.2e18 and the
  // discriminant (2n-1)^2 - 8*index needs ~66 bits — any double round
  // trip of those quantities is lossy.  The seed implementation computed
  // sqrt() on that discriminant; this pins the exact integer behavior.
  const std::uint64_t n = 4'294'967'295ull;  // 2^32 - 1
  const std::uint64_t total = pair_count(n);
  EXPECT_EQ(total, n * (n - 1) / 2);

  // First and last pair of the whole enumeration.
  {
    const auto [i, j] = pair_from_index(n, 0);
    EXPECT_EQ(i, 0u);
    EXPECT_EQ(j, 1u);
  }
  {
    const auto [i, j] = pair_from_index(n, total - 1);
    EXPECT_EQ(i, n - 2);
    EXPECT_EQ(j, n - 1);
  }

  // Row boundaries across the range, including rows whose start indices
  // exceed 2^53 (not representable exactly as double).
  for (std::uint64_t row : {std::uint64_t{1}, n / 4, n / 2, (3 * n) / 4,
                            n - 2}) {
    const std::uint64_t start = pair_row_start(n, row);
    const std::uint64_t last = start + (n - 1 - row) - 1;
    {
      const auto [i, j] = pair_from_index(n, start);
      EXPECT_EQ(i, row) << "row " << row;
      EXPECT_EQ(j, row + 1);
    }
    if (row > 0) {
      // One before a row start must land at the end of the previous row.
      const auto [i, j] = pair_from_index(n, start - 1);
      EXPECT_EQ(i, row - 1) << "row " << row;
      EXPECT_EQ(j, n - 1);
    }
    {
      const auto [i, j] = pair_from_index(n, last);
      EXPECT_EQ(i, row) << "row " << row;
      EXPECT_EQ(j, n - 1);
    }
  }

  // Round trips on sampled interior pairs.
  for (std::uint64_t i : {std::uint64_t{12345}, n / 3, n - 5}) {
    for (std::uint64_t j : {i + 1, i + 97, n - 1}) {
      if (j <= i || j >= n) continue;
      const std::uint64_t index = pair_index_of(n, i, j);
      const auto [gi, gj] = pair_from_index(n, index);
      EXPECT_EQ(gi, i);
      EXPECT_EQ(gj, j);
    }
  }
}

TEST(PairRowCursor, EveryIndexSmall) {
  for (std::uint64_t n : {2ull, 3ull, 5ull, 64ull}) {
    PairRowCursor cursor(n);
    for (std::uint64_t index = 0; index < pair_count(n); ++index) {
      ASSERT_EQ(cursor.key(index), pair_key_from_index(n, index))
          << "n=" << n << " index=" << index;
    }
  }
}

TEST(PairRowCursor, AscendingWalksWithLongJumps) {
  // Log-uniform gaps up to total / 256 mix repeats (the cursor must
  // accept an equal index), steps inside a row, hops into the next row
  // and jumps across many rows; the walk ends on the very last pair.
  for (const std::uint64_t n : {32768ull, 4294967295ull}) {
    const std::uint64_t total = pair_count(n);
    const auto max_shift =
        static_cast<std::uint64_t>(std::bit_width(total) - 8);
    Rng rng(n);
    PairRowCursor cursor(n);
    std::uint64_t index = 0;
    for (int step = 0; step < 20000; ++step) {
      ASSERT_EQ(cursor.key(index), pair_key_from_index(n, index))
          << "n=" << n << " index=" << index;
      const std::uint64_t gap =
          rng.uniform_int(std::uint64_t{1} << rng.uniform_int(max_shift));
      if (gap >= total - 1 - index) break;
      index += gap;
    }
    ASSERT_EQ(cursor.key(total - 1), pair_key_from_index(n, total - 1));
  }
}

TEST(PairIndex, IsqrtExactness) {
  // Perfect squares and their neighbors around 2^32 (where r*r straddles
  // the uint64/double boundary behaviors).
  for (std::uint64_t r : {std::uint64_t{1} << 26, std::uint64_t{1} << 31,
                          (std::uint64_t{1} << 32) - 1,
                          std::uint64_t{3'037'000'499}}) {
    const unsigned __int128 sq = static_cast<unsigned __int128>(r) * r;
    EXPECT_EQ(isqrt_u128(sq), r);
    EXPECT_EQ(isqrt_u128(sq - 1), r - 1);
    EXPECT_EQ(isqrt_u128(sq + 1), r);
  }
  EXPECT_EQ(isqrt_u128(0), 0u);
  EXPECT_EQ(isqrt_u128(1), 1u);
  EXPECT_EQ(isqrt_u128(2), 1u);
  EXPECT_EQ(isqrt_u128(3), 1u);
  EXPECT_EQ(isqrt_u128(4), 2u);
}

}  // namespace
}  // namespace megflood
