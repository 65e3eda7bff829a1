// Tests for the exact integer triangular pair indexing (meg/pair_index.hpp).
// The historical double/sqrt inversion loses integer precision once the
// discriminant passes 2^53; the replacement must be exact over the whole
// NodeId domain, so the large-n cases here probe indices where a double
// cannot even represent the discriminant.  Up to n = 2^25 the row comes
// from a branch-free closed form, past it from the 128-bit root, so the
// row edges are checked on both sides of that switch.  Each inversion is
// checked against the forward map pair_index_of, which has no root.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "meg/pair_index.hpp"
#include "util/rng.hpp"

namespace megflood {
namespace {

// The pair a packed key names, checked to be index's pair of n nodes.
::testing::AssertionResult key_is_pair_of(std::uint64_t n, std::uint64_t index,
                                          std::uint64_t key) {
  const std::uint64_t i = pair_key_i(key);
  const std::uint64_t j = pair_key_j(key);
  if (i < j && j < n && pair_index_of(n, i, j) == index) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure() << "n=" << n << " index=" << index
                                       << " gave (" << i << ", " << j << ")";
}

// Indices one before, at and one after the start and the end of each of
// `rows` (the row's last index and the next row's first), ascending.
std::vector<std::uint64_t> row_edges(std::uint64_t n,
                                     const std::vector<std::uint64_t>& rows) {
  std::vector<std::uint64_t> indices;
  for (const std::uint64_t row : rows) {
    const std::uint64_t start = pair_row_start(n, row);
    const std::uint64_t end = start + (n - 1 - row);
    for (const std::uint64_t index :
         {start - 1, start, start + 1, end - 2, end - 1, end}) {
      // start - 1 wraps for row 0; end is past the last pair on the last row.
      if (index < pair_count(n)) indices.push_back(index);
    }
  }
  std::sort(indices.begin(), indices.end());
  indices.erase(std::unique(indices.begin(), indices.end()), indices.end());
  return indices;
}

// Rows 0, 1, 2, the last three and `spread` rows evenly in between.
std::vector<std::uint64_t> sampled_rows(std::uint64_t n, std::uint64_t spread) {
  std::vector<std::uint64_t> rows = {0, 1, 2, n - 4, n - 3, n - 2};
  for (std::uint64_t k = 1; k < spread; ++k) rows.push_back(k * (n - 1) / spread);
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(PairIndex, EveryIndexUpTo300Nodes) {
  for (std::uint64_t n = 2; n <= 300; ++n) {
    std::uint64_t index = 0;
    for (std::uint64_t i = 0; i + 1 < n; ++i) {
      for (std::uint64_t j = i + 1; j < n; ++j, ++index) {
        const auto [gi, gj] = pair_from_index(n, index);
        if (gi != i || gj != j) {
          FAIL() << "n=" << n << " index=" << index << " gave (" << gi
                 << ", " << gj << ")";
        }
      }
    }
  }
}

TEST(PairIndex, RowEdgesAroundTheClosedFormSwitch) {
  // Every row at n = 2^16 and 2^20; spread rows at 2^25, the last n of the
  // closed form, and at 2^25 + 1, the first of the 128-bit root.
  constexpr std::uint64_t kLast = kClosedFormMaxNodes;
  static_assert(kLast == std::uint64_t{1} << 25);
  for (const std::uint64_t n : {std::uint64_t{1} << 16, std::uint64_t{1} << 20,
                                kLast, kLast + 1}) {
    std::vector<std::uint64_t> rows;
    if (n <= std::uint64_t{1} << 20) {
      for (std::uint64_t row = 0; row + 1 < n; ++row) rows.push_back(row);
    } else {
      rows = sampled_rows(n, 4096);
    }
    for (const std::uint64_t index : row_edges(n, rows)) {
      ASSERT_TRUE(key_is_pair_of(n, index, pair_key_from_index(n, index)));
    }
  }
}

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
  for (std::uint64_t n = 2; n <= 300; ++n) {
    PairRowCursor cursor(n);
    for (std::uint64_t index = 0; index < pair_count(n); ++index) {
      ASSERT_TRUE(key_is_pair_of(n, index, cursor.key(index)));
    }
  }
}

TEST(PairRowCursor, RowEdgesAroundTheClosedFormSwitch) {
  // The same row edges as PairIndex.RowEdgesAroundTheClosedFormSwitch in
  // one ascending walk, so every re-seat lands on or next to a row edge.
  for (const std::uint64_t n :
       {std::uint64_t{1} << 16, std::uint64_t{1} << 20, kClosedFormMaxNodes,
        kClosedFormMaxNodes + 1}) {
    PairRowCursor cursor(n);
    for (const std::uint64_t index : row_edges(n, sampled_rows(n, 4096))) {
      ASSERT_TRUE(key_is_pair_of(n, index, cursor.key(index)));
    }
  }
}

TEST(PairRowCursor, ServeRegimeMarks) {
  // The serve step's births: n = 256 and gaps of ~420 indices, so nearly
  // every mark lands past its row, often past the next one.
  constexpr std::uint64_t n = 256;
  Rng rng(256);
  for (int walk = 0; walk < 200; ++walk) {
    PairRowCursor cursor(n);
    for (std::uint64_t index = rng.uniform_int(420); index < pair_count(n);
         index += 1 + rng.uniform_int(840)) {
      ASSERT_TRUE(key_is_pair_of(n, index, cursor.key(index)));
    }
  }
}

TEST(PairRowCursor, MixedWalk) {
  // One walk that alternates steps within a row, hops to the next row and
  // jumps far ahead, on both sides of the closed-form switch.
  for (const std::uint64_t n : {std::uint64_t{300}, std::uint64_t{1} << 20,
                                kClosedFormMaxNodes + 1}) {
    const std::uint64_t total = pair_count(n);
    Rng rng(n);
    PairRowCursor cursor(n);
    int kinds[3] = {};
    for (std::uint64_t index = 0; index < total;) {
      ASSERT_TRUE(key_is_pair_of(n, index, cursor.key(index)));
      const std::uint64_t row = pair_key_i(cursor.key(index));
      const std::uint64_t left = pair_row_start(n, row) + (n - 1 - row) - index;
      const auto kind = rng.uniform_int(3);
      ++kinds[kind];
      if (kind == 0) {
        index += rng.uniform_int(left);  // stays in the row
      } else if (kind == 1) {
        if (row + 2 == n) break;  // no next row
        index += left + rng.uniform_int(n - 2 - row);  // into the next row
      } else {
        index += left + rng.uniform_int(total / 64);  // rows ahead
      }
    }
    EXPECT_GT(kinds[0], 10);
    EXPECT_GT(kinds[1], 10);
    EXPECT_GT(kinds[2], 10);
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
