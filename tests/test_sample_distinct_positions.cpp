// Stream pin for the sparse engines' subset sampler: sample_distinct_positions
// (open-addressing table or bitmap dedup, radix sort or std::sort) must
// return exactly the subset of the historical unordered_set + std::sort
// sampler and leave the Rng at exactly the same point.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "meg/on_set.hpp"
#include "meg/pair_index.hpp"
#include "reference_engine.hpp"
#include "util/rng.hpp"

namespace megflood {
namespace {

struct Case {
  std::uint64_t bound;
  std::uint64_t k;
};

TEST(SampleDistinctPositions, MatchesHistoricalSamplerAndStream) {
  // k in {0, 1, 2, bound/32 - 1, bound/32, bound} where valid.  At
  // bound = pair_count(32768) those last three would allocate ~0.5-1 GB
  // per sampler, so that bound runs the engines' real subset sizes (the
  // per-step majority movers and the initial minority at the paper-scale
  // campaign) and bound = 2^20 covers the branch boundary instead.
  // Every other bound fits the table's 32-bit slots; pair_count(2^32 - 1)
  // ~ 2^63 needs the 64-bit slots and sends a k above kRadixSortMin
  // through all six radix digits.
  const std::uint64_t paper = pair_count(32768);
  const std::uint64_t huge = pair_count(4294967295ULL);
  const std::uint64_t mid = std::uint64_t{1} << 20;
  const std::vector<Case> cases = {
      {1, 0},         {1, 1},
      {7, 0},         {7, 1},         {7, 2},          {7, 7},
      {4096, 0},      {4096, 1},      {4096, 2},       {4096, 127},
      {4096, 128},    {4096, 4096},
      {mid, 0},       {mid, 1},       {mid, 2},        {mid, mid / 32 - 1},
      {mid, mid / 32}, {mid, mid},
      {paper, 0},     {paper, 1},     {paper, 2},      {paper, 131072},
      {paper, 699050},
      {huge, 0},      {huge, 1},      {huge, 2},       {huge, kRadixSortMin + 904},
  };
  bool covered[2][2] = {};  // [bitmap branch][radix sort]
  std::uint64_t seed = 1;
  for (const Case& c : cases) {
    SCOPED_TRACE(::testing::Message() << "bound=" << c.bound << " k=" << c.k);
    Rng a(seed), b(seed);
    ++seed;
    std::vector<std::uint64_t> got, want;
    sample_distinct_positions(a, c.k, c.bound, got);
    reference::ref_sample_distinct_positions(b, c.k, c.bound, want);
    ASSERT_EQ(got, want);
    EXPECT_EQ(a(), b());  // the next draw is identical
    if (c.k > 0) {
      covered[c.k >= c.bound / 32][c.k >= kRadixSortMin] = true;
    }
  }
  EXPECT_TRUE(covered[0][0]) << "hash branch, std::sort";
  EXPECT_TRUE(covered[0][1]) << "hash branch, radix sort";
  EXPECT_TRUE(covered[1][0]) << "bitmap branch, std::sort";
  EXPECT_TRUE(covered[1][1]) << "bitmap branch, radix sort";
}

TEST(SampleDistinctPositions, RepeatedCallsReuseTheOutputVector) {
  // The engines pass the same scratch vector every step; a smaller k after
  // a larger one must not leave stale values behind.
  Rng a(99), b(99);
  std::vector<std::uint64_t> got, want;
  for (const std::uint64_t k : {20000u, 3u, 9000u, 0u, 5000u}) {
    sample_distinct_positions(a, k, pair_count(32768), got);
    reference::ref_sample_distinct_positions(b, k, pair_count(32768), want);
    ASSERT_EQ(got, want) << "k=" << k;
  }
  EXPECT_EQ(a(), b());
}

TEST(SortBelow, MatchesStdSortWithDuplicatesAndSharedDigits) {
  Rng rng(7);
  for (const std::uint64_t bound :
       {std::uint64_t{1}, std::uint64_t{2048}, std::uint64_t{1} << 33,
        ~std::uint64_t{0}}) {
    for (const std::size_t count : {std::size_t{0}, kRadixSortMin - 1,
                                    kRadixSortMin, 3 * kRadixSortMin + 5}) {
      std::vector<std::uint64_t> values(count);
      // Half the values repeat a few keys, so every digit pass sees
      // duplicates; bound 1 and 2048 make every higher digit shared.
      for (std::size_t i = 0; i < count; ++i) {
        values[i] = i % 2 == 0 ? rng.uniform_int(bound)
                               : rng.uniform_int(std::min<std::uint64_t>(bound, 5));
      }
      std::vector<std::uint64_t> want = values;
      std::sort(want.begin(), want.end());
      sort_below(values, bound);
      EXPECT_EQ(values, want) << "bound=" << bound << " count=" << count;
    }
  }
}

}  // namespace
}  // namespace megflood
