// Stream pin for the sparse engines' subset sampler: sample_distinct_positions
// (bitmap dedup, or a radix sort of the raw draws topped up until k are
// distinct, both emitting in ascending order) must return exactly the
// subset of the historical unordered_set + std::sort sampler and leave the
// Rng at exactly the same point.

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

enum Branch { kBitmap, kSort32, kSort64, kBranches };

Branch branch_of(const Case& c) {
  if (c.k >= c.bound / 32) return kBitmap;
  return c.bound <= std::uint64_t{1} << 32 ? kSort32 : kSort64;
}

void expect_matches_reference(const Case& c, std::uint64_t seed) {
  SCOPED_TRACE(::testing::Message()
               << "bound=" << c.bound << " k=" << c.k << " seed=" << seed);
  Rng a(seed), b(seed);
  std::vector<std::uint64_t> got, want;
  sample_distinct_positions(a, c.k, c.bound, got);
  reference::ref_sample_distinct_positions(b, c.k, c.bound, want);
  ASSERT_EQ(got, want);
  EXPECT_EQ(a(), b());  // the next draw is identical
}

TEST(SampleDistinctPositions, MatchesHistoricalSamplerAndStream) {
  // k in {0, 1, 2, bound/32 - 1, bound/32, bound} where valid.  At
  // bound = pair_count(32768) those last three would allocate ~0.5-1 GB
  // per sampler, so that bound runs the engines' real subset sizes (the
  // per-step majority movers and the initial minority at the paper-scale
  // campaign) and bound = 2^20 covers the branch boundary instead.
  // Bounds 2^32 - 1 and 2^32 are the last 32-bit sorts (2^32 + 1 is in
  // SortedDrawEdges), and pair_count(2^32 - 1) ~ 2^63 is the largest pair
  // population.
  const std::uint64_t paper = pair_count(32768);
  const std::uint64_t huge = pair_count(4294967295ULL);
  const std::uint64_t mid = std::uint64_t{1} << 20;
  const std::uint64_t top32 = std::numeric_limits<std::uint32_t>::max();
  const std::vector<Case> cases = {
      {1, 0},           {1, 1},
      {7, 0},           {7, 1},          {7, 2},          {7, 7},
      {4096, 0},        {4096, 1},       {4096, 2},       {4096, 127},
      {4096, 128},      {4096, 4096},
      {mid, 0},         {mid, 1},        {mid, 2},        {mid, mid / 32 - 1},
      {mid, mid / 32},  {mid, mid},
      {paper, 0},       {paper, 1},      {paper, 2},      {paper, 131072},
      {paper, 699050},
      {top32, 1},       {top32, 2},      {top32, 5000},
      {top32 + 1, 1},   {top32 + 1, 2},  {top32 + 1, 5000},
      {huge, 0},        {huge, 1},       {huge, 2},       {huge, 5000},
  };
  bool covered[kBranches] = {};
  std::uint64_t seed = 1;
  for (const Case& c : cases) {
    expect_matches_reference(c, seed++);
    if (c.k > 0) covered[branch_of(c)] = true;
  }
  EXPECT_TRUE(covered[kBitmap]) << "bitmap branch";
  EXPECT_TRUE(covered[kSort32]) << "sort branch, 32-bit words";
  EXPECT_TRUE(covered[kSort64]) << "sort branch, 64-bit words";
}

// Distinct values among the first k draws of `seed`'s stream: below k, the
// sort branch tops up at least once.
std::uint64_t distinct_in_first_draws(const Case& c, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint64_t> draws(c.k);
  for (auto& draw : draws) draw = rng.uniform_int(c.bound);
  std::sort(draws.begin(), draws.end());
  return static_cast<std::uint64_t>(
      std::unique(draws.begin(), draws.end()) - draws.begin());
}

TEST(SampleDistinctPositions, TopUpsMatchHistoricalSampler) {
  // Bound 2081 makes k = 64 repeat about once per call; k = bound / 33 is
  // the largest sorted subset, ~1.5% repeats, so its top-up repeats too
  // and is topped up in turn.  At bound 2^33, k = 2^17 repeats about once
  // per call among 64-bit words, ~512 to an MSD bucket, so the bucketed
  // sort spread-sorts each bucket and the repeats drop in place.  Each
  // must still be the historical subset, with the caller's next draw
  // unchanged.
  const std::vector<Case> cases = {
      {2081, 64},
      {33 * 1000, 1000},
      {std::uint64_t{1} << 20, (std::uint64_t{1} << 20) / 33},
      {(std::uint64_t{1} << 32) + 1, 5000},
      {std::uint64_t{1} << 33, 131072},
  };
  int topped_up = 0;
  for (const Case& c : cases) {
    ASSERT_NE(branch_of(c), kBitmap);
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      expect_matches_reference(c, seed);
      topped_up += distinct_in_first_draws(c, seed) < c.k;
    }
  }
  EXPECT_GE(topped_up, 16);
}

TEST(SampleDistinctPositions, SortedDrawEdges) {
  // k = 1, and k around the MSD bucket count, where the sort starts
  // splitting by top bits; at bounds around 2^16 (a 16- or 17-bit word),
  // at the widest 32-bit words and just past them, and at the largest pair
  // population.
  using subset_detail::kMsdBuckets;
  const std::uint64_t ks[] = {1, kMsdBuckets - 1, kMsdBuckets,
                              kMsdBuckets + 1};
  const std::uint64_t bounds[] = {(std::uint64_t{1} << 16) - 1,
                                  std::uint64_t{1} << 16,
                                  (std::uint64_t{1} << 16) + 1,
                                  (std::uint64_t{1} << 32) - 1,
                                  std::uint64_t{1} << 32,
                                  (std::uint64_t{1} << 32) + 1,
                                  pair_count(4294967295ULL)};
  bool msd[kBranches] = {};
  for (const std::uint64_t bound : bounds) {
    for (const std::uint64_t k : ks) {
      const Case c{bound, k};
      ASSERT_NE(branch_of(c), kBitmap);
      msd[branch_of(c)] |= k >= kMsdBuckets;
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        expect_matches_reference(c, seed);
      }
    }
  }
  EXPECT_TRUE(msd[kSort32]);
  EXPECT_TRUE(msd[kSort64]);
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

}  // namespace
}  // namespace megflood
