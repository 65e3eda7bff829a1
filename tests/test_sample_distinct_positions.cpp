// Stream pin for the sparse engines' subset sampler: sample_distinct_positions
// (bitmap or ordered-probe-table dedup, both emitting in ascending order)
// must return exactly the subset of the historical unordered_set +
// std::sort sampler and leave the Rng at exactly the same point.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
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

enum Branch { kBitmap, kTable32, kTable64, kBranches };

Branch branch_of(const Case& c) {
  if (c.k >= c.bound / 32) return kBitmap;
  return c.bound <= std::numeric_limits<std::uint32_t>::max() ? kTable32
                                                              : kTable64;
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
  // Bounds 2^32 - 1 and 2^32 straddle the switch from 32- to 64-bit table
  // slots (the all-ones slot must stay above every position), and
  // pair_count(2^32 - 1) ~ 2^63 is the largest pair population.
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
  EXPECT_TRUE(covered[kTable32]) << "table branch, 32-bit slots";
  EXPECT_TRUE(covered[kTable64]) << "table branch, 64-bit slots";
}

// Finds a seed whose k-subset of [0, bound) holds >= 2 positions with the
// table's last home slot, so the second of them runs past it and the
// table grows at its tail; then checks that seed against the reference.
template <typename Slot>
void expect_tail_growth_matches(std::uint64_t bound) {
  constexpr std::uint64_t k = 64;
  const Case c{bound, k};
  ASSERT_EQ(branch_of(c), sizeof(Slot) == 4 ? kTable32 : kTable64);
  std::vector<std::uint64_t> subset;
  for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
    Rng rng(seed);
    reference::ref_sample_distinct_positions(rng, k, bound, subset);
    OrderedProbeTable<Slot> table(k, bound);
    int at_last_home = 0;
    for (const std::uint64_t pos : subset) {
      at_last_home += table.home(pos) == table.home_slots() - 1;
      ASSERT_TRUE(table.insert(pos));
    }
    if (at_last_home < 2) continue;
    EXPECT_GT(table.extent(), table.home_slots()) << "seed " << seed;
    expect_matches_reference(c, seed);
    return;
  }
  FAIL() << "no seed in 1..1000 puts two draws on the last home slot";
}

TEST(SampleDistinctPositions, TailGrowthMatchesHistoricalSampler) {
  expect_tail_growth_matches<std::uint32_t>(std::uint64_t{1} << 20);
  expect_tail_growth_matches<std::uint64_t>(pair_count(4294967295ULL));
}

TEST(SampleDistinctPositions, LookaheadLeavesTheStreamUntouched) {
  // The table branch prefetches from a copy of the stream kDrawLookahead
  // draws ahead.  Subsets shorter than, equal to and just past that depth
  // must still be the historical subset, with the caller's next draw
  // unchanged, on both slot widths.  Bound 2081 makes k = 64 reject about
  // one repeat per call, so the copy must stay in step through rejections.
  static_assert(kDrawLookahead == 16);
  const std::uint64_t ks[] = {1, 15, 16, 17, 64};
  const std::uint64_t bounds[] = {2081, std::uint64_t{1} << 20,
                                  std::uint64_t{1} << 32,
                                  pair_count(4294967295ULL)};
  bool covered[kBranches] = {};
  for (const std::uint64_t bound : bounds) {
    for (const std::uint64_t k : ks) {
      const Case c{bound, k};
      ASSERT_NE(branch_of(c), kBitmap);
      covered[branch_of(c)] = true;
      for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        expect_matches_reference(c, seed);
      }
    }
  }
  EXPECT_TRUE(covered[kTable32]);
  EXPECT_TRUE(covered[kTable64]);
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
