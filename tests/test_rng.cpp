// Unit and property tests for the deterministic RNG substrate.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace megflood {
namespace {

TEST(SplitMix64, DeterministicAndDistinct) {
  SplitMix64 a(42), b(42), c(43);
  const auto x1 = a.next(), x2 = a.next();
  EXPECT_EQ(x1, b.next());
  EXPECT_EQ(x2, b.next());
  EXPECT_NE(x1, x2);
  EXPECT_NE(x1, c.next());
}

TEST(Rng, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDifferentStreams) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LE(same, 1);
}

TEST(Rng, ReseedRestartsStream) {
  Rng a(7);
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 10; ++i) first.push_back(a());
  a.reseed(7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a(), first[static_cast<std::size_t>(i)]);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(5);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, UniformRange) {
  Rng rng(6);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 2.0);
    ASSERT_GE(u, -3.0);
    ASSERT_LT(u, 2.0);
  }
}

TEST(Rng, UniformIntInBounds) {
  Rng rng(9);
  for (std::uint64_t bound : {1ULL, 2ULL, 7ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) {
      ASSERT_LT(rng.uniform_int(bound), bound);
    }
  }
}

TEST(Rng, UniformIntCoversAllValues) {
  Rng rng(10);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform_int(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, UniformIntIsRoughlyUniform) {
  Rng rng(11);
  constexpr std::uint64_t kBound = 8;
  constexpr int kDraws = 80000;
  std::vector<int> counts(kBound, 0);
  for (int i = 0; i < kDraws; ++i) ++counts[rng.uniform_int(kBound)];
  for (std::uint64_t v = 0; v < kBound; ++v) {
    EXPECT_NEAR(counts[v], kDraws / kBound, 500) << "value " << v;
  }
}

// FNV-1a over the eight little-endian bytes of `value`.
std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (value >> (8 * byte)) & 0xffU;
    h *= 0x100000001b3ULL;
  }
  return h;
}
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

// Pins the uniform_int stream byte for byte: FNV-1a over 10^5 draws per
// bound, plus one raw draw after them, so the number of raw draws the
// rejection loop consumed is pinned too.  2^63 + 1 rejects about half of
// its candidates, so the slow path carries most of that row.  The hashes
// were recorded from the out-of-line implementation; any change to the
// accept test, the threshold or the redraw order moves them.
TEST(Rng, UniformIntStreamIsPinned) {
  struct Row {
    std::uint64_t bound;
    std::uint64_t hash;
  };
  const Row rows[] = {
      {1ULL, 0x7cbb7fe420480acaULL},
      {2ULL, 0xfa5f50d9a2dade8aULL},
      {3ULL, 0x1438dc872bfb7a8aULL},
      {6ULL, 0x9a8f48245bea77eaULL},
      {(1ULL << 32) - 1, 0xad898713385517acULL},
      {(1ULL << 32) + 1, 0x7bf4cad541da1487ULL},
      {(1ULL << 63) + 1, 0xba915b17122a2251ULL},
      {~0ULL, 0x617a30f08962619fULL},
  };
  for (const Row& row : rows) {
    Rng rng(19);
    std::uint64_t h = kFnvOffset;
    for (int i = 0; i < 100000; ++i) h = fnv_mix(h, rng.uniform_int(row.bound));
    h = fnv_mix(h, rng());
    EXPECT_EQ(h, row.hash) << "bound " << row.bound << " hash 0x" << std::hex
                           << h;
  }
}

TEST(Rng, SignedUniformIntInclusive) {
  Rng rng(12);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-2, 2);
    ASSERT_GE(v, -2);
    ASSERT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 50000; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 50000.0, 0.3, 0.01);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(14);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, GeometricMeanMatches) {
  Rng rng(15);
  const double p = 0.2;
  double sum = 0.0;
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) {
    sum += static_cast<double>(rng.geometric(p));
  }
  // Mean number of failures before success = (1-p)/p = 4.
  EXPECT_NEAR(sum / kDraws, (1.0 - p) / p, 0.1);
}

TEST(Rng, GeometricWithPOne) {
  Rng rng(16);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.geometric(1.0), 0u);
}

TEST(Rng, GeometricNearOneIsZeroOrTiny) {
  // p so close to 1 that failures are ~impossible: log1p(-p) is a large
  // negative number and the inversion must stay at 0 (never negative,
  // never saturated).
  Rng rng(17);
  const double p = 1.0 - 1e-12;
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(rng.geometric(p), 0u);
}

TEST(Rng, GeometricTinyPSaturatesToMax) {
  // For subnormal p the draw overflows double -> uint64 conversion; the
  // documented behavior is saturation to numeric_limits::max(), not the
  // historical 9e18 sentinel.  (u = 1 exactly would return 0, but its
  // probability is 2^-53; every observable draw saturates.)
  Rng rng(18);
  constexpr auto kMax = std::numeric_limits<std::uint64_t>::max();
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(rng.geometric(5e-324), kMax);
}

TEST(Rng, GeometricSmallPMeanMatches) {
  // p near 0 (but representable): the failure count is huge yet finite;
  // the empirical mean must track (1-p)/p ~ 1/p.
  Rng rng(19);
  const double p = 1e-6;
  double sum = 0.0;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    const std::uint64_t draw = rng.geometric(p);
    ASSERT_LT(draw, std::numeric_limits<std::uint64_t>::max());
    sum += static_cast<double>(draw);
  }
  EXPECT_NEAR(sum / kDraws, (1.0 - p) / p, 0.05 / p);
}

// The per-call form of geometric_select: one geometric(p) call (and one
// log1p) per draw, with the pre-add bound check.
std::vector<std::uint64_t> per_call_select(Rng& rng, std::uint64_t count,
                                           double p) {
  std::vector<std::uint64_t> visited;
  std::uint64_t e = rng.geometric(p);
  while (e < count) {
    visited.push_back(e);
    const std::uint64_t skip = rng.geometric(p);
    if (skip >= count - e - 1) break;
    e += 1 + skip;
  }
  return visited;
}

// The historical Rng::binomial over per-call geometric draws.
std::uint64_t per_call_binomial(Rng& rng, std::uint64_t n, double p) {
  if (n == 0 || p <= 0.0) return 0;
  if (p >= 1.0) return n;
  const bool flipped = p > 0.5;
  const auto hits = static_cast<std::uint64_t>(
      per_call_select(rng, n, flipped ? 1.0 - p : p).size());
  return flipped ? n - hits : hits;
}

TEST(Rng, GeometricSelectMatchesLoopAndNeverWraps) {
  // geometric_select must consume the identical stream as the historical
  // `i = g0; while (i < count) { visit; i += 1 + g; }` pattern, without
  // the wrap-around that pattern suffers at the saturated draw.
  Rng a(23), b(23);
  constexpr std::uint64_t kCount = 1000;
  const double p = 0.01;
  std::vector<std::uint64_t> got, want;
  geometric_select(a, kCount, p, [&](std::uint64_t i) { got.push_back(i); });
  std::uint64_t e = b.geometric(p);
  while (e < kCount) {
    want.push_back(e);
    e += 1 + b.geometric(p);
  }
  EXPECT_EQ(got, want);
  EXPECT_EQ(a(), b());  // streams fully aligned afterwards

  // With a saturating p the selection is empty and terminates.
  Rng c(24);
  std::size_t visits = 0;
  geometric_select(c, kCount, 5e-324, [&](std::uint64_t) { ++visits; });
  EXPECT_EQ(visits, 0u);

  // The hoisted log1p(-p) gives the per-call draws across the whole range
  // of p, at counts that end the scan by the bound check and by the
  // count.
  std::uint64_t seed = 100;
  for (const double q : {5e-324, 1e-12, 0.000244, 0.5, 1.0 - 1e-12, 1.0}) {
    for (const std::uint64_t count :
         {std::uint64_t{1}, kCount, std::uint64_t{1} << 40}) {
      if (count > kCount && q > 1e-9) continue;  // ~count * p visits
      SCOPED_TRACE(::testing::Message() << "p=" << q << " count=" << count);
      Rng x(seed), y(seed);
      ++seed;
      std::vector<std::uint64_t> selected;
      geometric_select(x, count, q,
                       [&](std::uint64_t i) { selected.push_back(i); });
      EXPECT_EQ(selected, per_call_select(y, count, q));
      EXPECT_EQ(x(), y());
    }
  }

  // p = 1 visits every index and, like geometric(1), draws nothing.
  Rng d(25), untouched(25);
  std::vector<std::uint64_t> all;
  geometric_select(d, kCount, 1.0, [&](std::uint64_t i) { all.push_back(i); });
  ASSERT_EQ(all.size(), kCount);
  for (std::uint64_t i = 0; i < kCount; ++i) EXPECT_EQ(all[i], i);
  EXPECT_EQ(d(), untouched());

  // Rng::binomial rides on geometric_select: the same counts and stream
  // as the per-call sampler on both sides of 1/2.
  for (const auto& [n, q] : std::vector<std::pair<std::uint64_t, double>>{
           {1000, 0.01}, {1000, 0.3}, {1000, 0.5}, {1000, 0.7},
           {1000, 0.99}, {536854528, 0.000244}, {536854528, 0.9987}}) {
    Rng x(seed), y(seed);
    ++seed;
    EXPECT_EQ(x.binomial(n, q), per_call_binomial(y, n, q))
        << "n=" << n << " p=" << q;
    EXPECT_EQ(x(), y());
  }
}

// The geometric draw as it was first written, from the raw word: floor
// the quotient, then make the saturation check on the floored value.
std::uint64_t floor_formula_geometric(std::uint64_t bits, double log1m_p) {
  const double u = 1.0 - static_cast<double>(bits >> 11) * 0x1.0p-53;
  const double draw = std::floor(std::log(u) / log1m_p);
  constexpr auto kMax = std::numeric_limits<std::uint64_t>::max();
  if (!(draw >= 0.0) || draw >= static_cast<double>(kMax)) return kMax;
  return static_cast<std::uint64_t>(draw);
}

TEST(Rng, GeometricDrawMatchesFloorFormulaAtEveryBoundary) {
  // The draw is k when u is in (b(k + 1), b(k)], b(k) = exp(k log1p(-p)),
  // so the floor matters only next to a boundary.  u = 1 - x 2^-53 runs
  // over a grid; probe the 129 grid points around every boundary with
  // k <= 4096 and around a 1% ladder of k beyond, until the boundary
  // drops below the grid (or, for subnormal p, k passes 2^64).  Raw 0
  // (u = 1, the -0.0 quotient) and the largest raw word (the smallest u)
  // are checked too.  Every window past k = 0 (which has no grid above
  // it) must straddle a change of the draw.
  constexpr double kGridPoints = 0x1.0p53;
  constexpr std::int64_t kWindow = 64;
  std::uint64_t windows = 0;
  for (const double p : {5e-324, 1e-300, 1e-9, 1e-6, 0.000244, 0.0013, 0.3,
                         0.5, 0.999999}) {
    SCOPED_TRACE(::testing::Message() << "p=" << p);
    const double log1m_p = std::log1p(-p);
    const auto check = [&](std::uint64_t bits) {
      const std::uint64_t want = floor_formula_geometric(bits, log1m_p);
      EXPECT_EQ(Rng::geometric_from_bits(bits, log1m_p), want)
          << "bits 0x" << std::hex << bits;
      return want;
    };
    check(0);
    check(~std::uint64_t{0});
    std::int64_t last_center = -1;
    for (double k = 0; k < 0x1.0p64;
         k = k < 4096 ? k + 1 : std::floor(k * 1.01)) {
      const double x = std::round((1.0 - std::exp(k * log1m_p)) * kGridPoints);
      if (!(x < kGridPoints)) break;
      const auto center = static_cast<std::int64_t>(x);
      if (center == last_center) continue;
      last_center = center;
      const std::int64_t lo = std::max<std::int64_t>(center - kWindow, 0);
      const std::int64_t hi = std::min<std::int64_t>(
          center + kWindow, static_cast<std::int64_t>(kGridPoints) - 1);
      std::uint64_t first = 0, last = 0;
      for (std::int64_t g = lo; g <= hi; ++g) {
        // The low 11 bits never reach u; give them a pattern anyway.
        const std::uint64_t draw =
            check(static_cast<std::uint64_t>(g) << 11 | 0x5a5U);
        if (g == lo) first = draw;
        last = draw;
      }
      if (k > 0) {
        ++windows;
        EXPECT_NE(first, last) << "k=" << k;
      }
    }
  }
  EXPECT_GT(windows, 15000u);
}

// Pins the geometric streams byte for byte: per p, FNV-1a over 10^5
// geometric(p) draws, over the indices geometric_select visits in counts
// 1..1000, and over 10^4 binomial(1 + i % 97, p) draws, each followed by
// one raw draw so the number of draws consumed is pinned too.  Recorded
// with the floor-based draw; any change to the inversion, the saturation
// check or the select's bound check moves them.
TEST(Rng, GeometricStreamIsPinned) {
  struct Row {
    double p;
    std::uint64_t geometric;
    std::uint64_t select;
    std::uint64_t binomial;
  };
  const Row rows[] = {
      {5e-324, 0xf2874890cf2876b0ULL, 0x618ac64999263a47ULL,
       0xd12fafb7601b67dcULL},
      {1e-300, 0xf2874890cf2876b0ULL, 0x618ac64999263a47ULL,
       0xd12fafb7601b67dcULL},
      {1e-9, 0xfd6434855a555509ULL, 0x618ac64999263a47ULL,
       0xd12fafb7601b67dcULL},
      {1e-6, 0xe0141aa4f119bcfeULL, 0x618ac64999263a47ULL,
       0xd12fafb7601b67dcULL},
      {0.000244, 0x17ebe58a2f563c0cULL, 0x7b585f4cdee017a4ULL,
       0x653f917612d5a714ULL},
      {0.0013, 0x5ea267cfe09f4fabULL, 0xa512bcc5ec10e6a6ULL,
       0xdb1b65e2c87e10faULL},
      {0.3, 0xfbc0873b95e21ebdULL, 0x8bf20f24cf0caaeaULL,
       0xa566e71dc1139086ULL},
      {0.5, 0xe88de477d9150c47ULL, 0x9a91938ce560045cULL,
       0x0756e3c49f07db71ULL},
      {0.999999, 0xfba84e25011139b0ULL, 0x77acb50b3ba61b71ULL,
       0x9144f7bb7bd14639ULL},
  };
  for (const Row& row : rows) {
    Rng rng(29);
    std::uint64_t geometric = kFnvOffset;
    for (int i = 0; i < 100000; ++i) {
      geometric = fnv_mix(geometric, rng.geometric(row.p));
    }
    geometric = fnv_mix(geometric, rng());
    std::uint64_t select = kFnvOffset;
    for (std::uint64_t count = 1; count <= 1000; ++count) {
      geometric_select(rng, count, row.p,
                       [&](std::uint64_t i) { select = fnv_mix(select, i); });
    }
    select = fnv_mix(select, rng());
    std::uint64_t binomial = kFnvOffset;
    for (std::uint64_t i = 0; i < 10000; ++i) {
      binomial = fnv_mix(binomial, rng.binomial(1 + i % 97, row.p));
    }
    binomial = fnv_mix(binomial, rng());
    EXPECT_EQ(geometric, row.geometric) << "p " << row.p;
    EXPECT_EQ(select, row.select) << "p " << row.p;
    EXPECT_EQ(binomial, row.binomial) << "p " << row.p;
  }
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(20);
  Rng b = a.split();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LE(same, 1);
}

TEST(DeriveSeeds, CountAndDeterminism) {
  const auto s1 = derive_seeds(99, 16);
  const auto s2 = derive_seeds(99, 16);
  EXPECT_EQ(s1.size(), 16u);
  EXPECT_EQ(s1, s2);
  std::set<std::uint64_t> unique(s1.begin(), s1.end());
  EXPECT_EQ(unique.size(), 16u);
}

TEST(SampleDiscrete, RespectsWeights) {
  Rng rng(21);
  const std::vector<double> weights{1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 40000; ++i) ++counts[sample_discrete(rng, weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(counts[0] / 40000.0, 0.25, 0.02);
  EXPECT_NEAR(counts[2] / 40000.0, 0.75, 0.02);
}

TEST(SampleDiscrete, SingleOutcome) {
  Rng rng(22);
  const std::vector<double> weights{0.0, 5.0};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sample_discrete(rng, weights), 1u);
}

// Property sweep: uniform_int stays in range for many bounds.
class RngBoundsTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngBoundsTest, AlwaysBelowBound) {
  Rng rng(GetParam());
  const std::uint64_t bound = GetParam() % 97 + 1;
  for (int i = 0; i < 500; ++i) ASSERT_LT(rng.uniform_int(bound), bound);
}

INSTANTIATE_TEST_SUITE_P(ManyBounds, RngBoundsTest,
                         ::testing::Values(1, 2, 3, 5, 17, 64, 1000, 123456));

TEST(Binomial, EdgeCases) {
  Rng rng(1);
  EXPECT_EQ(rng.binomial(0, 0.5), 0u);
  EXPECT_EQ(rng.binomial(100, 0.0), 0u);
  EXPECT_EQ(rng.binomial(100, -0.5), 0u);
  EXPECT_EQ(rng.binomial(100, 1.0), 100u);
  EXPECT_EQ(rng.binomial(100, 1.5), 100u);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t draw = rng.binomial(10, 0.3);
    EXPECT_LE(draw, 10u);
  }
}

TEST(Binomial, MeanAndVarianceMatch) {
  // Both branches of the sampler (direct successes for p <= 1/2, flipped
  // failures for p > 1/2) must land on the Binomial(n, p) moments.
  for (const double p : {0.02, 0.4, 0.6, 0.97}) {
    Rng rng(99);
    const std::uint64_t n = 400;
    const int kDraws = 4000;
    double sum = 0.0, sum_sq = 0.0;
    for (int i = 0; i < kDraws; ++i) {
      const auto draw = static_cast<double>(rng.binomial(n, p));
      sum += draw;
      sum_sq += draw * draw;
    }
    const double mean = sum / kDraws;
    const double var = sum_sq / kDraws - mean * mean;
    const double expect_mean = static_cast<double>(n) * p;
    const double expect_var = static_cast<double>(n) * p * (1.0 - p);
    // 6 standard errors of the sample mean.
    EXPECT_NEAR(mean, expect_mean,
                6.0 * std::sqrt(expect_var / kDraws) + 1e-9)
        << "p = " << p;
    EXPECT_NEAR(var, expect_var, 0.15 * expect_var + 0.5) << "p = " << p;
  }
}

TEST(Binomial, Determinism) {
  Rng a(7), b(7);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(a.binomial(1000, 0.123), b.binomial(1000, 0.123));
  }
}

}  // namespace
}  // namespace megflood
