// Tests for the heterogeneous (per-edge rates) edge-MEG.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/flooding.hpp"
#include "meg/heterogeneous_edge_meg.hpp"
#include "step_hash.hpp"

namespace megflood {
namespace {

TEST(HeterogeneousEdgeMEG, ValidationErrors) {
  EXPECT_THROW(
      HeterogeneousEdgeMEG(1, two_speed_rates({0.1, 0.1}, 0.5, 0.5), 0),
      std::invalid_argument);
  EXPECT_THROW(HeterogeneousEdgeMEG(4, nullptr, 0), std::invalid_argument);
}

TEST(SamplerFactories, Validation) {
  EXPECT_THROW(uniform_alpha_rates(0.0, 0.1, 0.1, 0.2),
               std::invalid_argument);
  EXPECT_THROW(uniform_alpha_rates(0.1, 0.05, 0.1, 0.2),
               std::invalid_argument);
  EXPECT_THROW(uniform_alpha_rates(0.05, 0.1, 0.3, 0.2),
               std::invalid_argument);
  EXPECT_THROW(two_speed_rates({0.1, 0.1}, 1.5, 0.5), std::invalid_argument);
  EXPECT_THROW(two_speed_rates({0.1, 0.1}, 0.5, 0.0), std::invalid_argument);
}

TEST(HeterogeneousEdgeMEG, AlphaRangeRespected) {
  HeterogeneousEdgeMEG meg(24, uniform_alpha_rates(0.05, 0.2, 0.1, 0.4), 7);
  EXPECT_GE(meg.min_alpha(), 0.1 - 1e-9);
  EXPECT_LE(meg.max_alpha(), 0.4 + 1e-9);
  EXPECT_GT(meg.max_mixing_time(), 0u);
}

TEST(HeterogeneousEdgeMEG, RatesStableAcrossReset) {
  // reset() re-samples states but the per-edge rate assignment is part of
  // the model identity.
  HeterogeneousEdgeMEG meg(12, uniform_alpha_rates(0.05, 0.3, 0.1, 0.5), 11);
  const auto before = meg.edge_rates(2, 7);
  meg.reset(999);
  const auto after = meg.edge_rates(2, 7);
  EXPECT_DOUBLE_EQ(before.birth_rate, after.birth_rate);
  EXPECT_DOUBLE_EQ(before.death_rate, after.death_rate);
}

TEST(HeterogeneousEdgeMEG, EdgeRatesSymmetricLookup) {
  HeterogeneousEdgeMEG meg(10, uniform_alpha_rates(0.05, 0.3, 0.1, 0.5), 13);
  const auto a = meg.edge_rates(3, 8);
  const auto b = meg.edge_rates(8, 3);
  EXPECT_DOUBLE_EQ(a.birth_rate, b.birth_rate);
  EXPECT_THROW((void)meg.edge_rates(3, 3), std::out_of_range);
}

TEST(HeterogeneousEdgeMEG, TwoSpeedMixingWorstCase) {
  // Slow edges (rates x0.1) dominate the max mixing time ~10x the base.
  const TwoStateParams base{0.1, 0.1};
  HeterogeneousEdgeMEG fast(32, two_speed_rates(base, 0.0, 0.1), 3);
  HeterogeneousEdgeMEG mixed(32, two_speed_rates(base, 0.5, 0.1), 3);
  EXPECT_GT(mixed.max_mixing_time(), 3 * fast.max_mixing_time());
  // Same alpha everywhere: scaling both rates preserves p/(p+q).
  EXPECT_NEAR(mixed.min_alpha(), mixed.max_alpha(), 1e-12);
}

TEST(HeterogeneousEdgeMEG, StationaryDensityMatchesMeanAlpha) {
  HeterogeneousEdgeMEG meg(32, uniform_alpha_rates(0.1, 0.3, 0.2, 0.4), 17);
  // Expected density = average alpha ~ 0.3.
  double avg = 0.0;
  constexpr int kSamples = 60;
  for (int s = 0; s < kSamples; ++s) {
    for (int t = 0; t < 20; ++t) meg.step();
    avg += static_cast<double>(meg.snapshot().num_edges());
  }
  const double pairs = 32.0 * 31.0 / 2.0;
  EXPECT_NEAR(avg / kSamples / pairs, 0.3, 0.04);
}

TEST(HeterogeneousEdgeMEG, ResetReproducesStream) {
  HeterogeneousEdgeMEG meg(16, uniform_alpha_rates(0.1, 0.3, 0.2, 0.4), 21);
  std::vector<std::size_t> first;
  for (int t = 0; t < 10; ++t) {
    meg.step();
    first.push_back(meg.snapshot().num_edges());
  }
  meg.reset(21);
  for (int t = 0; t < 10; ++t) {
    meg.step();
    EXPECT_EQ(meg.snapshot().num_edges(), first[static_cast<std::size_t>(t)]);
  }
}

TEST(HeterogeneousEdgeMEG, FloodingCompletes) {
  HeterogeneousEdgeMEG meg(48, uniform_alpha_rates(0.02, 0.1, 0.05, 0.2), 23);
  const FloodResult r = flood(meg, 0, 100000);
  EXPECT_TRUE(r.completed);
}

TEST(HeterogeneousEdgeMEG, PairIndexRoundTripsRowMajor) {
  // A sampler that encodes its call number in the birth rate: the k-th
  // drawn rate must land on the k-th pair of the row-major upper-triangle
  // enumeration, i.e. edge_rates(i, j) inverts pair_index exactly.
  constexpr std::size_t n = 9;
  std::size_t calls = 0;
  auto counting = [&calls](Rng&) {
    ++calls;
    return TwoStateParams{1e-6 * static_cast<double>(calls), 0.5};
  };
  HeterogeneousEdgeMEG meg(n, counting, 3);
  EXPECT_EQ(calls, n * (n - 1) / 2);
  std::size_t expected = 0;
  for (NodeId i = 0; i + 1 < n; ++i) {
    for (NodeId j = i + 1; j < n; ++j) {
      ++expected;
      EXPECT_DOUBLE_EQ(meg.edge_rates(i, j).birth_rate,
                       1e-6 * static_cast<double>(expected))
          << "pair (" << i << "," << j << ")";
      // Symmetric lookup hits the same slot.
      EXPECT_DOUBLE_EQ(meg.edge_rates(j, i).birth_rate,
                       meg.edge_rates(i, j).birth_rate);
    }
  }
}

TEST(HeterogeneousEdgeMEG, AggregatesMatchBruteForceOverEdgeRates) {
  constexpr std::size_t n = 14;
  HeterogeneousEdgeMEG meg(n, uniform_alpha_rates(0.05, 0.3, 0.1, 0.5), 29);
  double min_alpha = 1.0, max_alpha = 0.0;
  std::size_t max_mixing = 0;
  for (NodeId i = 0; i + 1 < n; ++i) {
    for (NodeId j = i + 1; j < n; ++j) {
      const TwoStateChain chain(meg.edge_rates(i, j));
      min_alpha = std::min(min_alpha, chain.stationary_on());
      max_alpha = std::max(max_alpha, chain.stationary_on());
      max_mixing = std::max(max_mixing, chain.mixing_time());
    }
  }
  EXPECT_DOUBLE_EQ(meg.min_alpha(), min_alpha);
  EXPECT_DOUBLE_EQ(meg.max_alpha(), max_alpha);
  EXPECT_EQ(meg.max_mixing_time(), max_mixing);
}

TEST(HeterogeneousEdgeMEG, DenseStepStreamIsPinned) {
  // The dense engine's decoded edges (its on-set in key order) after
  // the initializer and each of 40 steps, folded into one FNV-1a hash
  // per (sampler, n, seed).  "two_speed" has two exact rate classes;
  // "uniform" draws a distinct rate per pair, so past 64 pairs it runs
  // the one envelope class with acceptance draws.  Any moved draw or
  // byte changes a hash.
  struct Row {
    bool uniform;
    NodeId n;
    std::uint64_t seed;
    std::uint64_t hash;
  };
  const Row rows[] = {
      {false, 12, 1, 0x2809242d5f2887f2ULL},
      {false, 12, 2, 0x336e52b97c20c480ULL},
      {false, 64, 1, 0x23773e76e9467f40ULL},
      {false, 64, 2, 0x313b7f51276621ffULL},
      {false, 200, 1, 0xb6d62530153ed526ULL},
      {false, 200, 2, 0x88c462c1edde4b24ULL},
      {true, 12, 1, 0x982948258cc954b3ULL},
      {true, 12, 2, 0x7075b3bdfb986818ULL},
      {true, 64, 1, 0xf9653e4900c83fc5ULL},
      {true, 64, 2, 0xc0c7f774d67f169aULL},
      {true, 200, 1, 0xf030ce098ced8e70ULL},
      {true, 200, 2, 0x7975bd4f445a07a1ULL},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(::testing::Message() << "uniform=" << row.uniform
                                      << " n=" << row.n
                                      << " seed=" << row.seed);
    HeterogeneousEdgeMEG meg(
        row.n,
        row.uniform ? uniform_alpha_rates(0.2, 0.5, 0.1, 0.3)
                    : two_speed_rates({0.05, 0.3}, 0.3, 0.2),
        row.seed);
    std::uint64_t h = kFnvOffset;
    for (int t = 0; t <= 40; ++t) {
      if (t > 0) meg.step();
      h = fnv_mix_bytes(h, decoded_edges(meg.snapshot()));
    }
    EXPECT_EQ(h, row.hash) << "hash 0x" << std::hex << h;
  }
}

TEST(HeterogeneousEdgeMEG, AggregatesOverwriteSentinelsOnSingleEdge) {
  // The aggregates start from the 1.0 / 0.0 / 0 sentinels declared in the
  // header; with a single pair they must equal that pair's exact values.
  const TwoStateParams rates{0.2, 0.3};
  HeterogeneousEdgeMEG meg(2, [&](Rng&) { return rates; }, 5);
  const TwoStateChain chain(rates);
  EXPECT_DOUBLE_EQ(meg.min_alpha(), chain.stationary_on());
  EXPECT_DOUBLE_EQ(meg.max_alpha(), chain.stationary_on());
  EXPECT_EQ(meg.max_mixing_time(), chain.mixing_time());
  EXPECT_EQ(meg.num_rate_classes(), 1u);
}

}  // namespace
}  // namespace megflood
