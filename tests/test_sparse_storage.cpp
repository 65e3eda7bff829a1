// Sparse-vs-dense equivalence for the minority-state edge-MEG engines
// (meg/storage.hpp).  Three layers, mirroring the PR 2 skip-sampler
// suite:
//  1. exact t = 0 equality for GeneralEdgeMEG — the sparse initializer
//     shares the dense batched path's RNG stream (binomial splits,
//     Fisher-Yates shuffle, distinct-subset rejection), so a same-seed
//     dense/sparse pair must start in the identical configuration;
//  2. exact per-step self-consistency — the incrementally maintained
//     sparse snapshot must equal a brute-force walk of pair_state /
//     edge_on at every step;
//  3. distributional equivalence — stationary on-frequencies and
//     per-step birth/death counts must agree between the storage modes
//     within binomial confidence bounds (the step laws are identical,
//     only the streams differ).
// Plus the memory-regression guard: the sparse engines construct and
// step at n = 32768, where the dense footprint would be several GB,
// with peak resident memory well under the dense requirement (the dense
// ctor at that n is deliberately never attempted).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "meg/general_edge_meg.hpp"
#include "meg/heterogeneous_edge_meg.hpp"
#include "meg/pair_index.hpp"
#include "meg/storage.hpp"
#include "util/resource.hpp"

namespace megflood {
namespace {

using EdgeList = std::vector<std::pair<NodeId, NodeId>>;

EdgeList brute_force_edges(const GeneralEdgeMEG& meg,
                           const std::vector<bool>& chi) {
  EdgeList edges;
  const auto n = static_cast<NodeId>(meg.num_nodes());
  for (NodeId i = 0; i + 1 < n; ++i) {
    for (NodeId j = i + 1; j < n; ++j) {
      if (chi[meg.pair_state(i, j)]) edges.emplace_back(i, j);
    }
  }
  return edges;
}

// Same slack-8-sigma comparison as the skip-sampler suite: per-pair-step
// samples are autocorrelated, so the bound is deliberately loose.
void expect_close_rates(double a_num, double b_num, double denom,
                        const char* what) {
  const double fa = a_num / denom;
  const double fb = b_num / denom;
  const double pooled = 0.5 * (fa + fb);
  const double se = std::sqrt(std::max(pooled * (1.0 - pooled), 1e-12) / denom);
  EXPECT_NEAR(fa, fb, 8.0 * se + 1e-9) << what;
}

struct FlipCounts {
  std::uint64_t on_observations = 0;
  std::uint64_t births = 0;
  std::uint64_t deaths = 0;
  std::uint64_t pair_steps = 0;
};

template <typename Probe>
FlipCounts count_flips(std::size_t pairs, std::size_t steps, Probe&& probe) {
  FlipCounts c;
  std::vector<char> prev(pairs), cur(pairs);
  probe(prev);
  for (std::size_t t = 0; t < steps; ++t) {
    probe(cur);  // probe() steps the model then reads the states
    for (std::size_t e = 0; e < pairs; ++e) {
      c.on_observations += cur[e] != 0;
      c.births += !prev[e] && cur[e];
      c.deaths += prev[e] && !cur[e];
    }
    c.pair_steps += pairs;
    std::swap(prev, cur);
  }
  return c;
}

// ---------------------------------------------------------------------------
// GeneralEdgeMEG: sparse vs dense
// ---------------------------------------------------------------------------

TEST(SparseGeneralEdgeMeg, InitialConfigurationMatchesDenseExactly) {
  // Same seed => same binomial splits, same shuffle, same subset draw:
  // the t = 0 configuration (hence the per-class counts and the on-set)
  // must match the dense engine bit-for-bit.
  const auto link = make_bursty_link(0.02, 0.5, 0.3);
  constexpr NodeId kN = 96;
  for (const std::uint64_t seed : {1ULL, 17ULL, 4242ULL}) {
    GeneralEdgeMEG dense(kN, link.chain, link.chi, seed, MegStorage::kDense);
    GeneralEdgeMEG sparse(kN, link.chain, link.chi, seed, MegStorage::kSparse);
    ASSERT_EQ(dense.storage(), MegStorage::kDense);
    ASSERT_EQ(sparse.storage(), MegStorage::kSparse);
    std::vector<std::uint64_t> dense_class(link.chain.num_states(), 0);
    std::vector<std::uint64_t> sparse_class(link.chain.num_states(), 0);
    for (NodeId i = 0; i + 1 < kN; ++i) {
      for (NodeId j = i + 1; j < kN; ++j) {
        const StateId want = dense.pair_state(i, j);
        ASSERT_EQ(sparse.pair_state(i, j), want)
            << "seed " << seed << " pair (" << i << "," << j << ")";
        ++dense_class[want];
        ++sparse_class[sparse.pair_state(i, j)];
      }
    }
    EXPECT_EQ(dense_class, sparse_class) << "seed " << seed;
    EXPECT_EQ(sparse.snapshot().edges(), dense.snapshot().edges())
        << "seed " << seed;
    EXPECT_EQ(sparse.minority_count(), dense.minority_count())
        << "seed " << seed;
  }
}

TEST(SparseGeneralEdgeMeg, SnapshotMatchesBruteForceEveryStep) {
  // Multi-minority-class chain (four-state link: three minority classes,
  // two of them on) — stresses in-place state changes, map removals and
  // majority-mover insertions in the same step.
  const auto link = make_four_state_link({});
  GeneralEdgeMEG meg(12, link.chain, link.chi, 3, MegStorage::kSparse);
  for (std::size_t t = 0; t < 300; ++t) {
    ASSERT_EQ(meg.snapshot().edges(), brute_force_edges(meg, link.chi))
        << "step " << t;
    meg.step();
  }
}

TEST(SparseGeneralEdgeMeg, EdgeBufferAndMapStayCanonicalEveryStep) {
  // The merge pass writes the snapshot straight from the map walk, so the
  // raw edge buffer itself (not only the edge set) must be the ascending
  // brute-force list, and the map must stay strictly ascending with no
  // majority-state entry.  Counts the three edge cases of the walk so the
  // run provably reached each: a step with no majority mover, a majority
  // mover inserted past the last map entry, and a step from an empty map.
  struct Link {
    const char* name;
    BurstyLink link;
  };
  const std::vector<Link> links = {
      {"bursty", make_bursty_link(0.05, 0.5, 0.3)},
      {"four_state", make_four_state_link({})}};
  std::uint64_t no_majority_movers = 0, insert_past_end = 0, empty_map = 0;
  for (const Link& l : links) {
    const std::vector<double> pi = l.link.chain.stationary();
    const auto majority = static_cast<std::uint8_t>(
        std::max_element(pi.begin(), pi.end()) - pi.begin());
    for (const NodeId n : {2u, 3u, 12u, 64u}) {
      SCOPED_TRACE(::testing::Message() << l.name << " n=" << n);
      GeneralEdgeMEG meg(n, l.link.chain, l.link.chi, 5 + n,
                         MegStorage::kSparse);
      for (std::size_t t = 0; t < 200; ++t) {
        ASSERT_EQ(meg.snapshot().edge_buffer(),
                  brute_force_edges(meg, l.link.chi))
            << "step " << t;
        const std::vector<std::uint64_t> keys = meg.minority_keys();
        ASSERT_EQ(meg.minority_states().size(), keys.size());
        for (std::size_t k = 0; k < keys.size(); ++k) {
          ASSERT_NE(meg.minority_states()[k], majority) << "step " << t;
          if (k > 0) {
            ASSERT_LT(keys[k - 1], keys[k]) << "step " << t;
          }
        }
        meg.step();
        // A key new to the map is a majority mover (it left the majority).
        bool moved = false;
        for (const std::uint64_t key : meg.minority_keys()) {
          if (std::binary_search(keys.begin(), keys.end(), key)) continue;
          moved = true;
          insert_past_end += !keys.empty() && key > keys.back();
        }
        no_majority_movers += !keys.empty() && !moved;
        empty_map += keys.empty();
      }
    }
  }
  EXPECT_GT(no_majority_movers, 0u);
  EXPECT_GT(insert_past_end, 0u);
  EXPECT_GT(empty_map, 0u);
}

TEST(SparseGeneralEdgeMeg, StationaryAndFlipRatesMatchDense) {
  const auto link = make_bursty_link(0.15, 0.5, 0.35);
  constexpr std::size_t kN = 16, kSteps = 800;
  const std::size_t pairs = kN * (kN - 1) / 2;

  const auto run = [&](MegStorage storage) {
    GeneralEdgeMEG meg(kN, link.chain, link.chi, 5, storage);
    return count_flips(pairs, kSteps, [&](std::vector<char>& out) {
      std::size_t e = 0;
      for (NodeId i = 0; i + 1 < kN; ++i) {
        for (NodeId j = i + 1; j < kN; ++j, ++e) {
          out[e] = link.chi[meg.pair_state(i, j)];
        }
      }
      meg.step();
    });
  };
  const FlipCounts sparse = run(MegStorage::kSparse);
  const FlipCounts dense = run(MegStorage::kDense);

  const auto denom = static_cast<double>(sparse.pair_steps);
  expect_close_rates(static_cast<double>(sparse.on_observations),
                     static_cast<double>(dense.on_observations), denom,
                     "stationary on-frequency");
  expect_close_rates(static_cast<double>(sparse.births),
                     static_cast<double>(dense.births), denom, "birth rate");
  expect_close_rates(static_cast<double>(sparse.deaths),
                     static_cast<double>(dense.deaths), denom, "death rate");
  // And the analytic stationary density.
  GeneralEdgeMEG probe(kN, link.chain, link.chi, 5, MegStorage::kSparse);
  EXPECT_NEAR(static_cast<double>(sparse.on_observations) / denom,
              probe.stationary_edge_probability(), 0.02);
}

TEST(SparseGeneralEdgeMeg, ResetReproducesStream) {
  const auto link = make_bursty_link(0.05, 0.4, 0.3);
  GeneralEdgeMEG meg(16, link.chain, link.chi, 9, MegStorage::kSparse);
  std::vector<EdgeList> first;
  for (int t = 0; t < 24; ++t) {
    first.push_back(meg.snapshot().edges());
    meg.step();
  }
  meg.reset(9);
  for (int t = 0; t < 24; ++t) {
    ASSERT_EQ(meg.snapshot().edges(), first[static_cast<std::size_t>(t)])
        << "step " << t;
    meg.step();
  }
}

TEST(SparseGeneralEdgeMeg, RejectsChainsWithoutQuiescentMajority) {
  // Uniform stationary law (cyclic duty-cycle chain): no dominant class.
  const auto uniform = make_duty_cycle_link(4, 2, 0.5);
  EXPECT_THROW(GeneralEdgeMEG(16, uniform.chain, uniform.chi, 1,
                              MegStorage::kSparse),
               std::invalid_argument);
  // Dominant class, but chi maps it to "on": the on-set would be the
  // majority itself.
  const auto on_majority = make_bursty_link(0.5, 0.5, 0.01);
  ASSERT_GT(on_majority.chain.stationary()[2], 0.5);
  EXPECT_THROW(GeneralEdgeMEG(16, on_majority.chain, on_majority.chi, 1,
                              MegStorage::kSparse),
               std::invalid_argument);
  // kAuto must fall back to dense for both, not throw.
  EXPECT_EQ(GeneralEdgeMEG(16, uniform.chain, uniform.chi, 1,
                           MegStorage::kAuto)
                .storage(),
            MegStorage::kDense);
}

TEST(SparseGeneralEdgeMeg, AutoSelectsDenseBelowThreshold) {
  const auto link = make_bursty_link(0.02, 0.5, 0.3);
  GeneralEdgeMEG meg(64, link.chain, link.chi, 1, MegStorage::kAuto);
  EXPECT_EQ(meg.storage(), MegStorage::kDense);
  // The auto rule itself: small n under, paper n over the threshold.
  EXPECT_FALSE(
      meg_auto_prefers_sparse(GeneralEdgeMEG::dense_footprint_bytes(4096)));
  EXPECT_TRUE(
      meg_auto_prefers_sparse(GeneralEdgeMEG::dense_footprint_bytes(16384)));
}

// ---------------------------------------------------------------------------
// HeterogeneousEdgeMEG: sparse vs dense
// ---------------------------------------------------------------------------

TEST(SparseHeterogeneousEdgeMeg, InitialOnLawMatchesDense) {
  // Sparse assigns per-pair rates through a different (counter-based)
  // stream, so t = 0 equivalence is distributional: across many seeds
  // the total on-count must match the dense engine's within binomial
  // bounds (both are sums of independent Bernoulli(alpha_e)).
  constexpr NodeId kN = 24;
  const std::size_t pairs = pair_count(kN);
  const auto sampler = uniform_alpha_rates(0.2, 0.5, 0.05, 0.25);
  const auto bounds = uniform_alpha_bounds(0.2, 0.5, 0.05, 0.25);
  constexpr int kSeeds = 200;
  std::uint64_t sparse_on = 0, dense_on = 0;
  for (int trial = 0; trial < kSeeds; ++trial) {
    const auto seed = 500 + static_cast<std::uint64_t>(trial);
    sparse_on += HeterogeneousEdgeMEG(kN, sampler, seed, MegStorage::kSparse,
                                      bounds)
                     .snapshot()
                     .num_edges();
    dense_on += HeterogeneousEdgeMEG(kN, sampler, seed).snapshot().num_edges();
  }
  expect_close_rates(static_cast<double>(sparse_on),
                     static_cast<double>(dense_on),
                     static_cast<double>(pairs) * kSeeds, "t=0 on-frequency");
}

TEST(SparseHeterogeneousEdgeMeg, SnapshotMatchesEdgeOnEveryStep) {
  const auto sampler = uniform_alpha_rates(0.1, 0.5, 0.1, 0.6);
  const auto bounds = uniform_alpha_bounds(0.1, 0.5, 0.1, 0.6);
  HeterogeneousEdgeMEG meg(16, sampler, 23, MegStorage::kSparse, bounds);
  EXPECT_EQ(meg.num_rate_classes(), 1u);
  for (std::size_t t = 0; t < 300; ++t) {
    EdgeList edges;
    for (NodeId i = 0; i + 1 < 16; ++i) {
      for (NodeId j = i + 1; j < 16; ++j) {
        if (meg.edge_on(i, j)) edges.emplace_back(i, j);
      }
    }
    ASSERT_EQ(meg.snapshot().edges(), edges) << "step " << t;
    meg.step();
  }
}

// Sparse and dense draw their per-pair rates through *different* streams
// (counter-based vs sequential), so the two engines hold different —
// equally legitimate — iid rate realizations, and raw count comparison
// would be dominated by that assignment noise.  The sharp per-step test
// instead holds each engine to the analytic flip law of ITS OWN realized
// rates (queried through edge_rates): stationary on-frequency must match
// mean alpha_e, the per-pair-step birth rate mean (1 - alpha_e) p_e, and
// the death rate mean alpha_e q_e.  A biased thinning draw, a biased
// complement selection, or a wrong envelope all break these directly.
void expect_flip_law_matches_rates(HeterogeneousEdgeMEG& meg,
                                   const char* what) {
  constexpr std::size_t kSteps = 800;
  const auto n = static_cast<NodeId>(meg.num_nodes());
  const std::size_t pairs = pair_count(n);
  double expect_on = 0.0, expect_birth = 0.0, expect_death = 0.0;
  for (NodeId i = 0; i + 1 < n; ++i) {
    for (NodeId j = i + 1; j < n; ++j) {
      const TwoStateParams r = meg.edge_rates(i, j);
      const double alpha = r.birth_rate / (r.birth_rate + r.death_rate);
      expect_on += alpha;
      expect_birth += (1.0 - alpha) * r.birth_rate;
      expect_death += alpha * r.death_rate;
    }
  }
  expect_on /= static_cast<double>(pairs);
  expect_birth /= static_cast<double>(pairs);
  expect_death /= static_cast<double>(pairs);

  const FlipCounts got =
      count_flips(pairs, kSteps, [&](std::vector<char>& out) {
        std::size_t e = 0;
        for (NodeId i = 0; i + 1 < n; ++i) {
          for (NodeId j = i + 1; j < n; ++j, ++e) out[e] = meg.edge_on(i, j);
        }
        meg.step();
      });
  const auto denom = static_cast<double>(got.pair_steps);
  // On-observations are autocorrelated across steps (a pair decorrelates
  // over ~1/(p+q) steps), so the on-frequency bound carries an extra
  // effective-sample-size factor; individual flip events are conditionally
  // independent given the state, so births/deaths use the plain bound.
  constexpr double kAutocorr = 10.0;
  const double se_on =
      std::sqrt(std::max(expect_on * (1.0 - expect_on), 1e-12) * kAutocorr /
                denom);
  EXPECT_NEAR(static_cast<double>(got.on_observations) / denom, expect_on,
              8.0 * se_on + 1e-9)
      << what;
  const double se_birth =
      std::sqrt(std::max(expect_birth * (1.0 - expect_birth), 1e-12) / denom);
  EXPECT_NEAR(static_cast<double>(got.births) / denom, expect_birth,
              8.0 * se_birth + 1e-9)
      << what;
  const double se_death =
      std::sqrt(std::max(expect_death * (1.0 - expect_death), 1e-12) / denom);
  EXPECT_NEAR(static_cast<double>(got.deaths) / denom, expect_death,
              8.0 * se_death + 1e-9)
      << what;
}

TEST(SparseHeterogeneousEdgeMeg, FlipLawMatchesRealizedRatesUniformAlpha) {
  const auto sampler = uniform_alpha_rates(0.15, 0.45, 0.15, 0.5);
  const auto bounds = uniform_alpha_bounds(0.15, 0.45, 0.15, 0.5);
  HeterogeneousEdgeMEG sparse(16, sampler, 37, MegStorage::kSparse, bounds);
  expect_flip_law_matches_rates(sparse, "sparse uniform_alpha");
  // The dense engine must satisfy the identical law over its own rates —
  // the two storage modes are thereby equivalent in distribution.
  HeterogeneousEdgeMEG dense(16, sampler, 37);
  expect_flip_law_matches_rates(dense, "dense uniform_alpha");
}

TEST(SparseHeterogeneousEdgeMeg, FlipLawMatchesRealizedRatesTwoSpeed) {
  const auto sampler = two_speed_rates({0.25, 0.35}, 0.4, 0.2);
  const auto bounds = two_speed_bounds({0.25, 0.35}, 0.4, 0.2);
  HeterogeneousEdgeMEG sparse(16, sampler, 31, MegStorage::kSparse, bounds);
  expect_flip_law_matches_rates(sparse, "sparse two_speed");
  HeterogeneousEdgeMEG dense(16, sampler, 31);
  expect_flip_law_matches_rates(dense, "dense two_speed");
}

TEST(SparseHeterogeneousEdgeMeg, RatesAreSeedStableAndWithinBounds) {
  const auto sampler = uniform_alpha_rates(0.2, 0.5, 0.05, 0.25);
  const auto bounds = uniform_alpha_bounds(0.2, 0.5, 0.05, 0.25);
  HeterogeneousEdgeMEG meg(20, sampler, 11, MegStorage::kSparse, bounds);
  const TwoStateParams before = meg.edge_rates(3, 17);
  // reset() re-samples states with a new seed; the rate assignment is
  // part of the model identity and must not move.
  meg.reset(999);
  const TwoStateParams after = meg.edge_rates(3, 17);
  EXPECT_EQ(before.birth_rate, after.birth_rate);
  EXPECT_EQ(before.death_rate, after.death_rate);
  for (NodeId i = 0; i + 1 < 20; ++i) {
    for (NodeId j = i + 1; j < 20; ++j) {
      const TwoStateParams r = meg.edge_rates(i, j);
      ASSERT_LE(r.birth_rate, bounds.max_birth * (1.0 + 1e-9));
      ASSERT_LE(r.death_rate, bounds.max_death * (1.0 + 1e-9));
    }
  }
  // Theorem-1 inputs come from the declared law bounds.
  EXPECT_DOUBLE_EQ(meg.min_alpha(), bounds.min_alpha);
  EXPECT_DOUBLE_EQ(meg.max_alpha(), bounds.max_alpha);
  EXPECT_EQ(meg.max_mixing_time(), bounds.max_mixing);
}

TEST(SparseHeterogeneousEdgeMeg, RejectsUnsoundBounds) {
  const auto sampler = uniform_alpha_rates(0.2, 0.5, 0.05, 0.25);
  RateBounds bad;  // all-zero envelopes
  EXPECT_THROW(
      HeterogeneousEdgeMEG(16, sampler, 1, MegStorage::kSparse, bad),
      std::invalid_argument);
  // Envelopes that undercut the law: the first violating draw throws.
  RateBounds lying = uniform_alpha_bounds(0.2, 0.5, 0.05, 0.25);
  lying.max_birth *= 0.25;
  EXPECT_THROW(
      HeterogeneousEdgeMEG(16, sampler, 1, MegStorage::kSparse, lying),
      std::logic_error);
}

// ---------------------------------------------------------------------------
// Memory-regression guard at paper scale (util/resource.hpp; the numeric
// bound is skipped under sanitizers, whose shadow memory inflates RSS far
// past any honest budget — the construction/step paths still run)
// ---------------------------------------------------------------------------

TEST(SparseStorageMemory, GeneralEngineStepsAtPaperScaleUnderBudget) {
  // n = 32768: the dense engine would need ~4.8 GB (states_ + bucket
  // keys) before the first step — it is deliberately not constructed
  // here.  The sparse engine must build and step inside a small fraction
  // of that.  In the alpha ~ 8/n regime the minority map holds ~16/n of
  // the 5.4e8 pairs (~260k entries), so a 512 MiB peak-RSS budget for
  // the whole test process is generous while still 4x under the 2 GiB
  // acceptance line (and ~10x under the dense requirement).
  constexpr std::size_t kN = 32768;
  ASSERT_GT(GeneralEdgeMEG::dense_footprint_bytes(kN),
            std::uint64_t{2} << 30);
  const auto link = make_bursty_link(4.0 / kN, 0.5, 0.5);
  GeneralEdgeMEG meg(kN, link.chain, link.chi, 1, MegStorage::kSparse);
  ASSERT_EQ(meg.storage(), MegStorage::kSparse);
  const std::size_t t0_edges = meg.snapshot().num_edges();
  EXPECT_GT(t0_edges, 0u);
  for (int t = 0; t < 3; ++t) meg.step();
  EXPECT_GT(meg.snapshot().num_edges(), 0u);
  if (const std::uint64_t peak = peak_rss_bytes();
      peak > 0 && rss_guard_reliable()) {
    EXPECT_LT(peak, std::uint64_t{512} << 20)
        << "sparse engine peak RSS regressed toward the dense footprint";
  }
}

TEST(SparseStorageMemory, HeterogeneousEngineStepsAtPaperScaleUnderBudget) {
  constexpr std::size_t kN = 32768;
  ASSERT_GT(HeterogeneousEdgeMEG::dense_footprint_bytes(kN),
            std::uint64_t{2} << 30);
  const double a = 8.0 / kN;
  const auto sampler = uniform_alpha_rates(0.2, 0.5, 0.5 * a, 1.5 * a);
  const auto bounds = uniform_alpha_bounds(0.2, 0.5, 0.5 * a, 1.5 * a);
  HeterogeneousEdgeMEG meg(kN, sampler, 1, MegStorage::kSparse, bounds);
  ASSERT_EQ(meg.storage(), MegStorage::kSparse);
  EXPECT_GT(meg.snapshot().num_edges(), 0u);
  for (int t = 0; t < 2; ++t) meg.step();
  EXPECT_GT(meg.snapshot().num_edges(), 0u);
  if (const std::uint64_t peak = peak_rss_bytes();
      peak > 0 && rss_guard_reliable()) {
    EXPECT_LT(peak, std::uint64_t{512} << 20)
        << "sparse engine peak RSS regressed toward the dense footprint";
  }
}

}  // namespace
}  // namespace megflood
