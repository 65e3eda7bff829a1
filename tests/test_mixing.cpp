// Unit tests for exact mixing-time computation, cross-validated against
// the two-state chain's closed form.

#include <gtest/gtest.h>

#include <cmath>

#include "graph/builders.hpp"
#include "markov/chain.hpp"
#include "markov/mixing.hpp"
#include "markov/two_state.hpp"

namespace megflood {
namespace {

TEST(MixingTime, MatchesTwoStateClosedForm) {
  for (const auto& [p, q] : {std::pair{0.1, 0.2}, {0.05, 0.05}, {0.5, 0.3}}) {
    const TwoStateChain ts({p, q});
    const std::size_t exact = mixing_time(ts.as_dense(), 0.25);
    EXPECT_EQ(exact, ts.mixing_time(0.25)) << "p=" << p << " q=" << q;
  }
}

TEST(MixingTime, FasterChainMixesFaster) {
  const auto slow = mixing_time(lazy_random_walk_chain(cycle_graph(16)));
  const auto fast = mixing_time(lazy_random_walk_chain(complete_graph(16)));
  EXPECT_LT(fast, slow);
}

TEST(MixingTime, SmallerEpsTakesLonger) {
  const DenseChain c = lazy_random_walk_chain(cycle_graph(10));
  EXPECT_LE(mixing_time(c, 0.25), mixing_time(c, 0.01));
}

TEST(MixingTime, ThrowsWhenBudgetTooSmall) {
  const DenseChain c = lazy_random_walk_chain(cycle_graph(32));
  EXPECT_THROW((void)mixing_time(c, 0.01, 2), std::runtime_error);
}

TEST(MixingTime, KAugmentedGridMixesFasterInK) {
  // The paper's Corollary 6 discussion: mixing time of the k-augmented
  // grid decreases (about quadratically) in k.
  const std::size_t side = 6;
  std::size_t prev = SIZE_MAX;
  for (std::size_t k = 1; k <= 3; ++k) {
    const auto tmix =
        mixing_time(lazy_random_walk_chain(k_augmented_grid(side, k)));
    EXPECT_LT(tmix, prev) << "k=" << k;
    prev = tmix;
  }
}

TEST(MixingTimeFromStarts, CornerStartBoundsGrid) {
  // On a grid, the corner is the extremal start: restricted-start mixing
  // from corners must equal the all-starts mixing time.
  const DenseChain c = lazy_random_walk_chain(grid_2d(4));
  const auto full = mixing_time(c);
  const auto corner = mixing_time_from_starts(c, {grid_index(4, 0, 0)});
  EXPECT_LE(corner, full);
  EXPECT_GE(corner, full / 2);  // corner is near-extremal
}

TEST(MixingTimeFromStarts, EmptyThrows) {
  const DenseChain c = lazy_random_walk_chain(cycle_graph(4));
  EXPECT_THROW((void)mixing_time_from_starts(c, {}), std::invalid_argument);
}

// Property: mixing time scales about quadratically with cycle length for
// lazy walks (T_mix ~ L^2).
TEST(MixingScaling, CycleQuadratic) {
  const auto t8 = static_cast<double>(
      mixing_time(lazy_random_walk_chain(cycle_graph(8))));
  const auto t16 = static_cast<double>(
      mixing_time(lazy_random_walk_chain(cycle_graph(16))));
  const double ratio = t16 / t8;
  EXPECT_GT(ratio, 2.5);
  EXPECT_LT(ratio, 6.0);
}

}  // namespace
}  // namespace megflood
