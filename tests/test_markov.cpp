// Unit tests for dense Markov chains: validation, evolution, stationary
// distributions, irreducibility, and walk-chain construction.

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "graph/builders.hpp"
#include "markov/chain.hpp"
#include "util/rng.hpp"

namespace megflood {
namespace {

DenseChain two_state(double p, double q) {
  return DenseChain({{1.0 - p, p}, {q, 1.0 - q}});
}

TEST(DenseChain, RejectsNonSquare) {
  EXPECT_THROW(DenseChain({{1.0}, {0.5, 0.5}}), std::invalid_argument);
}

TEST(DenseChain, RejectsBadRowSum) {
  EXPECT_THROW(DenseChain({{0.5, 0.4}, {0.5, 0.5}}), std::invalid_argument);
}

TEST(DenseChain, RejectsNegative) {
  EXPECT_THROW(DenseChain({{1.5, -0.5}, {0.5, 0.5}}), std::invalid_argument);
}

TEST(DenseChain, EvolvePreservesMass) {
  const DenseChain c = two_state(0.3, 0.7);
  const auto mu = c.evolve({0.2, 0.8});
  EXPECT_NEAR(mu[0] + mu[1], 1.0, 1e-12);
}

TEST(DenseChain, EvolveKnownStep) {
  const DenseChain c = two_state(0.5, 0.25);
  const auto mu = c.evolve({1.0, 0.0});
  EXPECT_DOUBLE_EQ(mu[0], 0.5);
  EXPECT_DOUBLE_EQ(mu[1], 0.5);
}

TEST(DenseChain, StationaryTwoState) {
  const double p = 0.2, q = 0.3;
  const auto pi = two_state(p, q).stationary();
  EXPECT_NEAR(pi[1], p / (p + q), 1e-9);
  EXPECT_NEAR(pi[0], q / (p + q), 1e-9);
}

TEST(DenseChain, StationaryIsFixed) {
  const DenseChain c({{0.9, 0.1, 0.0},
                      {0.05, 0.9, 0.05},
                      {0.0, 0.2, 0.8}});
  const auto pi = c.stationary();
  const auto next = c.evolve(pi);
  for (std::size_t i = 0; i < pi.size(); ++i) {
    EXPECT_NEAR(pi[i], next[i], 1e-9);
  }
}

TEST(DenseChain, StationaryUniformForSymmetric) {
  const DenseChain c = lazy_random_walk_chain(cycle_graph(6));
  const auto pi = c.stationary();
  for (double mass : pi) EXPECT_NEAR(mass, 1.0 / 6.0, 1e-9);
}

TEST(DenseChain, SampleNextRespectsRow) {
  const DenseChain c = two_state(1.0, 0.0);  // off always -> on, on absorbing
  Rng rng(3);
  EXPECT_EQ(c.sample_next(0, rng), 1u);
  EXPECT_EQ(c.sample_next(1, rng), 1u);
}

TEST(DenseChain, SampleNextFrequencies) {
  const DenseChain c = two_state(0.25, 0.5);
  Rng rng(4);
  int to_on = 0;
  constexpr int kDraws = 40000;
  for (int i = 0; i < kDraws; ++i) {
    if (c.sample_next(0, rng) == 1) ++to_on;
  }
  EXPECT_NEAR(to_on / static_cast<double>(kDraws), 0.25, 0.01);
}

TEST(DenseChain, SampleFromDistribution) {
  Rng rng(5);
  const std::vector<double> dist{0.0, 1.0, 0.0};
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(DenseChain::sample_from(dist, rng), 1u);
  }
}

TEST(DenseChain, IrreducibleCases) {
  EXPECT_TRUE(two_state(0.1, 0.1).is_irreducible());
  // Absorbing state 1 -> not irreducible.
  EXPECT_FALSE(two_state(0.5, 0.0).is_irreducible());
  // Disconnected pair of states.
  const DenseChain split({{1.0, 0.0}, {0.0, 1.0}});
  EXPECT_FALSE(split.is_irreducible());
}

TEST(DenseChain, LazyHalvesTransitions) {
  const DenseChain c = two_state(0.4, 0.2).lazy();
  EXPECT_DOUBLE_EQ(c.transition(0, 1), 0.2);
  EXPECT_DOUBLE_EQ(c.transition(0, 0), 0.8);
  EXPECT_DOUBLE_EQ(c.transition(1, 0), 0.1);
}

TEST(DenseChain, LazyPreservesStationary) {
  const DenseChain c = two_state(0.3, 0.6);
  const auto pi = c.stationary();
  const auto pi_lazy = c.lazy().stationary();
  for (std::size_t i = 0; i < pi.size(); ++i) {
    EXPECT_NEAR(pi[i], pi_lazy[i], 1e-8);
  }
}

TEST(LazyRandomWalkChain, RowsFromDegrees) {
  const Graph g = star_graph(4);  // hub 0, leaves 1..3
  const DenseChain c = lazy_random_walk_chain(g);
  EXPECT_DOUBLE_EQ(c.transition(0, 0), 0.5);
  EXPECT_NEAR(c.transition(0, 1), 1.0 / 6.0, 1e-12);
  EXPECT_DOUBLE_EQ(c.transition(1, 0), 0.5);
  EXPECT_DOUBLE_EQ(c.transition(1, 2), 0.0);
}

TEST(LazyRandomWalkChain, IsolatedVertexSelfLoops) {
  Graph g(3);
  g.add_edge(0, 1);
  const DenseChain c = lazy_random_walk_chain(g);
  EXPECT_DOUBLE_EQ(c.transition(2, 2), 1.0);
}

TEST(LazyRandomWalkChain, StationaryProportionalToDegree) {
  const Graph g = star_graph(5);  // degrees: 4,1,1,1,1 -> pi = 1/2, 1/8 x4
  const auto pi = lazy_random_walk_chain(g).stationary();
  EXPECT_NEAR(pi[0], 0.5, 1e-8);
  for (std::size_t v = 1; v < 5; ++v) EXPECT_NEAR(pi[v], 0.125, 1e-8);
}

TEST(DenseChain, StationaryConvergesOnPeriodicChains) {
  // Non-lazy walks on bipartite graphs are periodic; the damped power
  // iteration must still converge to the degree-proportional vector.
  const double third = 1.0 / 3.0;
  const DenseChain star({{0.0, third, third, third},  // hub 0, 3 leaves
                         {1.0, 0.0, 0.0, 0.0},
                         {1.0, 0.0, 0.0, 0.0},
                         {1.0, 0.0, 0.0, 0.0}});
  const DenseChain cycle({{0.0, 0.5, 0.0, 0.5},  // the 4-cycle
                          {0.5, 0.0, 0.5, 0.0},
                          {0.0, 0.5, 0.0, 0.5},
                          {0.5, 0.0, 0.5, 0.0}});
  const std::vector<std::pair<const DenseChain*, std::vector<double>>> cases =
      {{&star, {0.5, 1.0 / 6.0, 1.0 / 6.0, 1.0 / 6.0}},
       {&cycle, {0.25, 0.25, 0.25, 0.25}}};
  for (const auto& [chain, expected] : cases) {
    const auto pi = chain->stationary();
    for (std::size_t v = 0; v < expected.size(); ++v) {
      EXPECT_NEAR(pi[v], expected[v], 1e-7) << "state " << v;
    }
  }
}

// Property: stationary distribution of lazy walk chains over several
// topologies sums to 1 and is fixed under evolution.
class StationaryProperty : public ::testing::TestWithParam<int> {};

TEST_P(StationaryProperty, FixedPointAndNormalized) {
  Graph g;
  switch (GetParam()) {
    case 0: g = path_graph(7); break;
    case 1: g = cycle_graph(9); break;
    case 2: g = grid_2d(4); break;
    case 3: g = star_graph(6); break;
    default: g = complete_graph(5); break;
  }
  const DenseChain c = lazy_random_walk_chain(g);
  const auto pi = c.stationary();
  double sum = 0.0;
  for (double mass : pi) sum += mass;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  const auto next = c.evolve(pi);
  for (std::size_t i = 0; i < pi.size(); ++i) {
    EXPECT_NEAR(pi[i], next[i], 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(Topologies, StationaryProperty,
                         ::testing::Range(0, 5));

}  // namespace
}  // namespace megflood
