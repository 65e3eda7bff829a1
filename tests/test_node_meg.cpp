// Tests for node-MEGs: connection maps, the exact Fact-2 invariants
// (P_NM, P_NM2, eta) and the explicit-chain dynamic graph.

#include <gtest/gtest.h>

#include <cmath>

#include "core/flooding.hpp"
#include "graph/builders.hpp"
#include "markov/chain.hpp"
#include "meg/node_meg.hpp"

namespace megflood {
namespace {

TEST(ConnectionMap, RejectsNonSquareAndAsymmetric) {
  EXPECT_THROW(ConnectionMap({{true}, {true, false}}), std::invalid_argument);
  EXPECT_THROW(ConnectionMap({{false, true}, {false, false}}),
               std::invalid_argument);
}

TEST(ConnectionMap, GammaSets) {
  const ConnectionMap c = same_state_connection(3);
  for (StateId s = 0; s < 3; ++s) {
    const auto g = c.gamma(s);
    ASSERT_EQ(g.size(), 1u);
    EXPECT_EQ(g[0], s);
  }
}

TEST(ConnectionFactories, CycleProximity) {
  const ConnectionMap c = cycle_proximity_connection(6, 1);
  EXPECT_TRUE(c.connected(0, 0));
  EXPECT_TRUE(c.connected(0, 1));
  EXPECT_TRUE(c.connected(0, 5));  // wraps
  EXPECT_FALSE(c.connected(0, 2));
  EXPECT_FALSE(c.connected(0, 3));
}

TEST(NodeMegInvariants, UniformSameState) {
  // Uniform pi over k states, connect iff same state:
  // q(x) = 1/k for all x, so P_NM = 1/k, P_NM2 = 1/k^2, eta = 1.
  const std::size_t k = 5;
  const std::vector<double> pi(k, 1.0 / static_cast<double>(k));
  const auto inv = node_meg_invariants(pi, same_state_connection(k));
  EXPECT_NEAR(inv.p_nm, 1.0 / 5.0, 1e-12);
  EXPECT_NEAR(inv.p_nm2, 1.0 / 25.0, 1e-12);
  EXPECT_NEAR(inv.eta, 1.0, 1e-12);
}

TEST(NodeMegInvariants, SkewedDistributionRaisesEta) {
  // Heavy mass on one state makes q(x) uneven -> eta > 1 for the map
  // where only state 0 is active (connects, to state 0 alone).
  const std::vector<double> pi{0.9, 0.05, 0.05};
  const ConnectionMap only_zero(
      {{true, false, false}, {false, false, false}, {false, false, false}});
  const auto inv = node_meg_invariants(pi, only_zero);
  // q(0) = 0.9, q(1) = q(2) = 0. P_NM = 0.81, P_NM2 = 0.9^3 = 0.729.
  EXPECT_NEAR(inv.p_nm, 0.81, 1e-12);
  EXPECT_NEAR(inv.p_nm2, 0.729, 1e-12);
  EXPECT_NEAR(inv.eta, 0.729 / (0.81 * 0.81), 1e-9);
}

TEST(NodeMegInvariants, ArityMismatchThrows) {
  EXPECT_THROW(
      (void)node_meg_invariants({0.5, 0.5}, same_state_connection(3)),
      std::invalid_argument);
}

DenseChain cycle_walk_chain(std::size_t k) {
  return lazy_random_walk_chain(cycle_graph(k));
}

TEST(ExplicitNodeMEG, ValidationErrors) {
  EXPECT_THROW(
      ExplicitNodeMEG(1, cycle_walk_chain(4), same_state_connection(4), 0),
      std::invalid_argument);
  EXPECT_THROW(
      ExplicitNodeMEG(4, cycle_walk_chain(4), same_state_connection(3), 0),
      std::invalid_argument);
}

TEST(ExplicitNodeMEG, SnapshotMatchesStates) {
  ExplicitNodeMEG meg(6, cycle_walk_chain(4), same_state_connection(4), 3);
  for (int t = 0; t < 5; ++t) {
    const Snapshot& snap = meg.snapshot();
    for (NodeId i = 0; i < 6; ++i) {
      for (NodeId j = static_cast<NodeId>(i + 1); j < 6; ++j) {
        EXPECT_EQ(snap.has_edge(i, j),
                  meg.node_state(i) == meg.node_state(j));
      }
    }
    meg.step();
  }
}

TEST(ExplicitNodeMEG, EmpiricalPnmMatchesInvariant) {
  const std::size_t k = 6;
  ExplicitNodeMEG meg(16, cycle_walk_chain(k),
                      cycle_proximity_connection(k, 1), 7);
  const auto inv = meg.invariants();
  // pi is uniform over the cycle, |Gamma(x)| = 3, so P_NM = 3/k.
  EXPECT_NEAR(inv.p_nm, 3.0 / static_cast<double>(k), 1e-9);
  // Measure the empirical pair-connection frequency of the fixed pair
  // (0, 1) across decorrelated snapshots.
  std::size_t hits = 0;
  constexpr int kSamples = 4000;
  for (int s = 0; s < kSamples; ++s) {
    for (int t = 0; t < 3; ++t) meg.step();
    if (meg.snapshot().has_edge(0, 1)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kSamples, inv.p_nm, 0.03);
}

TEST(ExplicitNodeMEG, SetAllStatesConnectsEveryone) {
  ExplicitNodeMEG meg(8, cycle_walk_chain(5), same_state_connection(5), 9);
  meg.set_all_states(2);
  EXPECT_EQ(meg.snapshot().num_edges(), 28u);  // complete graph on 8
  EXPECT_THROW(meg.set_all_states(99), std::out_of_range);
}

TEST(ExplicitNodeMEG, ResetReproduces) {
  ExplicitNodeMEG meg(10, cycle_walk_chain(6),
                      cycle_proximity_connection(6, 1), 11);
  std::vector<std::size_t> first;
  for (int t = 0; t < 8; ++t) {
    meg.step();
    first.push_back(meg.snapshot().num_edges());
  }
  meg.reset(11);
  for (int t = 0; t < 8; ++t) {
    meg.step();
    EXPECT_EQ(meg.snapshot().num_edges(), first[static_cast<std::size_t>(t)]);
  }
}

TEST(ExplicitNodeMEG, FloodingCompletes) {
  ExplicitNodeMEG meg(24, cycle_walk_chain(8),
                      cycle_proximity_connection(8, 1), 13);
  const FloodResult r = flood(meg, 0, 100000);
  EXPECT_TRUE(r.completed);
}

// Property: the exact invariants respect eta >= 1 for same-state
// connection over any stationary distribution (Cauchy-Schwarz).
class EtaLowerBound : public ::testing::TestWithParam<int> {};

TEST_P(EtaLowerBound, EtaAtLeastOne) {
  std::vector<double> pi;
  switch (GetParam()) {
    case 0: pi = {0.25, 0.25, 0.25, 0.25}; break;
    case 1: pi = {0.7, 0.1, 0.1, 0.1}; break;
    case 2: pi = {0.4, 0.3, 0.2, 0.1}; break;
    default: pi = {0.97, 0.01, 0.01, 0.01}; break;
  }
  const auto inv = node_meg_invariants(pi, same_state_connection(4));
  // P_NM2 = sum pi q^2 >= (sum pi q)^2 = P_NM^2 by Jensen.
  EXPECT_GE(inv.eta, 1.0 - 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Distributions, EtaLowerBound, ::testing::Range(0, 4));

}  // namespace
}  // namespace megflood
