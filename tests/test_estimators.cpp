// Tests for the pairwise estimator against a model with known closed-form
// invariants.

#include <gtest/gtest.h>

#include "analysis/estimators.hpp"
#include "graph/builders.hpp"
#include "markov/chain.hpp"
#include "meg/edge_meg.hpp"
#include "meg/node_meg.hpp"

namespace megflood {
namespace {

TEST(EstimatePairwise, MatchesNodeMegInvariants) {
  const std::size_t k = 6;
  ExplicitNodeMEG meg(24, lazy_random_walk_chain(cycle_graph(k)),
                      cycle_proximity_connection(k, 1), 5);
  const auto exact = meg.invariants();
  const auto est = estimate_pairwise(meg, 300, 4, 128);
  EXPECT_NEAR(est.p_nm, exact.p_nm, 0.05);
  EXPECT_NEAR(est.p_nm2, exact.p_nm2, 0.05);
  EXPECT_NEAR(est.eta, exact.eta, 0.5);
}

TEST(EstimatePairwise, NeedsThreeNodes) {
  TwoStateEdgeMEG meg(2, {0.1, 0.1}, 1);
  EXPECT_THROW((void)estimate_pairwise(meg, 10, 1), std::invalid_argument);
}

}  // namespace
}  // namespace megflood
