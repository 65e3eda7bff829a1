// Robustness / failure-injection suite: every model and protocol at its
// smallest legal sizes and most extreme legal parameters, plus zero-budget
// flooding.  Guards the library against off-by-one and degenerate-case
// regressions that the statistical tests would never notice.

#include <gtest/gtest.h>

#include <memory>

#include "core/fixed_graphs.hpp"
#include "core/flooding.hpp"
#include "graph/builders.hpp"
#include "markov/chain.hpp"
#include "meg/clique_flicker.hpp"
#include "meg/edge_meg.hpp"
#include "meg/general_edge_meg.hpp"
#include "meg/heterogeneous_edge_meg.hpp"
#include "meg/node_meg.hpp"
#include "mobility/random_paths.hpp"
#include "mobility/random_trip.hpp"
#include "mobility/random_walk.hpp"
#include "protocols/gossip.hpp"
#include "protocols/k_push.hpp"
#include "protocols/ttl_flooding.hpp"

namespace megflood {
namespace {

TEST(SmallInstances, TwoNodeEdgeMeg) {
  TwoStateEdgeMEG meg(2, {0.5, 0.5}, 1);
  EXPECT_EQ(meg.num_pairs(), 1u);
  const FloodResult r = flood(meg, 0, 1000);
  EXPECT_TRUE(r.completed);
  EXPECT_GE(r.rounds, 1u);
}

TEST(SmallInstances, TwoNodeEdgeMegExtremeRates) {
  // p = 1: the edge exists every step after the first.
  TwoStateEdgeMEG always(2, {1.0, 0.0}, 2, EdgeMegInit::kAllOff);
  const FloodResult r = flood(always, 1, 10);
  EXPECT_TRUE(r.completed);
  EXPECT_LE(r.rounds, 2u);
}

TEST(SmallInstances, ZeroRoundBudget) {
  TwoStateEdgeMEG meg(4, {0.5, 0.5}, 3);
  const FloodResult r = flood(meg, 0, 0);
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.rounds, 0u);
  EXPECT_EQ(r.informed_counts.size(), 1u);
}

TEST(SmallInstances, SingleNodeGraphFloodsInstantly) {
  FixedDynamicGraph d(Graph(1));
  const FloodResult r = flood(d, 0, 0);
  EXPECT_TRUE(r.completed);
}

TEST(SmallInstances, GeneralEdgeMegTwoNodes) {
  auto link = make_bursty_link(0.5, 0.5, 0.5);
  GeneralEdgeMEG meg(2, link.chain, link.chi, 5);
  const FloodResult r = flood(meg, 0, 10000);
  EXPECT_TRUE(r.completed);
}

TEST(SmallInstances, NodeMegTwoNodesTwoStates) {
  const DenseChain chain({{0.5, 0.5}, {0.5, 0.5}});
  ExplicitNodeMEG meg(2, chain, same_state_connection(2), 7);
  const FloodResult r = flood(meg, 0, 10000);
  EXPECT_TRUE(r.completed);
}

TEST(SmallInstances, HeterogeneousTwoNodes) {
  HeterogeneousEdgeMEG meg(2, two_speed_rates({0.5, 0.5}, 0.5, 0.5), 9);
  const FloodResult r = flood(meg, 0, 10000);
  EXPECT_TRUE(r.completed);
}

TEST(SmallInstances, CliqueFlickerMinimal) {
  CliqueFlickerGraph g(2, 2, 1.0, 11);
  EXPECT_EQ(g.snapshot().num_edges(), 1u);  // rho = 1: always the clique
  const FloodResult r = flood(g, 0, 10);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.rounds, 1u);
}

TEST(SmallInstances, RandomWalkTwoAgentsTinyGraph) {
  const auto g = std::make_shared<const Graph>(path_graph(2));
  RandomWalkModel model(g, 2, {}, 13);
  const FloodResult r = flood(model, 0, 100000);
  EXPECT_TRUE(r.completed);
}

TEST(SmallInstances, WaypointTwoAgentsMinResolution) {
  WaypointParams p;
  p.side_length = 1.0;
  p.v_min = 0.2;
  p.v_max = 0.4;
  p.radius = 0.5;
  p.resolution = 2;  // the minimum legal grid
  const auto model = make_random_waypoint(2, p, 15);
  const FloodResult r = flood(*model, 0, 100000);
  EXPECT_TRUE(r.completed);
}

TEST(SmallInstances, GridLPathsMinimalSide) {
  GridLPathsModel model(2, 2, 1, 17);
  const FloodResult r = flood(model, 0, 100000);
  EXPECT_TRUE(r.completed);
}

TEST(SmallInstances, ExplicitPathsTwoAgentsOnEdgeFamily) {
  const auto g = std::make_shared<const Graph>(cycle_graph(3));
  ExplicitPathsModel model(g, edges_path_family(*g), 2, 19);
  const FloodResult r = flood(model, 0, 100000);
  EXPECT_TRUE(r.completed);
}

TEST(SmallInstances, RandomTripTwoAgents) {
  auto policy = std::make_shared<SquareWaypointPolicy>(1.0, 0.2, 0.4);
  RandomTripModel model(2, policy, 0.5, 4, 21);
  const FloodResult r = flood(model, 0, 100000);
  EXPECT_TRUE(r.completed);
}

TEST(SmallInstances, ProtocolsOnTwoNodes) {
  {
    TwoStateEdgeMEG meg(2, {0.5, 0.5}, 23);
    KPushProcess push(1);
    EXPECT_TRUE(run_process(meg, push, 0, 10000, 1).flood.completed);
  }
  {
    TwoStateEdgeMEG meg(2, {0.5, 0.5}, 23);
    GossipProcess push_pull(GossipMode::kPushPull);
    EXPECT_TRUE(run_process(meg, push_pull, 0, 10000, 1).flood.completed);
  }
  {
    TwoStateEdgeMEG meg(2, {0.5, 0.5}, 23);
    TtlFloodingProcess ttl(1000);
    EXPECT_TRUE(run_process(meg, ttl, 0, 10000, 0).flood.completed);
  }
}

TEST(SmallInstances, AllSourcesOnTinyDynamicGraph) {
  TwoStateEdgeMEG meg(3, {0.5, 0.5}, 25);
  const AllSourcesResult all = flood_all_sources(meg, 10000);
  EXPECT_TRUE(all.all_completed);
  EXPECT_EQ(all.per_source.size(), 3u);
  EXPECT_LE(all.min_rounds, all.max_rounds);
}

// Parameterized stress: flooding terminates (completed or budget-bounded)
// without crashing across a grid of extreme edge-MEG parameters.
class ExtremeParams
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(ExtremeParams, EdgeMegNeverCrashes) {
  const auto [p, q] = GetParam();
  TwoStateEdgeMEG meg(16, {p, q}, 31);
  const FloodResult r = flood(meg, 0, 2000);
  EXPECT_EQ(r.informed_counts.size() - 1, std::min<std::uint64_t>(
      r.completed ? r.rounds : 2000, 2000));
  if (p >= 0.5) {
    EXPECT_TRUE(r.completed);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ExtremeParams,
    ::testing::Values(std::pair{1.0, 1.0}, std::pair{1.0, 0.0},
                      std::pair{1e-4, 1.0}, std::pair{0.5, 1e-4},
                      std::pair{1e-4, 1e-4}));

}  // namespace
}  // namespace megflood
