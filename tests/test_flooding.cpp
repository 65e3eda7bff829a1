// Tests for the flooding process semantics (Section 2 of the paper):
// exactly one hop of spread per round, I_t monotone, F(G,s) on known
// topologies, and the phase split used by experiment E9.

#include <gtest/gtest.h>

#include "core/fixed_graphs.hpp"
#include "core/bitwords.hpp"
#include "core/flooding.hpp"
#include "graph/algorithms.hpp"
#include "graph/builders.hpp"
#include "mobility/colocation.hpp"
#include "util/rng.hpp"

namespace megflood {
namespace {

TEST(Flood, SingleNodeCompletesInstantly) {
  FixedDynamicGraph d(Graph(1));
  const FloodResult r = flood(d, 0, 10);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.rounds, 0u);
}

TEST(Flood, StaticGraphEqualsEccentricity) {
  // On a fixed graph, flooding from s takes exactly ecc(s) rounds.
  const Graph g = path_graph(6);
  for (VertexId s = 0; s < 6; ++s) {
    FixedDynamicGraph d(g);
    const FloodResult r = flood(d, s, 100);
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.rounds, eccentricity(g, s)) << "source " << s;
  }
}

TEST(Flood, CompleteGraphOneRound) {
  FixedDynamicGraph d(complete_graph(8));
  const FloodResult r = flood(d, 3, 10);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.rounds, 1u);
}

TEST(Flood, NoChainingWithinARound) {
  // Path 0-1-2: from source 0 the spread must take 2 rounds, not 1.
  FixedDynamicGraph d(path_graph(3));
  const FloodResult r = flood(d, 0, 10);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.rounds, 2u);
  ASSERT_EQ(r.informed_counts.size(), 3u);
  EXPECT_EQ(r.informed_counts[0], 1u);
  EXPECT_EQ(r.informed_counts[1], 2u);
  EXPECT_EQ(r.informed_counts[2], 3u);
}

TEST(Flood, TrajectoryMonotone) {
  FixedDynamicGraph d(grid_2d(4));
  const FloodResult r = flood(d, 0, 100);
  ASSERT_TRUE(r.completed);
  for (std::size_t t = 1; t < r.informed_counts.size(); ++t) {
    EXPECT_GE(r.informed_counts[t], r.informed_counts[t - 1]);
  }
  EXPECT_EQ(r.informed_counts.back(), 16u);
}

TEST(Flood, DisconnectedNeverCompletes) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  FixedDynamicGraph d(g);
  const FloodResult r = flood(d, 0, 50);
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.rounds, 50u);
  EXPECT_EQ(r.informed_counts.back(), 2u);
}

TEST(Flood, BadSourceThrows) {
  FixedDynamicGraph d(path_graph(3));
  EXPECT_THROW((void)flood(d, 3, 10), std::out_of_range);
}

TEST(Flood, UsesChangingEdges) {
  // Edges appear one per step: 0-1 at t=0, 1-2 at t=1, 2-3 at t=2.
  std::vector<Snapshot> script;
  for (int e = 0; e < 3; ++e) {
    Snapshot s(4);
    s.add_edge(static_cast<NodeId>(e), static_cast<NodeId>(e + 1));
    script.push_back(std::move(s));
  }
  ScriptedDynamicGraph d(std::move(script));
  const FloodResult r = flood(d, 0, 10);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.rounds, 3u);
}

TEST(Flood, MissedEdgeDelaysSpread) {
  // The 1-2 edge exists only at t=0 when node 1 is not yet informed; the
  // information must wait for it to reappear at t=3.
  std::vector<Snapshot> script;
  {
    Snapshot s(3);
    s.add_edge(1, 2);
    script.push_back(std::move(s));
  }
  {
    Snapshot s(3);
    s.add_edge(0, 1);
    script.push_back(std::move(s));
  }
  script.emplace_back(3);  // nothing at t=2
  {
    Snapshot s(3);
    s.add_edge(1, 2);
    script.push_back(std::move(s));
  }
  ScriptedDynamicGraph d(std::move(script));
  const FloodResult r = flood(d, 0, 10);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.rounds, 4u);
}

// Path 0-1-2-3 revealed one edge per step: 0-1 at t = 0, 1-2 at t = 1,
// 2-3 from t = 2 on.  Flooding from 0 completes in exactly 3 rounds.
ScriptedDynamicGraph staircase() {
  std::vector<Snapshot> script;
  for (NodeId e = 0; e < 3; ++e) {
    Snapshot s(4);
    s.add_edge(e, e + 1);
    script.push_back(std::move(s));
  }
  return ScriptedDynamicGraph(std::move(script));
}

TEST(Flood, StepsOnlyBetweenRounds) {
  // Round t reads E_t and no step follows the last round: a completed
  // flood leaves time() at rounds - 1, a spent budget at max_rounds - 1,
  // and a run of at most one round never steps.
  {
    ScriptedDynamicGraph d = staircase();
    const FloodResult r = flood(d, 0, 10);
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.rounds, 3u);
    EXPECT_EQ(d.time(), 2u);
  }
  for (const std::uint64_t budget : {0u, 1u, 2u}) {
    ScriptedDynamicGraph d = staircase();
    const FloodResult r = flood(d, 0, budget);
    EXPECT_FALSE(r.completed);
    EXPECT_EQ(r.rounds, budget);
    EXPECT_EQ(d.time(), budget == 0 ? 0u : budget - 1) << "budget " << budget;
  }
  {
    FixedDynamicGraph d(complete_graph(5));
    EXPECT_EQ(flood(d, 0, 10).rounds, 1u);
    EXPECT_EQ(d.time(), 0u);
  }
  {
    FixedDynamicGraph d(Graph(1));
    EXPECT_EQ(flood(d, 0, 10).rounds, 0u);
    EXPECT_EQ(d.time(), 0u);
  }
}

TEST(FloodRound, ReportsNewlyInformed) {
  Snapshot s(4);
  s.add_edge(0, 1);
  s.add_edge(0, 2);
  std::vector<char> informed{1, 0, 0, 0};
  std::vector<NodeId> scratch;
  EXPECT_EQ(flood_round(s, informed, scratch), 2u);
  EXPECT_EQ(informed[1], 1);
  EXPECT_EQ(informed[2], 1);
  EXPECT_EQ(informed[3], 0);
}

TEST(FloodRound, IdempotentWhenSaturated) {
  Snapshot s(3);
  s.add_edge(0, 1);
  s.add_edge(1, 2);
  std::vector<char> informed{1, 1, 1};
  std::vector<NodeId> scratch;
  EXPECT_EQ(flood_round(s, informed, scratch), 0u);
}

// On the group form flood_round_words reads the groups, not the pairs:
// the next set must have the same bits as the round over the keys-form
// copy, from informed sets of every density.
TEST(FloodRoundWords, GroupsGiveTheBitsOfTheirPairs) {
  constexpr std::size_t kNodes = 500;
  Rng rng(3);
  for (const std::uint32_t points : {1u, 30u, 400u, 5000u}) {
    std::vector<std::uint32_t> point(kNodes);
    for (auto& p : point) p = static_cast<std::uint32_t>(rng.uniform_int(points));
    ColocationBuilder builder;
    Snapshot grouped(kNodes);
    builder.build(grouped, points,
                  [&point](std::uint32_t i) { return point[i]; });
    ASSERT_NE(grouped.groups(), nullptr);
    const Snapshot keyed = grouped;
    for (const std::uint64_t per_mille : {0u, 2u, 50u, 500u, 1000u}) {
      std::vector<std::uint64_t> cur(bit_words(kNodes), 0);
      for (std::size_t i = 0; i < kNodes; ++i) {
        if (rng.uniform_int(1000) < per_mille) set_bit(cur.data(), i);
      }
      std::vector<std::uint64_t> next_grouped = cur, next_keyed = cur;
      const std::size_t fresh_grouped =
          flood_round_words(grouped, cur.data(), next_grouped.data(), kNodes);
      const std::size_t fresh_keyed =
          flood_round_words(keyed, cur.data(), next_keyed.data(), kNodes);
      EXPECT_EQ(next_grouped, next_keyed)
          << points << " points, " << per_mille << " per mille";
      EXPECT_EQ(fresh_grouped, fresh_keyed);
    }
  }
}

TEST(SplitPhases, HalfPoint) {
  FloodResult r;
  r.completed = true;
  r.rounds = 4;
  r.informed_counts = {1, 2, 5, 7, 8};  // n = 8, half reached at t = 2
  const PhaseSplit split = split_phases(r, 8);
  EXPECT_EQ(split.spreading_rounds, 2u);
  EXPECT_EQ(split.saturation_rounds, 2u);
}

TEST(SplitPhases, IncompleteGivesZero) {
  FloodResult r;
  r.completed = false;
  const PhaseSplit split = split_phases(r, 8);
  EXPECT_EQ(split.spreading_rounds, 0u);
  EXPECT_EQ(split.saturation_rounds, 0u);
}

TEST(SplitPhases, OddN) {
  FloodResult r;
  r.completed = true;
  r.rounds = 2;
  r.informed_counts = {1, 3, 5};  // n = 5, half = 3 reached at t = 1
  const PhaseSplit split = split_phases(r, 5);
  EXPECT_EQ(split.spreading_rounds, 1u);
  EXPECT_EQ(split.saturation_rounds, 1u);
}

TEST(FloodAllSources, StaticGraphMatchesEccentricities) {
  const Graph g = path_graph(5);
  FixedDynamicGraph d(g);
  const AllSourcesResult all = flood_all_sources(d, 100);
  ASSERT_TRUE(all.all_completed);
  ASSERT_EQ(all.per_source.size(), 5u);
  for (VertexId s = 0; s < 5; ++s) {
    EXPECT_EQ(all.per_source[s].rounds, eccentricity(g, s)) << "s=" << s;
  }
  EXPECT_EQ(all.max_rounds, 4u);  // F(G) = diameter for static graphs
  EXPECT_EQ(all.min_rounds, 2u);  // radius
}

TEST(FloodAllSources, SingleNode) {
  FixedDynamicGraph d(Graph(1));
  const AllSourcesResult all = flood_all_sources(d, 10);
  ASSERT_TRUE(all.all_completed);
  EXPECT_EQ(all.max_rounds, 0u);
}

TEST(FloodAllSources, SharedRealizationConsistency) {
  // Every per-source flood runs on the same sample path: re-running the
  // model with the same seed and flooding one source manually must match
  // the corresponding per_source entry.
  std::vector<Snapshot> script;
  for (int e = 0; e < 4; ++e) {
    Snapshot s(5);
    s.add_edge(static_cast<NodeId>(e), static_cast<NodeId>(e + 1));
    script.push_back(std::move(s));
  }
  // Cycle so every edge recurs — otherwise sources far from the early
  // edges can never complete.
  ScriptedDynamicGraph a(script, /*cycle=*/true), b(script, /*cycle=*/true);
  const AllSourcesResult all = flood_all_sources(a, 50);
  const FloodResult solo = flood(b, 2, 50);
  ASSERT_TRUE(all.per_source[2].completed);
  ASSERT_TRUE(solo.completed);
  EXPECT_EQ(all.per_source[2].rounds, solo.rounds);
  EXPECT_EQ(all.per_source[2].informed_counts, solo.informed_counts);
}

TEST(FloodAllSources, IncompleteMarked) {
  Graph g(4);
  g.add_edge(0, 1);
  FixedDynamicGraph d(g);
  const AllSourcesResult all = flood_all_sources(d, 20);
  EXPECT_FALSE(all.all_completed);
  EXPECT_EQ(all.max_rounds, 20u);
}

TEST(FloodAllSources, NoSourceCompletesReportsBudget) {
  // Fully disconnected: nobody ever finishes.  min_rounds must not pose
  // as a radius — both aggregates are pinned to the budget and
  // completed_count says why.
  FixedDynamicGraph d(Graph(3));
  const AllSourcesResult all = flood_all_sources(d, 15);
  EXPECT_FALSE(all.all_completed);
  EXPECT_EQ(all.completed_count, 0u);
  EXPECT_EQ(all.min_rounds, 15u);
  EXPECT_EQ(all.max_rounds, 15u);
  for (const auto& r : all.per_source) {
    EXPECT_FALSE(r.completed);
    EXPECT_EQ(r.rounds, 15u);
  }
}

TEST(FloodAllSources, PartialCompletionAggregates) {
  // Edge 0-1 exists only at t = 0, then 1-2 repeats forever: sources 0
  // and 1 complete in 2 rounds, source 2 can never reach node 0.
  std::vector<Snapshot> script;
  {
    Snapshot s(3);
    s.add_edge(0, 1);
    script.push_back(std::move(s));
  }
  {
    Snapshot s(3);
    s.add_edge(1, 2);
    script.push_back(std::move(s));
  }
  ScriptedDynamicGraph d(std::move(script));  // holds {1-2} forever
  const AllSourcesResult all = flood_all_sources(d, 30);
  EXPECT_FALSE(all.all_completed);
  EXPECT_EQ(all.completed_count, 2u);
  EXPECT_TRUE(all.per_source[0].completed);
  EXPECT_TRUE(all.per_source[1].completed);
  EXPECT_FALSE(all.per_source[2].completed);
  // min_rounds covers completed sources only; max_rounds falls back to
  // the budget because F(G) is only bounded below on this realization.
  EXPECT_EQ(all.min_rounds, 2u);
  EXPECT_EQ(all.max_rounds, 30u);
  EXPECT_EQ(all.per_source[2].rounds, 30u);
}

TEST(FloodAllSources, CompletedCountFullGraph) {
  FixedDynamicGraph d(complete_graph(5));
  const AllSourcesResult all = flood_all_sources(d, 10);
  EXPECT_TRUE(all.all_completed);
  EXPECT_EQ(all.completed_count, 5u);
  EXPECT_EQ(all.min_rounds, 1u);
  EXPECT_EQ(all.max_rounds, 1u);
}

// Property: flooding time from every source on a fixed connected graph is
// between radius and diameter.
class FloodEccentricityProperty : public ::testing::TestWithParam<int> {};

TEST_P(FloodEccentricityProperty, WithinRadiusDiameter) {
  Graph g;
  switch (GetParam()) {
    case 0: g = cycle_graph(9); break;
    case 1: g = grid_2d(4); break;
    case 2: g = star_graph(7); break;
    default: g = complete_graph(5); break;
  }
  const std::size_t diam = diameter(g);
  for (VertexId s = 0; s < g.num_vertices(); ++s) {
    FixedDynamicGraph d(g);
    const FloodResult r = flood(d, s, 1000);
    ASSERT_TRUE(r.completed);
    EXPECT_LE(r.rounds, diam);
    EXPECT_GE(r.rounds, 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(Topologies, FloodEccentricityProperty,
                         ::testing::Range(0, 4));

}  // namespace
}  // namespace megflood
