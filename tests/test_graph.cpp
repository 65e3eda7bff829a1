// Unit and property tests for the static graph substrate and builders.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "graph/builders.hpp"
#include "graph/graph.hpp"

namespace megflood {
namespace {

TEST(Graph, EmptyGraph) {
  Graph g(5);
  EXPECT_EQ(g.num_vertices(), 5u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_FALSE(g.has_edge(0, 1));
}

TEST(Graph, AddEdgeSymmetric) {
  Graph g(3);
  EXPECT_TRUE(g.add_edge(0, 2));
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_TRUE(g.has_edge(2, 0));
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(2), 1u);
  EXPECT_EQ(g.degree(1), 0u);
}

TEST(Graph, RejectsSelfLoopsAndDuplicates) {
  Graph g(3);
  EXPECT_FALSE(g.add_edge(1, 1));
  EXPECT_TRUE(g.add_edge(0, 1));
  EXPECT_FALSE(g.add_edge(1, 0));
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(Graph, NeighborsSorted) {
  Graph g(5);
  g.add_edge(2, 4);
  g.add_edge(2, 0);
  g.add_edge(2, 3);
  const auto& nbrs = g.neighbors(2);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  EXPECT_EQ(nbrs.size(), 3u);
}

TEST(Graph, EdgesListedOnce) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  g.add_edge(1, 3);
  const auto edges = g.edges();
  EXPECT_EQ(edges.size(), 3u);
  for (const auto& [u, v] : edges) EXPECT_LT(u, v);
}

TEST(Graph, OutOfRangeThrows) {
  Graph g(2);
  EXPECT_THROW(g.add_edge(0, 2), std::out_of_range);
  EXPECT_THROW((void)g.neighbors(5), std::out_of_range);
}

TEST(Builders, PathGraph) {
  const Graph g = path_graph(5);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(2), 2u);
  EXPECT_TRUE(g.has_edge(3, 4));
  EXPECT_FALSE(g.has_edge(0, 2));
}

TEST(Builders, CycleGraph) {
  const Graph g = cycle_graph(5);
  EXPECT_EQ(g.num_edges(), 5u);
  for (VertexId v = 0; v < 5; ++v) EXPECT_EQ(g.degree(v), 2u);
  EXPECT_TRUE(g.has_edge(4, 0));
}

TEST(Builders, CompleteGraph) {
  const Graph g = complete_graph(6);
  EXPECT_EQ(g.num_edges(), 15u);
  for (VertexId v = 0; v < 6; ++v) EXPECT_EQ(g.degree(v), 5u);
}

TEST(Builders, StarGraph) {
  const Graph g = star_graph(5);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.degree(0), 4u);
  EXPECT_EQ(g.degree(3), 1u);
}

TEST(Builders, Grid2D) {
  const Graph g = grid_2d(3);
  EXPECT_EQ(g.num_vertices(), 9u);
  EXPECT_EQ(g.num_edges(), 12u);  // 2 * 3 * 2 per direction
  EXPECT_EQ(g.degree(grid_index(3, 1, 1)), 4u);  // center
  EXPECT_EQ(g.degree(grid_index(3, 0, 0)), 2u);  // corner
  EXPECT_TRUE(g.has_edge(grid_index(3, 0, 0), grid_index(3, 0, 1)));
  EXPECT_FALSE(g.has_edge(grid_index(3, 0, 0), grid_index(3, 1, 1)));
}

TEST(Builders, Torus2D) {
  const Graph g = torus_2d(4);
  EXPECT_EQ(g.num_vertices(), 16u);
  EXPECT_EQ(g.num_edges(), 32u);
  for (VertexId v = 0; v < 16; ++v) EXPECT_EQ(g.degree(v), 4u);
  EXPECT_TRUE(g.has_edge(grid_index(4, 0, 0), grid_index(4, 0, 3)));
  EXPECT_TRUE(g.has_edge(grid_index(4, 0, 0), grid_index(4, 3, 0)));
}

TEST(Builders, KAugmentedGridK1IsGrid) {
  const Graph a = k_augmented_grid(4, 1);
  const Graph b = grid_2d(4);
  EXPECT_EQ(a.num_edges(), b.num_edges());
  for (const auto& [u, v] : b.edges()) EXPECT_TRUE(a.has_edge(u, v));
}

TEST(Builders, KAugmentedGridK2AddsDiagonalAndDist2) {
  const Graph g = k_augmented_grid(4, 2);
  // L1 distance 2: diagonal and straight-2 neighbors must exist.
  EXPECT_TRUE(g.has_edge(grid_index(4, 0, 0), grid_index(4, 1, 1)));
  EXPECT_TRUE(g.has_edge(grid_index(4, 0, 0), grid_index(4, 0, 2)));
  EXPECT_TRUE(g.has_edge(grid_index(4, 0, 0), grid_index(4, 2, 0)));
  EXPECT_FALSE(g.has_edge(grid_index(4, 0, 0), grid_index(4, 2, 1)));  // L1=3
}

TEST(Builders, KAugmentedGridCenterDegree) {
  // Interior point of a large grid: |{(dr,dc): 1 <= |dr|+|dc| <= k}| =
  // 2k(k+1) for the L1 ball.
  const std::size_t k = 3;
  const Graph g = k_augmented_grid(9, k);
  EXPECT_EQ(g.degree(grid_index(9, 4, 4)), 2 * k * (k + 1));
}

TEST(Builders, KAugmentedTorusIsRegular) {
  for (std::size_t k = 1; k <= 3; ++k) {
    const Graph g = k_augmented_torus(9, k);
    const DegreeStats s = degree_stats(g);
    EXPECT_EQ(s.min, s.max) << "k=" << k;
    EXPECT_EQ(s.max, 2 * k * (k + 1)) << "k=" << k;
    EXPECT_DOUBLE_EQ(s.regularity_delta, 1.0);
  }
}

TEST(Builders, KAugmentedTorusK1IsTorus) {
  const Graph a = k_augmented_torus(5, 1);
  const Graph b = torus_2d(5);
  EXPECT_EQ(a.num_edges(), b.num_edges());
  for (const auto& [u, v] : b.edges()) EXPECT_TRUE(a.has_edge(u, v));
}

TEST(Builders, KAugmentedTorusWrapsAtDistanceK) {
  const Graph g = k_augmented_torus(9, 2);
  // (0,0) connects to (8,8): wrapped L1 distance 1+1 = 2.
  EXPECT_TRUE(g.has_edge(grid_index(9, 0, 0), grid_index(9, 8, 8)));
  // (0,0) to (7,8): wrapped distance 2+1 = 3 > 2.
  EXPECT_FALSE(g.has_edge(grid_index(9, 0, 0), grid_index(9, 7, 8)));
}

TEST(DegreeStats, RegularGraph) {
  const DegreeStats s = degree_stats(cycle_graph(8));
  EXPECT_EQ(s.min, 2u);
  EXPECT_EQ(s.max, 2u);
  EXPECT_DOUBLE_EQ(s.mean, 2.0);
  EXPECT_DOUBLE_EQ(s.regularity_delta, 1.0);
}

TEST(DegreeStats, StarIsIrregular) {
  const DegreeStats s = degree_stats(star_graph(10));
  EXPECT_EQ(s.min, 1u);
  EXPECT_EQ(s.max, 9u);
  EXPECT_DOUBLE_EQ(s.regularity_delta, 9.0);
}

TEST(DegreeStats, IsolatedVertexGivesInfiniteDelta) {
  Graph g(3);
  g.add_edge(0, 1);
  const DegreeStats s = degree_stats(g);
  EXPECT_TRUE(std::isinf(s.regularity_delta));
}

// Property: k-augmented grids have monotonically growing edge sets in k.
class KAugmentedMonotone : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KAugmentedMonotone, EdgesGrowWithK) {
  const std::size_t side = GetParam();
  std::size_t prev = 0;
  for (std::size_t k = 1; k <= 3; ++k) {
    const Graph g = k_augmented_grid(side, k);
    EXPECT_GT(g.num_edges(), prev);
    prev = g.num_edges();
  }
}

INSTANTIATE_TEST_SUITE_P(Sides, KAugmentedMonotone,
                         ::testing::Values(4, 5, 8));

}  // namespace
}  // namespace megflood
