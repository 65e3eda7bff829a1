// Unit tests for BFS-based algorithms: distances, components, diameter,
// and the hop balls the mobility models are built on.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/algorithms.hpp"
#include "graph/builders.hpp"

namespace megflood {
namespace {

TEST(BfsDistances, PathGraph) {
  const Graph g = path_graph(5);
  const auto d = bfs_distances(g, 0);
  for (std::uint32_t i = 0; i < 5; ++i) EXPECT_EQ(d[i], i);
}

TEST(BfsDistances, DisconnectedMarksUnreachable) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  const auto d = bfs_distances(g, 0);
  EXPECT_EQ(d[1], 1u);
  EXPECT_EQ(d[2], kUnreachable);
  EXPECT_EQ(d[3], kUnreachable);
}

TEST(BfsDistances, GridManhattan) {
  const Graph g = grid_2d(4);
  const auto d = bfs_distances(g, grid_index(4, 0, 0));
  EXPECT_EQ(d[grid_index(4, 3, 3)], 6u);
  EXPECT_EQ(d[grid_index(4, 2, 1)], 3u);
}

TEST(ConnectedComponents, SingleComponent) {
  const Components c = connected_components(cycle_graph(6));
  EXPECT_EQ(c.count, 1u);
  EXPECT_EQ(c.largest_size, 6u);
}

TEST(ConnectedComponents, MultipleComponents) {
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(3, 4);
  const Components c = connected_components(g);
  EXPECT_EQ(c.count, 3u);  // {0,1,2}, {3,4}, {5}
  EXPECT_EQ(c.largest_size, 3u);
  EXPECT_EQ(c.component_of[0], c.component_of[2]);
  EXPECT_NE(c.component_of[0], c.component_of[3]);
}

TEST(IsConnected, Cases) {
  EXPECT_TRUE(is_connected(complete_graph(4)));
  EXPECT_TRUE(is_connected(Graph(1)));
  EXPECT_TRUE(is_connected(Graph(0)));
  Graph g(3);
  g.add_edge(0, 1);
  EXPECT_FALSE(is_connected(g));
}

TEST(Diameter, KnownValues) {
  EXPECT_EQ(diameter(path_graph(6)), 5u);
  EXPECT_EQ(diameter(cycle_graph(6)), 3u);
  EXPECT_EQ(diameter(complete_graph(7)), 1u);
  EXPECT_EQ(diameter(grid_2d(4)), 6u);
  EXPECT_EQ(diameter(star_graph(8)), 2u);
}

TEST(Diameter, DisconnectedThrows) {
  Graph g(3);
  g.add_edge(0, 1);
  EXPECT_THROW((void)diameter(g), std::invalid_argument);
}

TEST(Diameter, KAugmentedShrinksByK) {
  // Diameter of the k-augmented s-grid is ceil(2(s-1)/k).
  const std::size_t s = 7;
  for (std::size_t k = 1; k <= 3; ++k) {
    const std::size_t expected = (2 * (s - 1) + k - 1) / k;
    EXPECT_EQ(diameter(k_augmented_grid(s, k)), expected) << "k=" << k;
  }
}

TEST(Eccentricity, CenterVsCorner) {
  const Graph g = grid_2d(5);
  EXPECT_EQ(eccentricity(g, grid_index(5, 2, 2)), 4u);
  EXPECT_EQ(eccentricity(g, grid_index(5, 0, 0)), 8u);
}

TEST(Ball, RadiusZeroEmpty) {
  const Graph g = cycle_graph(5);
  EXPECT_TRUE(ball(g, 0, 0).empty());
}

TEST(Ball, RadiusOneIsNeighbors) {
  const Graph g = grid_2d(3);
  const auto b = ball(g, grid_index(3, 1, 1), 1);
  EXPECT_EQ(b.size(), 4u);
}

TEST(Ball, RadiusTwoOnPath) {
  const Graph g = path_graph(7);
  const auto b = ball(g, 3, 2);
  EXPECT_EQ(b.size(), 4u);  // 1,2,4,5
  EXPECT_TRUE(std::find(b.begin(), b.end(), 1u) != b.end());
  EXPECT_TRUE(std::find(b.begin(), b.end(), 5u) != b.end());
}

TEST(Ball, ExcludesCenter) {
  const Graph g = complete_graph(5);
  const auto b = ball(g, 2, 3);
  EXPECT_EQ(b.size(), 4u);
  EXPECT_TRUE(std::find(b.begin(), b.end(), 2u) == b.end());
}

TEST(AllBalls, MatchesSingleBall) {
  const Graph g = grid_2d(4);
  const auto balls = all_balls(g, 2);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(balls[v], ball(g, v, 2));
  }
}

// The definition of a hop ball, from the full BFS distances: every other
// reachable vertex at distance <= radius, ascending.
std::vector<VertexId> ball_by_distances(const Graph& g, VertexId v,
                                        std::uint32_t radius) {
  std::vector<VertexId> out;
  if (radius == 0) return out;
  const auto dist = bfs_distances(g, v);
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    if (u != v && dist[u] != kUnreachable && dist[u] <= radius) {
      out.push_back(u);
    }
  }
  return out;
}

// ball() and all_balls() are a BFS cut at depth r; they must give the
// definition's balls on grids, a torus, an irregular graph with an
// isolated vertex, and two disjoint components, at radii past the
// diameter.
TEST(Ball, MatchesBfsDistanceDefinition) {
  Graph split(9);  // a path 0-1-2-3 and a cycle 4..8, no edge between
  for (VertexId v = 0; v + 1 < 4; ++v) split.add_edge(v, v + 1);
  for (VertexId v = 4; v < 9; ++v) split.add_edge(v, v + 1 < 9 ? v + 1 : 4);
  // A tree of uneven degrees with a chord, a pendant path, a triangle
  // hanging off it and the isolated vertex 15.
  Graph irregular(16);
  for (const auto& [u, v] : std::vector<std::pair<VertexId, VertexId>>{
           {0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 5}, {5, 6}, {6, 7}, {7, 8},
           {2, 9}, {9, 10}, {10, 2}, {3, 11}, {11, 12}, {12, 4}, {8, 13},
           {13, 14}}) {
    irregular.add_edge(u, v);
  }
  const std::vector<Graph> graphs = {grid_2d(6), torus_2d(5),
                                     k_augmented_grid(5, 2), irregular, split};
  for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
    const Graph& g = graphs[gi];
    for (std::uint32_t r = 0; r <= 12; ++r) {
      const auto balls = all_balls(g, r);
      ASSERT_EQ(balls.size(), g.num_vertices());
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        const auto expected = ball_by_distances(g, v, r);
        ASSERT_EQ(ball(g, v, r), expected)
            << "graph " << gi << " r=" << r << " v=" << v;
        ASSERT_EQ(balls[v], expected)
            << "graph " << gi << " r=" << r << " v=" << v;
      }
    }
  }
}

TEST(Ball, RejectsOutOfRangeVertex) {
  const Graph g = path_graph(4);
  EXPECT_THROW(ball(g, 4, 1), std::out_of_range);
  EXPECT_TRUE(ball(g, 4, 0).empty());
}

// Property: ball size is monotone in the radius.
class BallMonotone : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(BallMonotone, GrowsWithRadius) {
  const Graph g = grid_2d(6);
  const VertexId center = grid_index(6, 3, 3);
  std::size_t prev = 0;
  for (std::uint32_t r = 1; r <= GetParam(); ++r) {
    const auto b = ball(g, center, r);
    EXPECT_GE(b.size(), prev);
    prev = b.size();
  }
}

INSTANTIATE_TEST_SUITE_P(Radii, BallMonotone, ::testing::Values(2, 4, 8));

}  // namespace
}  // namespace megflood
