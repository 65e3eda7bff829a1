// Tests for the random paths mobility model: path family validation and
// structural predicates, the explicit model's chain semantics, and the
// implicit grid L-paths model.

#include <gtest/gtest.h>

#include <memory>
#include <numeric>

#include "core/flooding.hpp"
#include "graph/algorithms.hpp"
#include "graph/builders.hpp"
#include "mobility/random_paths.hpp"
#include "step_hash.hpp"

namespace megflood {
namespace {

std::shared_ptr<const Graph> shared(Graph g) {
  return std::make_shared<const Graph>(std::move(g));
}

TEST(PathFamily, EdgesFamilyOfCycle) {
  const Graph g = cycle_graph(4);
  const PathFamily family = edges_path_family(g);
  EXPECT_EQ(family.paths.size(), 8u);  // both directions of 4 edges
  for (VertexId v = 0; v < 4; ++v) {
    EXPECT_EQ(family.starting_at[v].size(), 2u);
  }
  validate_path_family(g, family);  // must not throw
  EXPECT_TRUE(is_simple(family));
  EXPECT_TRUE(is_reversible(family));
}

TEST(PathFamily, ValidationRejectsNonEdgeHop) {
  const Graph g = path_graph(4);
  PathFamily family;
  family.paths.push_back({0, 2});  // not an edge
  family.build_index(4);
  EXPECT_THROW(validate_path_family(g, family), std::invalid_argument);
}

TEST(PathFamily, ValidationRejectsDeadEnd) {
  const Graph g = path_graph(3);
  PathFamily family;
  family.paths.push_back({0, 1});  // nothing starts at 1
  family.build_index(3);
  EXPECT_THROW(validate_path_family(g, family), std::invalid_argument);
}

TEST(PathFamily, ValidationRejectsShortPath) {
  const Graph g = path_graph(3);
  PathFamily family;
  family.paths.push_back({0});
  family.build_index(3);
  EXPECT_THROW(validate_path_family(g, family), std::invalid_argument);
}

TEST(PathFamily, SimplePredicateDetectsRepeats) {
  PathFamily family;
  family.paths.push_back({0, 1, 2, 1});  // revisits 1
  EXPECT_FALSE(is_simple(family));
  PathFamily ok;
  ok.paths.push_back({0, 1, 2});
  EXPECT_TRUE(is_simple(ok));
}

TEST(PathFamily, ReversiblePredicate) {
  PathFamily family;
  family.paths.push_back({0, 1, 2});
  EXPECT_FALSE(is_reversible(family));
  family.paths.push_back({2, 1, 0});
  EXPECT_TRUE(is_reversible(family));
}

TEST(ExplicitPathsModel, OneHopPerStep) {
  const auto g = shared(grid_2d(4));
  ExplicitPathsModel model(g, edges_path_family(*g), 8, 3);
  for (int t = 0; t < 30; ++t) {
    std::vector<VertexId> before(8);
    for (NodeId a = 0; a < 8; ++a) before[a] = model.agent_position(a);
    model.step();
    for (NodeId a = 0; a < 8; ++a) {
      EXPECT_TRUE(g->has_edge(before[a], model.agent_position(a)))
          << "agent " << a << " jumped";
    }
  }
}

TEST(ExplicitPathsModel, EdgesFamilyIsRandomWalk) {
  // With the edges family an agent is never stuck and visits neighbors
  // uniformly: empirical next-position distribution from a fixed corner.
  const auto g = shared(grid_2d(3));
  std::vector<int> counts(9, 0);
  for (std::uint64_t seed = 0; seed < 600; ++seed) {
    ExplicitPathsModel model(g, edges_path_family(*g), 2, seed);
    // Find an agent and see where it goes from wherever it is.
    const VertexId from = model.agent_position(0);
    model.step();
    const VertexId to = model.agent_position(0);
    if (from == grid_index(3, 1, 1)) ++counts[to];
  }
  // From the center, the four axis neighbors should be roughly equal.
  const int total = counts[grid_index(3, 0, 1)] + counts[grid_index(3, 2, 1)] +
                    counts[grid_index(3, 1, 0)] + counts[grid_index(3, 1, 2)];
  if (total > 40) {
    for (VertexId v :
         {grid_index(3, 0, 1), grid_index(3, 2, 1), grid_index(3, 1, 0),
          grid_index(3, 1, 2)}) {
      EXPECT_NEAR(counts[v] / static_cast<double>(total), 0.25, 0.15);
    }
  }
}

TEST(ExplicitPathsModel, LongerPathsFamily) {
  // A hand-built reversible family of 3-point paths on an *odd* cycle —
  // on even cycles the always-move dynamics are periodic and agents of
  // opposite parity never co-locate (see the parity note in DESIGN.md).
  const auto g = shared(cycle_graph(5));
  PathFamily family;
  for (VertexId v = 0; v < 5; ++v) {
    family.paths.push_back({v, static_cast<VertexId>((v + 1) % 5),
                            static_cast<VertexId>((v + 2) % 5)});
    family.paths.push_back({static_cast<VertexId>((v + 2) % 5),
                            static_cast<VertexId>((v + 1) % 5), v});
  }
  family.build_index(5);
  validate_path_family(*g, family);
  EXPECT_TRUE(is_simple(family));
  EXPECT_TRUE(is_reversible(family));
  ExplicitPathsModel model(g, family, 6, 7);
  const FloodResult r = flood(model, 0, 100000);
  EXPECT_TRUE(r.completed);
}

TEST(ExplicitPathsModel, RejectsAFamilyWhoseUniformStartIsNotStationary) {
  // Both families are valid (every hop an edge, every end point starts a
  // path), but the uniform start is the stationary law only for a simple,
  // reversible one.  One way round the 5-cycle: no path's reverse is in
  // the family.
  const auto g = shared(cycle_graph(5));
  PathFamily one_way;
  for (VertexId v = 0; v < 5; ++v) {
    one_way.paths.push_back({v, static_cast<VertexId>((v + 1) % 5),
                             static_cast<VertexId>((v + 2) % 5)});
  }
  one_way.build_index(5);
  validate_path_family(*g, one_way);
  EXPECT_TRUE(is_simple(one_way));
  EXPECT_FALSE(is_reversible(one_way));
  EXPECT_THROW(ExplicitPathsModel(g, one_way, 4, 1), std::invalid_argument);

  // A path there and back repeats its interior point 1 (it is its own
  // reverse).
  PathFamily repeat;
  repeat.paths.push_back({0, 1, 2, 1, 0});
  repeat.build_index(5);
  validate_path_family(*g, repeat);
  EXPECT_FALSE(is_simple(repeat));
  EXPECT_TRUE(is_reversible(repeat));
  EXPECT_THROW(ExplicitPathsModel(g, repeat, 4, 1), std::invalid_argument);
}

TEST(ExplicitPathsModel, ResetReproduces) {
  const auto g = shared(grid_2d(3));
  ExplicitPathsModel model(g, edges_path_family(*g), 5, 9);
  std::vector<VertexId> first;
  for (int t = 0; t < 12; ++t) {
    model.step();
    first.push_back(model.agent_position(0));
  }
  model.reset(9);
  for (int t = 0; t < 12; ++t) {
    model.step();
    EXPECT_EQ(model.agent_position(0), first[static_cast<std::size_t>(t)]);
  }
}

TEST(ExplicitPathsModel, StepStreamIsPinned) {
  // The agent points, the decoded edges and the CSR after the
  // initializer and each of 40 steps, folded into one FNV-1a hash per
  // row, for the edges family of a grid with at most 4 points per agent
  // (16 x 16, 128 agents) and of one with more (48 x 48).
  struct Row {
    std::size_t side, n;
    std::uint64_t seed;
    std::uint64_t hash;
  };
  const Row rows[] = {
      {16, 128, 1, 0xf1fe469e121d953aULL},
      {48, 128, 2, 0x4233e74c8e4ca28aULL},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(::testing::Message() << "side=" << row.side << " n="
                                      << row.n << " seed=" << row.seed);
    const auto g = shared(grid_2d(row.side));
    ExplicitPathsModel model(g, edges_path_family(*g), row.n, row.seed);
    const std::uint64_t h = mobility_stream_hash(model, 40);
    EXPECT_EQ(h, row.hash) << "hash 0x" << std::hex << h;
  }
}

TEST(GridLPaths, ValidationErrors) {
  EXPECT_THROW(GridLPathsModel(1, 4, 0, 0), std::invalid_argument);
  EXPECT_THROW(GridLPathsModel(4, 1, 0, 0), std::invalid_argument);
}

TEST(GridLPaths, OneGridHopPerStep) {
  GridLPathsModel model(6, 10, 0, 3);
  for (int t = 0; t < 50; ++t) {
    std::vector<VertexId> before(10);
    for (NodeId a = 0; a < 10; ++a) before[a] = model.agent_position(a);
    model.step();
    for (NodeId a = 0; a < 10; ++a) {
      const auto b = before[a], c = model.agent_position(a);
      const int br = static_cast<int>(b / 6), bc = static_cast<int>(b % 6);
      const int cr = static_cast<int>(c / 6), cc = static_cast<int>(c % 6);
      EXPECT_EQ(std::abs(br - cr) + std::abs(bc - cc), 1)
          << "agent " << a << " moved non-adjacent";
    }
  }
}

TEST(GridLPaths, SamePointConnection) {
  GridLPathsModel model(5, 12, 0, 5);
  for (int t = 0; t < 10; ++t) {
    model.step();
    const Snapshot& snap = model.snapshot();
    for (NodeId a = 0; a < 12; ++a) {
      for (NodeId b = static_cast<NodeId>(a + 1); b < 12; ++b) {
        EXPECT_EQ(snap.has_edge(a, b),
                  model.agent_position(a) == model.agent_position(b));
      }
    }
  }
}

TEST(GridLPaths, RadiusConnection) {
  GridLPathsModel model(5, 12, 2, 7);
  for (int t = 0; t < 10; ++t) {
    model.step();
    const Snapshot& snap = model.snapshot();
    for (NodeId a = 0; a < 12; ++a) {
      for (NodeId b = static_cast<NodeId>(a + 1); b < 12; ++b) {
        const auto pa = model.agent_position(a), pb = model.agent_position(b);
        const int ar = static_cast<int>(pa / 5), ac = static_cast<int>(pa % 5);
        const int br = static_cast<int>(pb / 5), bc = static_cast<int>(pb % 5);
        const int l1 = std::abs(ar - br) + std::abs(ac - bc);
        EXPECT_EQ(snap.has_edge(a, b), l1 <= 2);
      }
    }
  }
}

TEST(GridLPaths, StepStreamIsPinned) {
  // As ExplicitPathsModel.StepStreamIsPinned, for connection radii 0, 1
  // and 2 on a 16 x 16 grid (at most 4 points per agent) and a 48 x 48
  // one (more), 128 agents each.
  struct Row {
    std::size_t side, n;
    std::uint32_t connect_radius;
    std::uint64_t seed;
    std::uint64_t hash;
  };
  const Row rows[] = {
      {16, 128, 0, 1, 0x2efe1745506e48abULL}, {16, 128, 1, 2, 0x4af2f0b21ed46f2cULL},
      {16, 128, 2, 3, 0x225be72ee01bbd43ULL}, {48, 128, 0, 4, 0xf7a7459b87843857ULL},
      {48, 128, 1, 5, 0x67ae582c4fa5fdcbULL}, {48, 128, 2, 6, 0xdf402dc8cd312579ULL},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(::testing::Message()
                 << "side=" << row.side << " n=" << row.n
                 << " r=" << row.connect_radius << " seed=" << row.seed);
    GridLPathsModel model(row.side, row.n, row.connect_radius, row.seed);
    const std::uint64_t h = mobility_stream_hash(model, 40);
    EXPECT_EQ(h, row.hash) << "hash 0x" << std::hex << h;
  }
}

TEST(GridLPaths, CongestionSymmetricAndPositive) {
  const auto c = GridLPathsModel::congestion(5);
  ASSERT_EQ(c.size(), 25u);
  for (std::uint64_t v : c) EXPECT_GT(v, 0u);
  // Symmetry: congestion must be invariant under the grid's symmetries.
  EXPECT_EQ(c[0], c[4]);        // corners
  EXPECT_EQ(c[0], c[20]);
  EXPECT_EQ(c[0], c[24]);
  EXPECT_EQ(c[7], c[11]);       // reflected interior points
}

TEST(GridLPaths, RegularityDeltaModest) {
  // Corollary 5's premise for shortest paths on grids: delta is small
  // (center rows/columns are busier but only by a constant factor).
  for (std::size_t side : {4u, 6u, 8u}) {
    const double delta = GridLPathsModel::regularity_delta(side);
    EXPECT_GT(delta, 1.0);
    EXPECT_LT(delta, 4.0) << "side " << side;
  }
}

TEST(GridLPaths, StationaryPositionalBiasTowardCenter) {
  // L-paths through the center are more numerous, so the stationary
  // occupancy at the center exceeds the corner occupancy.
  GridLPathsModel model(7, 40, 0, 13);
  std::vector<std::uint64_t> occupancy(49, 0);
  for (int t = 0; t < 4000; ++t) {
    model.step();
    for (NodeId a = 0; a < 40; ++a) ++occupancy[model.agent_position(a)];
  }
  const auto center = occupancy[3 * 7 + 3];
  const auto corner = occupancy[0];
  EXPECT_GT(center, corner);
}

TEST(GridLPaths, ResetReproduces) {
  GridLPathsModel model(6, 8, 0, 15);
  std::vector<VertexId> first;
  for (int t = 0; t < 15; ++t) {
    model.step();
    first.push_back(model.agent_position(0));
  }
  model.reset(15);
  for (int t = 0; t < 15; ++t) {
    model.step();
    EXPECT_EQ(model.agent_position(0), first[static_cast<std::size_t>(t)]);
  }
}

TEST(GridLPaths, FloodingCompletesWithRadiusOne) {
  // The grid is bipartite and every agent moves one hop per step, so the
  // (row+col+t) parity class of an agent is invariant: with same-point
  // connection (r = 0) opposite-parity agents can never meet and flooding
  // cannot complete.  Transmission radius 1 bridges the parity classes.
  GridLPathsModel model(6, 30, 1, 17);
  const FloodResult r = flood(model, 0, 200000);
  EXPECT_TRUE(r.completed);
}

TEST(GridLPaths, ParityObstructionWithSamePointConnection) {
  // Documented model property: agents whose (row+col) parity differs can
  // never occupy the same point at the same time.
  GridLPathsModel model(6, 16, 0, 19);
  std::vector<int> parity(16);
  for (NodeId a = 0; a < 16; ++a) {
    const auto p = model.agent_position(a);
    parity[a] = static_cast<int>((p / 6 + p % 6) % 2);
  }
  for (int t = 0; t < 300; ++t) {
    model.step();
    const Snapshot& snap = model.snapshot();
    for (const auto& [u, v] : snap.edges()) {
      EXPECT_EQ(parity[u], parity[v]) << "cross-parity contact at t=" << t;
    }
  }
}

// Property: the L-path congestion total equals the total number of
// non-start path points: sum over paths of (l(h) - 1) = sum of L1
// distances over (src, dst, bend) combos.
class CongestionTotal : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CongestionTotal, MatchesAnalyticTotal) {
  const std::size_t side = GetParam();
  const auto c = GridLPathsModel::congestion(side);
  const std::uint64_t total = std::accumulate(c.begin(), c.end(), 0ULL);
  std::uint64_t expected = 0;
  const auto s = static_cast<std::int64_t>(side);
  for (std::int64_t sr = 0; sr < s; ++sr) {
    for (std::int64_t sc = 0; sc < s; ++sc) {
      for (std::int64_t dr = 0; dr < s; ++dr) {
        for (std::int64_t dc = 0; dc < s; ++dc) {
          if (sr == dr && sc == dc) continue;
          const auto l1 = static_cast<std::uint64_t>(std::abs(sr - dr) +
                                                     std::abs(sc - dc));
          const bool aligned = sr == dr || sc == dc;
          expected += aligned ? l1 : 2 * l1;
        }
      }
    }
  }
  EXPECT_EQ(total, expected);
}

INSTANTIATE_TEST_SUITE_P(Sides, CongestionTotal, ::testing::Values(3, 4, 6));

}  // namespace
}  // namespace megflood
