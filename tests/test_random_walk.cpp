// Tests for the random walk mobility model (rho-hop moves, r-hop
// connectivity) over mobility graphs.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/flooding.hpp"
#include "graph/algorithms.hpp"
#include "graph/builders.hpp"
#include "mobility/random_walk.hpp"
#include "step_hash.hpp"

namespace megflood {
namespace {

std::shared_ptr<const Graph> shared(Graph g) {
  return std::make_shared<const Graph>(std::move(g));
}

TEST(RandomWalkModel, ValidationErrors) {
  EXPECT_THROW(RandomWalkModel(nullptr, 4, {}, 0), std::invalid_argument);
  EXPECT_THROW(RandomWalkModel(shared(grid_2d(3)), 1, {}, 0),
               std::invalid_argument);
  RandomWalkParams bad;
  bad.move_radius = 0;
  EXPECT_THROW(RandomWalkModel(shared(grid_2d(3)), 4, bad, 0),
               std::invalid_argument);
}

TEST(RandomWalkModel, MovesAtMostRhoHops) {
  const auto g = shared(grid_2d(6));
  RandomWalkParams params;
  params.move_radius = 2;
  RandomWalkModel model(g, 10, params, 3);
  for (int t = 0; t < 20; ++t) {
    std::vector<VertexId> before(10);
    for (NodeId a = 0; a < 10; ++a) before[a] = model.agent_position(a);
    model.step();
    for (NodeId a = 0; a < 10; ++a) {
      const auto dist = bfs_distances(*g, before[a]);
      EXPECT_LE(dist[model.agent_position(a)], 2u);
    }
  }
}

TEST(RandomWalkModel, SamePointConnectivity) {
  const auto g = shared(grid_2d(4));
  RandomWalkModel model(g, 8, {}, 5);  // r = 0
  for (int t = 0; t < 10; ++t) {
    const Snapshot& snap = model.snapshot();
    for (NodeId a = 0; a < 8; ++a) {
      for (NodeId b = static_cast<NodeId>(a + 1); b < 8; ++b) {
        EXPECT_EQ(snap.has_edge(a, b),
                  model.agent_position(a) == model.agent_position(b));
      }
    }
    model.step();
  }
}

TEST(RandomWalkModel, RadiusConnectivityMatchesHopDistance) {
  const auto g = shared(grid_2d(5));
  RandomWalkParams params;
  params.connect_radius = 2;
  RandomWalkModel model(g, 12, params, 7);
  for (int t = 0; t < 8; ++t) {
    const Snapshot& snap = model.snapshot();
    for (NodeId a = 0; a < 12; ++a) {
      const auto dist = bfs_distances(*g, model.agent_position(a));
      for (NodeId b = static_cast<NodeId>(a + 1); b < 12; ++b) {
        EXPECT_EQ(snap.has_edge(a, b), dist[model.agent_position(b)] <= 2u)
            << "agents " << a << "," << b;
      }
    }
    model.step();
  }
}

TEST(RandomWalkModel, StationaryInitMatchesDegreeBias) {
  // On a star, the hub has ball size n-1 but leaves have ball size 1
  // (plus self), so pi(hub) = n/(3n-2)... just check hub mass is higher
  // than leaf mass empirically at init.
  const auto g = shared(star_graph(5));
  std::size_t hub = 0, leaves = 0;
  for (std::uint64_t seed = 0; seed < 400; ++seed) {
    RandomWalkModel model(g, 2, {}, seed);
    for (NodeId a = 0; a < 2; ++a) {
      if (model.agent_position(a) == 0) {
        ++hub;
      } else {
        ++leaves;
      }
    }
  }
  // pi(hub) = 5/13 ≈ 0.385; each leaf 2/13.
  EXPECT_NEAR(static_cast<double>(hub) / 800.0, 5.0 / 13.0, 0.05);
  EXPECT_NEAR(static_cast<double>(leaves) / 800.0, 8.0 / 13.0, 0.05);
}

TEST(RandomWalkModel, SetAllPositionsAndCompleteSnapshot) {
  const auto g = shared(grid_2d(3));
  RandomWalkModel model(g, 6, {}, 9);
  model.set_all_positions(4);
  EXPECT_EQ(model.snapshot().num_edges(), 15u);  // complete graph on 6
  EXPECT_THROW(model.set_all_positions(100), std::out_of_range);
}

TEST(RandomWalkModel, ResetReproduces) {
  const auto g = shared(grid_2d(4));
  RandomWalkModel model(g, 6, {}, 11);
  std::vector<VertexId> first;
  for (int t = 0; t < 10; ++t) {
    model.step();
    first.push_back(model.agent_position(0));
  }
  model.reset(11);
  for (int t = 0; t < 10; ++t) {
    model.step();
    EXPECT_EQ(model.agent_position(0), first[static_cast<std::size_t>(t)]);
  }
}

TEST(RandomWalkModel, FloodingCompletesOnSmallGrid) {
  const auto g = shared(grid_2d(4));
  RandomWalkModel model(g, 24, {}, 13);  // dense agent population
  const FloodResult r = flood(model, 0, 200000);
  EXPECT_TRUE(r.completed);
}

TEST(RandomWalkModel, LargerRadiusFloodsFaster) {
  const auto g = shared(grid_2d(6));
  auto measure = [&](std::uint32_t radius) {
    RandomWalkParams params;
    params.connect_radius = radius;
    double total = 0.0;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      RandomWalkModel model(g, 18, params, seed);
      const FloodResult r = flood(model, 0, 500000);
      EXPECT_TRUE(r.completed);
      total += static_cast<double>(r.rounds);
    }
    return total / 5.0;
  };
  EXPECT_LT(measure(3), measure(0));
}

TEST(RandomWalkModel, MobileFractionValidation) {
  RandomWalkParams params;
  params.mobile_fraction = -0.1;
  EXPECT_THROW(RandomWalkModel(shared(grid_2d(3)), 4, params, 0),
               std::invalid_argument);
  params.mobile_fraction = 1.5;
  EXPECT_THROW(RandomWalkModel(shared(grid_2d(3)), 4, params, 0),
               std::invalid_argument);
}

TEST(RandomWalkModel, StaticAgentsNeverMove) {
  RandomWalkParams params;
  params.mobile_fraction = 0.5;
  RandomWalkModel model(shared(grid_2d(5)), 10, params, 19);
  std::vector<VertexId> start(10);
  for (NodeId a = 0; a < 10; ++a) start[a] = model.agent_position(a);
  for (int t = 0; t < 30; ++t) model.step();
  for (NodeId a = 0; a < 10; ++a) {
    if (model.agent_mobile(a)) continue;
    EXPECT_EQ(model.agent_position(a), start[a]) << "static agent " << a;
  }
  // Agents 0..4 are the mobile half; at least one must have moved.
  bool any_moved = false;
  for (NodeId a = 0; a < 5; ++a) {
    EXPECT_TRUE(model.agent_mobile(a));
    if (model.agent_position(a) != start[a]) any_moved = true;
  }
  EXPECT_TRUE(any_moved);
}

TEST(RandomWalkModel, AllStaticNeverFloodsAcrossDistinctPoints) {
  RandomWalkParams params;
  params.mobile_fraction = 0.0;
  RandomWalkModel model(shared(grid_2d(4)), 8, params, 21);
  // Force two occupied distinct points with no co-location of all nodes.
  model.set_all_positions(0);
  // All at the same point: trivially floods in one round.
  const FloodResult r = flood(model, 0, 10);
  EXPECT_TRUE(r.completed);
}

TEST(RandomWalkModel, MoreMobilityFloodsFaster) {
  // The [12] effect: with a fixed sparse population, raising the mobile
  // fraction speeds dissemination.
  const auto g = shared(grid_2d(6));
  auto measure = [&](double fraction) {
    RandomWalkParams params;
    params.mobile_fraction = fraction;
    params.connect_radius = 1;
    double total = 0.0;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      RandomWalkModel model(g, 18, params, seed);
      const FloodResult r = flood(model, 0, 1'000'000);
      EXPECT_TRUE(r.completed) << "fraction " << fraction;
      total += static_cast<double>(r.rounds);
    }
    return total / 5.0;
  };
  EXPECT_LT(measure(1.0), measure(0.25));
}

TEST(RandomWalkModel, StepStreamIsPinned) {
  // The agent points, the decoded edges and the CSR after the
  // initializer and each of 40 steps, folded into one FNV-1a hash per
  // row.  Each connection radius runs on a grid with at most 4 points
  // per agent and on one with more (16 x 16 and 48 x 48 points, 128
  // agents); r = 2 with a static half adds wider balls.  Any moved draw
  // or byte changes a hash.
  struct Row {
    std::size_t side, n;
    std::uint32_t connect_radius;
    double mobile_fraction;
    std::uint64_t seed;
    std::uint64_t hash;
  };
  const Row rows[] = {
      {16, 128, 0, 1.0, 1, 0x3784c895ba71468aULL},
      {16, 128, 1, 1.0, 2, 0x8899d084b5e5cabbULL},
      {48, 128, 0, 1.0, 3, 0xa6c9cce34cbef0dcULL},
      {48, 128, 1, 1.0, 4, 0x215096b368a252bfULL},
      {16, 128, 2, 0.5, 5, 0x37a45bb88dd9158eULL},
      {48, 128, 2, 0.5, 6, 0x3ae80548759ca225ULL},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(::testing::Message()
                 << "side=" << row.side << " n=" << row.n
                 << " r=" << row.connect_radius << " seed=" << row.seed);
    RandomWalkParams params;
    params.connect_radius = row.connect_radius;
    params.mobile_fraction = row.mobile_fraction;
    RandomWalkModel model(shared(grid_2d(row.side)), row.n, params, row.seed);
    const std::uint64_t h = mobility_stream_hash(model, 40);
    EXPECT_EQ(h, row.hash) << "hash 0x" << std::hex << h;
  }
}

// Property: across topologies, agent positions are always valid vertices
// and the snapshot is symmetric-consistent.
class RandomWalkInvariants : public ::testing::TestWithParam<int> {};

TEST_P(RandomWalkInvariants, PositionsValid) {
  Graph g;
  switch (GetParam()) {
    case 0: g = cycle_graph(10); break;
    case 1: g = grid_2d(4); break;
    case 2: g = k_augmented_grid(4, 2); break;
    default: g = complete_graph(6); break;
  }
  const auto gs = shared(std::move(g));
  RandomWalkModel model(gs, 8, {}, 17);
  for (int t = 0; t < 15; ++t) {
    for (NodeId a = 0; a < 8; ++a) {
      EXPECT_LT(model.agent_position(a), gs->num_vertices());
    }
    model.step();
  }
}

INSTANTIATE_TEST_SUITE_P(Topologies, RandomWalkInvariants,
                         ::testing::Range(0, 4));

}  // namespace
}  // namespace megflood
