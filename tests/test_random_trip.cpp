// Tests for the generic random trip model and its policies.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/flooding.hpp"
#include "mobility/random_trip.hpp"
#include "step_hash.hpp"

namespace megflood {
namespace {

std::shared_ptr<const TripPolicy> square_policy(
    double side = 4.0, double v = 0.5, std::uint64_t pause_lo = 0,
    std::uint64_t pause_hi = 0) {
  return std::make_shared<SquareWaypointPolicy>(side, 0.5 * v, v, pause_lo,
                                                pause_hi);
}

TEST(GridWaypointPolicy, Validation) {
  EXPECT_THROW(GridWaypointPolicy(1.0, 16, 0.0, 0.2), std::invalid_argument);
  EXPECT_THROW(GridWaypointPolicy(1.0, 16, 0.3, 0.2), std::invalid_argument);
  EXPECT_THROW(GridWaypointPolicy(0.0, 16, 0.1, 0.2), std::invalid_argument);
  EXPECT_THROW(GridWaypointPolicy(-1.0, 16, 0.1, 0.2), std::invalid_argument);
}

TEST(GridWaypointPolicy, TripsEndOnGridPoints) {
  const GridWaypointPolicy policy(3.0, 7, 0.1, 0.2);
  const SquareGrid grid(7, 3.0);
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const Point2D start = policy.random_point(rng);
    EXPECT_EQ(grid.position(grid.nearest(start)), start);
    const Trip trip = policy.next_trip(start, rng);
    EXPECT_EQ(grid.position(grid.nearest(trip.destination)), trip.destination);
    EXPECT_GE(trip.speed, 0.1);
    EXPECT_LE(trip.speed, 0.2);
    EXPECT_EQ(trip.pause_rounds, 0u);
  }
}

TEST(SquareWaypointPolicy, Validation) {
  EXPECT_THROW(SquareWaypointPolicy(0.0, 0.1, 0.2), std::invalid_argument);
  EXPECT_THROW(SquareWaypointPolicy(1.0, 0.0, 0.2), std::invalid_argument);
  EXPECT_THROW(SquareWaypointPolicy(1.0, 0.3, 0.2), std::invalid_argument);
  EXPECT_THROW(SquareWaypointPolicy(1.0, 0.1, 0.2, 5, 2),
               std::invalid_argument);
}

TEST(SquareWaypointPolicy, TripsInsideRegion) {
  SquareWaypointPolicy policy(3.0, 0.1, 0.2, 1, 4);
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const Trip trip = policy.next_trip({1.0, 1.0}, rng);
    EXPECT_TRUE(policy.contains(trip.destination));
    EXPECT_GE(trip.speed, 0.1);
    EXPECT_LE(trip.speed, 0.2);
    EXPECT_GE(trip.pause_rounds, 1u);
    EXPECT_LE(trip.pause_rounds, 4u);
  }
}

TEST(DiskWaypointPolicy, PointsInsideDisk) {
  DiskWaypointPolicy policy(4.0, 0.1, 0.2);
  Rng rng(7);
  for (int i = 0; i < 300; ++i) {
    const Point2D p = policy.random_point(rng);
    const double dx = p.x - 2.0, dy = p.y - 2.0;
    EXPECT_LE(dx * dx + dy * dy, 4.0 + 1e-9);
  }
  EXPECT_FALSE(policy.contains({0.1, 0.1}));  // square corner, outside disk
  EXPECT_TRUE(policy.contains({2.0, 2.0}));
}

TEST(RandomDirectionPolicy, Validation) {
  EXPECT_THROW(RandomDirectionPolicy(0.0, 0.1, 0.2, 1.0, 2.0),
               std::invalid_argument);
  EXPECT_THROW(RandomDirectionPolicy(4.0, 0.0, 0.2, 1.0, 2.0),
               std::invalid_argument);
  EXPECT_THROW(RandomDirectionPolicy(4.0, 0.1, 0.2, 0.0, 2.0),
               std::invalid_argument);
  EXPECT_THROW(RandomDirectionPolicy(4.0, 0.1, 0.2, 3.0, 2.0),
               std::invalid_argument);
}

TEST(RandomDirectionPolicy, DestinationsInsideAndLegBounded) {
  RandomDirectionPolicy policy(4.0, 0.1, 0.2, 1.0, 2.0);
  Rng rng(3);
  for (int i = 0; i < 300; ++i) {
    const Point2D from = policy.random_point(rng);
    const Trip trip = policy.next_trip(from, rng);
    EXPECT_TRUE(policy.contains(trip.destination));
    EXPECT_LE(euclidean_distance(from, trip.destination), 2.0 + 1e-9);
    EXPECT_EQ(trip.pause_rounds, 0u);
  }
}

TEST(RandomDirectionPolicy, ModelFloodsAndStaysInside) {
  auto policy =
      std::make_shared<RandomDirectionPolicy>(4.0, 0.25, 0.5, 1.0, 3.0);
  RandomTripModel model(24, policy, 0.7, 32, 5);
  for (std::uint64_t w = 0; w < model.suggested_warmup(); ++w) model.step();
  for (int t = 0; t < 100; ++t) {
    model.step();
    for (NodeId a = 0; a < 24; ++a) {
      EXPECT_TRUE(policy->contains(model.agent_position(a)));
    }
  }
  const FloodResult r = flood(model, 0, 200000);
  EXPECT_TRUE(r.completed);
}

TEST(RandomDirectionPolicy, FlatterDensityThanWaypoint) {
  // Waypoint density is center-biased; random direction with short legs
  // is much flatter.  Compare center/corner occupancy ratios.
  auto occupancy_ratio = [&](std::shared_ptr<const TripPolicy> policy) {
    RandomTripModel model(32, policy, 0.5, 16, 11);
    for (std::uint64_t w = 0; w < 4 * model.suggested_warmup(); ++w) {
      model.step();
    }
    std::vector<std::uint64_t> counts(model.grid().num_points(), 0);
    for (int t = 0; t < 3000; ++t) {
      model.step();
      for (NodeId a = 0; a < 32; ++a) ++counts[model.agent_cell(a)];
    }
    const SquareGrid& grid = model.grid();
    const std::size_t m = grid.resolution();
    // Average the central 2x2 block and the four corners for stability.
    const double center =
        static_cast<double>(counts[grid.index(m / 2, m / 2)] +
                            counts[grid.index(m / 2 - 1, m / 2)] +
                            counts[grid.index(m / 2, m / 2 - 1)] +
                            counts[grid.index(m / 2 - 1, m / 2 - 1)]);
    const double corner =
        static_cast<double>(counts[grid.index(0, 0)] +
                            counts[grid.index(0, m - 1)] +
                            counts[grid.index(m - 1, 0)] +
                            counts[grid.index(m - 1, m - 1)]) + 1.0;
    return center / corner;
  };
  const double waypoint_bias = occupancy_ratio(
      std::make_shared<SquareWaypointPolicy>(4.0, 0.25, 0.5));
  const double direction_bias = occupancy_ratio(
      std::make_shared<RandomDirectionPolicy>(4.0, 0.25, 0.5, 0.5, 1.0));
  EXPECT_GT(waypoint_bias, direction_bias);
}

TEST(RandomTripModel, ValidationErrors) {
  EXPECT_THROW(RandomTripModel(1, square_policy(), 0.5, 16, 0),
               std::invalid_argument);
  EXPECT_THROW(RandomTripModel(4, nullptr, 0.5, 16, 0),
               std::invalid_argument);
  EXPECT_THROW(RandomTripModel(4, square_policy(), 0.0, 16, 0),
               std::invalid_argument);
}

TEST(RandomTripModel, AgentsStayInRegion) {
  auto policy = std::make_shared<DiskWaypointPolicy>(4.0, 0.2, 0.4);
  RandomTripModel model(12, policy, 0.5, 32, 3);
  for (int t = 0; t < 200; ++t) {
    model.step();
    for (NodeId a = 0; a < 12; ++a) {
      // Motion is along chords of the (convex) disk, so positions stay in.
      EXPECT_TRUE(policy->contains(model.agent_position(a))) << "agent " << a;
    }
  }
}

TEST(RandomTripModel, MatchesWaypointSemanticsWithoutPauses) {
  // Per round an agent moves at most v_max: waypoint switches conserve
  // the distance traveled, so the displacement never exceeds it.
  RandomTripModel model(8, square_policy(4.0, 0.5), 0.5, 32, 5);
  for (int t = 0; t < 100; ++t) {
    std::vector<Point2D> before(8);
    for (NodeId a = 0; a < 8; ++a) before[a] = model.agent_position(a);
    model.step();
    for (NodeId a = 0; a < 8; ++a) {
      EXPECT_LE(euclidean_distance(before[a], model.agent_position(a)),
                0.5 + 1e-9);
    }
  }
}

TEST(RandomTripModel, PausesFreezeAgents) {
  // With enormous pauses, agents that reach a waypoint stop moving.
  RandomTripModel model(8, square_policy(2.0, 1.0, 1000, 1000), 0.3, 16, 7);
  // Run until some agent is paused.
  int paused_seen = 0;
  for (int t = 0; t < 50; ++t) {
    model.step();
    for (NodeId a = 0; a < 8; ++a) {
      if (model.agent_paused(a)) {
        ++paused_seen;
        const Point2D before = model.agent_position(a);
        model.step();
        EXPECT_EQ(model.agent_position(a).x, before.x);
        EXPECT_EQ(model.agent_position(a).y, before.y);
        break;
      }
    }
    if (paused_seen > 0) break;
  }
  EXPECT_GT(paused_seen, 0);
}

TEST(RandomTripModel, ConnectionMatchesRadius) {
  RandomTripModel model(12, square_policy(), 0.6, 24, 9);
  const SquareGrid& grid = model.grid();
  for (int t = 0; t < 10; ++t) {
    model.step();
    const Snapshot& snap = model.snapshot();
    for (NodeId a = 0; a < 12; ++a) {
      for (NodeId b = static_cast<NodeId>(a + 1); b < 12; ++b) {
        const double d =
            euclidean_distance(grid.position(model.agent_cell(a)),
                               grid.position(model.agent_cell(b)));
        EXPECT_EQ(snap.has_edge(a, b), d <= 0.6);
      }
    }
  }
}

TEST(RandomTripModel, ResetReproduces) {
  RandomTripModel model(6, square_policy(), 0.5, 16, 11);
  std::vector<double> first;
  for (int t = 0; t < 15; ++t) {
    model.step();
    first.push_back(model.agent_position(0).x);
  }
  model.reset(11);
  for (int t = 0; t < 15; ++t) {
    model.step();
    EXPECT_DOUBLE_EQ(model.agent_position(0).x,
                     first[static_cast<std::size_t>(t)]);
  }
}

TEST(RandomTripModel, FloodingCompletes) {
  RandomTripModel model(32, square_policy(4.0, 0.5), 0.7, 32, 13);
  for (std::uint64_t w = 0; w < model.suggested_warmup(); ++w) model.step();
  const FloodResult r = flood(model, 0, 100000);
  EXPECT_TRUE(r.completed);
}

TEST(RandomTripModel, PausesSlowFlooding) {
  // Pause times reduce effective speed, so flooding slows down (the
  // random-trip mixing time grows with the dwell fraction).
  auto measure = [&](std::uint64_t pause) {
    double total = 0.0;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      RandomTripModel model(24, square_policy(5.0, 0.5, pause, pause), 0.6,
                            32, seed);
      for (std::uint64_t w = 0; w < 4 * model.suggested_warmup(); ++w) {
        model.step();
      }
      const FloodResult r = flood(model, 0, 500000);
      EXPECT_TRUE(r.completed);
      total += static_cast<double>(r.rounds);
    }
    return total / 5.0;
  };
  EXPECT_LT(measure(0), measure(12));
}

TEST(RandomTripModel, DiskFloodsLikeSquare) {
  // Corollary 4 is region-agnostic: the disk variant floods in the same
  // ballpark as the square at comparable density.
  auto run = [&](std::shared_ptr<const TripPolicy> policy) {
    double total = 0.0;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      RandomTripModel model(24, policy, 0.7, 32, seed);
      for (std::uint64_t w = 0; w < model.suggested_warmup(); ++w) {
        model.step();
      }
      const FloodResult r = flood(model, 0, 200000);
      EXPECT_TRUE(r.completed);
      total += static_cast<double>(r.rounds);
    }
    return total / 4.0;
  };
  const double square = run(square_policy(4.0, 0.5));
  const double disk = run(std::make_shared<DiskWaypointPolicy>(4.0, 0.25, 0.5));
  EXPECT_LT(disk, 8.0 * square + 20.0);
  EXPECT_LT(square, 8.0 * disk + 20.0);
}

TEST(RandomTripModel, StepStreamIsPinned) {
  // Positions, decoded edges and CSR after the initializer and each of
  // 60 steps (mobility_stream_hash), one row per stock policy: the
  // square with pauses in [0, 3] (the pause countdown), the disk (the
  // rejection draws) and the random direction (trips drawn from the
  // current position).  Two rows split the move pass's lanes: the
  // square with pauses at an odd n (paused agents, speed kPaused, on
  // both lanes and in the odd last one), and a waypoint over a 4 x 4
  // grid of destinations started from collapse_to() on one of them
  // (agents whose destination is their position: dist = 0).  Any moved
  // draw or byte changes a hash.
  struct Row {
    const char* name;
    std::size_t n;
    std::shared_ptr<const TripPolicy> policy;
    bool collapse;
    std::uint64_t hash;
  };
  const Row rows[] = {
      {"square pause [0, 3]", 512,
       std::make_shared<SquareWaypointPolicy>(8.0, 0.5, 1.0, 0, 3), false,
       0xc23970eb421f6e68ULL},
      {"disk", 512, std::make_shared<DiskWaypointPolicy>(8.0, 0.5, 1.0), false,
       0x3fef583dcf59da8eULL},
      {"direction", 512,
       std::make_shared<RandomDirectionPolicy>(8.0, 0.5, 1.0, 1.0, 4.0), false,
       0x54343851f72e2d5bULL},
      {"square pause [0, 3], n = 511", 511,
       std::make_shared<SquareWaypointPolicy>(8.0, 0.5, 1.0, 0, 3), false,
       0x413aa84a453eb6d8ULL},
      {"collapsed on a 4 x 4 waypoint grid", 511,
       std::make_shared<GridWaypointPolicy>(8.0, 4, 0.5, 1.0), true,
       0x77d793105add4733ULL},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.name);
    RandomTripModel model(row.n, row.policy, 1.0, 32, 1);
    if (row.collapse) model.collapse_to({0.0, 0.0});
    const std::uint64_t h = mobility_stream_hash(model, 60);
    EXPECT_EQ(h, row.hash) << "hash 0x" << std::hex << h;
  }
}

}  // namespace
}  // namespace megflood
