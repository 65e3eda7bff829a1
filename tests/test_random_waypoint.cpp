// Tests for the discretized random waypoint model (a RandomTripModel on a
// GridWaypointPolicy, built by make_random_waypoint): exploration, warmup,
// the per-step stream pin and flooding.  The engine's kinematics,
// connections and reset are checked in test_random_trip.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/flooding.hpp"
#include "geometry/point.hpp"
#include "geometry/square_grid.hpp"
#include "mobility/proximity_engine.hpp"
#include "mobility/random_trip.hpp"
#include "step_hash.hpp"
#include "util/resource.hpp"

namespace megflood {
namespace {

WaypointParams small_params() {
  WaypointParams p;
  p.side_length = 1.0;
  p.v_min = 0.04;
  p.v_max = 0.08;
  p.radius = 0.15;
  p.resolution = 32;
  return p;
}

TEST(RandomWaypoint, AgentsStayInSquare) {
  const auto model = make_random_waypoint(12, small_params(), 3);
  for (int t = 0; t < 200; ++t) {
    model->step();
    for (NodeId a = 0; a < 12; ++a) {
      const Point2D pos = model->agent_position(a);
      EXPECT_GE(pos.x, -1e-9);
      EXPECT_LE(pos.x, 1.0 + 1e-9);
      EXPECT_GE(pos.y, -1e-9);
      EXPECT_LE(pos.y, 1.0 + 1e-9);
    }
  }
}

TEST(RandomWaypoint, SuggestedWarmupScalesWithLOverV) {
  WaypointParams p = small_params();
  const auto a = make_random_waypoint(4, p, 1);
  p.side_length = 2.0;
  p.radius = 0.3;
  const auto b = make_random_waypoint(4, p, 1);
  EXPECT_EQ(b->suggested_warmup(), 2 * a->suggested_warmup());
}

TEST(RandomWaypoint, AgentsEventuallyReachWaypointAndRetarget) {
  // Over many steps an agent's heading must change (new trips happen).
  const auto model = make_random_waypoint(4, small_params(), 13);
  Point2D start = model->agent_position(0);
  double max_dist = 0.0;
  for (int t = 0; t < 500; ++t) {
    model->step();
    max_dist = std::max(
        max_dist, euclidean_distance(start, model->agent_position(0)));
  }
  // The agent explored a good fraction of the unit square.
  EXPECT_GT(max_dist, 0.4);
}

TEST(RandomWaypoint, FloodingCompletesOnDensePopulation) {
  WaypointParams p = small_params();
  const auto model = make_random_waypoint(48, p, 17);
  for (std::uint64_t w = 0; w < model->suggested_warmup(); ++w) model->step();
  const FloodResult r = flood(*model, 0, 100000);
  EXPECT_TRUE(r.completed);
}

TEST(RandomWaypoint, HigherSpeedFloodsFasterWhenSparse) {
  WaypointParams slow = small_params();
  slow.radius = 0.08;
  WaypointParams fast = slow;
  fast.v_min *= 4.0;
  fast.v_max *= 4.0;
  auto measure = [&](const WaypointParams& p) {
    double total = 0.0;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const auto model = make_random_waypoint(16, p, seed);
      for (std::uint64_t w = 0; w < model->suggested_warmup(); ++w) {
        model->step();
      }
      const FloodResult r = flood(*model, 0, 500000);
      EXPECT_TRUE(r.completed);
      total += static_cast<double>(r.rounds);
    }
    return total / 4.0;
  };
  EXPECT_LT(measure(fast), measure(slow));
}

TEST(RandomWaypoint, StepStreamIsPinned) {
  // The agent positions (bitwise), the decoded edges and the CSR after
  // the initializer and each of 60 steps, folded into one FNV-1a hash per
  // row.  The rows cover the one-point campaign regime (L = 64, m = 32,
  // r = 1, every bucket one grid point), multi-point grids (L = 16,
  // m = 64; L = 64, m = 256, where the buckets outnumber the agents more
  // than four to one; and L = 16, m = 64, r = 2.5, about 55 agents per
  // bucket) and a fast regime whose agents finish several legs per step
  // and often hit the 16-leg cap.  Two rows have an odd agent count, so
  // the move pass's last agent runs alone: the campaign regime at
  // n = 4095 and three agents on a small square.  Any moved draw or byte
  // changes a hash.
  struct Row {
    double side, v_min, v_max, radius;
    std::size_t resolution, n;
    std::uint64_t seed;
    std::uint64_t hash;
  };
  const Row rows[] = {
      {64.0, 0.5, 1.0, 1.0, 32, 4096, 1, 0x9eedc6e2a51fe4b3ULL},
      {64.0, 0.5, 1.0, 1.0, 32, 512, 2, 0x1b96cb10b5a7901aULL},
      {16.0, 0.5, 1.0, 1.0, 64, 512, 1, 0x66bb2853bcec9591ULL},
      {16.0, 0.5, 1.0, 1.0, 64, 512, 2, 0xc8da3000764e3f97ULL},
      {64.0, 0.5, 1.0, 1.0, 256, 512, 1, 0x5e5b3614b90443c1ULL},
      {16.0, 0.5, 1.0, 2.5, 64, 2000, 1, 0xeb1d8a796845e7d9ULL},
      {4.0, 20.0, 40.0, 0.4, 8, 256, 1, 0xc0c103c72f0e5a8fULL},
      {4.0, 20.0, 40.0, 0.4, 8, 256, 2, 0x3da9b11396e7241fULL},
      {64.0, 0.5, 1.0, 1.0, 32, 4095, 1, 0x428239e5e6e26319ULL},
      {4.0, 0.5, 1.0, 1.0, 8, 3, 1, 0xdba2445a446faf70ULL},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(::testing::Message()
                 << "L=" << row.side << " m=" << row.resolution
                 << " n=" << row.n << " seed=" << row.seed);
    WaypointParams p;
    p.side_length = row.side;
    p.v_min = row.v_min;
    p.v_max = row.v_max;
    p.radius = row.radius;
    p.resolution = row.resolution;
    const auto model = make_random_waypoint(row.n, p, row.seed);
    const std::uint64_t h = mobility_stream_hash(*model, 60);
    EXPECT_EQ(h, row.hash) << "hash 0x" << std::hex << h;
  }
}

TEST(RandomWaypoint, TinyRadiusIsOnePointWithoutBuckets) {
  // Any radius below the grid spacing connects exactly the agents on one
  // grid point, so r = 0.01 gives r = 1's snapshots (same draws, same
  // bytes).  Neither builds bucket storage: at r = 0.01 a bucket table
  // would hold (L / r)^2 = 41M entries.
  WaypointParams p;
  p.side_length = 64.0;
  p.v_min = 0.5;
  p.v_max = 1.0;
  p.resolution = 32;
  p.radius = 1.0;
  const auto unit = make_random_waypoint(256, p, 9);
  const std::uint64_t peak_before = peak_rss_bytes();
  p.radius = 0.01;
  ASSERT_TRUE(ProximitySnapshotEngine::one_point(unit->grid(), p.radius));
  const auto tiny = make_random_waypoint(256, p, 9);
  for (int t = 0; t <= 50; ++t) {
    if (t > 0) {
      unit->step();
      tiny->step();
    }
    const Snapshot& a = unit->snapshot();
    const Snapshot& b = tiny->snapshot();
    ASSERT_EQ(decoded_edges(a), decoded_edges(b)) << "step " << t;
    const Snapshot::CsrView ca = a.csr();
    const Snapshot::CsrView cb = b.csr();
    ASSERT_TRUE(std::equal(ca.offsets, ca.offsets + 257, cb.offsets));
    ASSERT_TRUE(std::equal(ca.neighbors, ca.neighbors + ca.offsets[256],
                           cb.neighbors));
  }
  if (const std::uint64_t peak = peak_rss_bytes();
      peak > 0 && rss_guard_reliable()) {
    EXPECT_LT(peak - peak_before, std::uint64_t{64} << 20)
        << "a tiny radius allocated bucket storage";
  }
}

// Resolution sweep (paper footnote 3): the flooding time is insensitive
// to the discretization resolution once fine enough.
class ResolutionProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ResolutionProperty, FloodingInSameBallpark) {
  WaypointParams p = small_params();
  p.resolution = GetParam();
  double total = 0.0;
  constexpr int kTrials = 6;
  for (std::uint64_t seed = 1; seed <= kTrials; ++seed) {
    const auto model = make_random_waypoint(32, p, seed);
    for (std::uint64_t w = 0; w < model->suggested_warmup(); ++w) model->step();
    const FloodResult r = flood(*model, 0, 100000);
    ASSERT_TRUE(r.completed);
    total += static_cast<double>(r.rounds);
  }
  const double mean = total / kTrials;
  // Reference ballpark from the m = 32 configuration; generous envelope.
  EXPECT_GT(mean, 1.0);
  EXPECT_LT(mean, 200.0);
}

INSTANTIATE_TEST_SUITE_P(Resolutions, ResolutionProperty,
                         ::testing::Values(16, 32, 64, 128));

}  // namespace
}  // namespace megflood
