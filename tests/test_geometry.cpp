// Unit tests for points, the square-grid discretization, and the radius
// snapshot of agents on the grid (ProximitySnapshotEngine).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "canonical_pairs.hpp"
#include "geometry/point.hpp"
#include "geometry/square_grid.hpp"
#include "mobility/proximity_engine.hpp"
#include "step_hash.hpp"
#include "util/rng.hpp"

namespace megflood {
namespace {

TEST(Point2D, Distances) {
  const Point2D a{0.0, 0.0}, b{3.0, 4.0};
  EXPECT_DOUBLE_EQ(euclidean_distance(a, b), 5.0);
  EXPECT_DOUBLE_EQ(squared_distance(a, b), 25.0);
}

TEST(SquareGrid, BasicGeometry) {
  const SquareGrid g(5, 10.0);
  EXPECT_EQ(g.resolution(), 5u);
  EXPECT_EQ(g.num_points(), 25u);
  EXPECT_DOUBLE_EQ(g.spacing(), 2.5);
  EXPECT_DOUBLE_EQ(g.area(), 100.0);
}

TEST(SquareGrid, RejectsBadParams) {
  EXPECT_THROW(SquareGrid(1, 1.0), std::invalid_argument);
  EXPECT_THROW(SquareGrid(4, 0.0), std::invalid_argument);
  // From m = 65537 up, row * m + col no longer fits a 32-bit CellId.
  EXPECT_THROW(SquareGrid(65537, 64.0), std::invalid_argument);
}

// The finest grid still gives every point its own id: the far corner is
// the last id, 2^32 - 1.
TEST(SquareGrid, FinestResolutionKeepsIdsDistinct) {
  const SquareGrid g(65536, 64.0);
  const CellId corner = g.nearest({63.99999, 63.99999});
  EXPECT_EQ(corner, CellId{0xffffffffu});
  EXPECT_EQ(g.row(corner), 65535u);
  EXPECT_EQ(g.col(corner), 65535u);
  const CellId below = g.nearest({63.99999, 64.0 - 1.5 * g.spacing()});
  EXPECT_EQ(g.row(below), 65534u);
  EXPECT_EQ(g.col(below), 65535u);
}

TEST(SquareGrid, IndexRoundTrip) {
  const SquareGrid g(7, 1.0);
  for (std::size_t r = 0; r < 7; ++r) {
    for (std::size_t c = 0; c < 7; ++c) {
      const CellId id = g.index(r, c);
      EXPECT_EQ(g.row(id), r);
      EXPECT_EQ(g.col(id), c);
    }
  }
}

TEST(SquareGrid, PositionsCoverSquare) {
  const SquareGrid g(4, 3.0);
  const Point2D first = g.position(g.index(0, 0));
  const Point2D last = g.position(g.index(3, 3));
  EXPECT_DOUBLE_EQ(first.x, 0.0);
  EXPECT_DOUBLE_EQ(first.y, 0.0);
  EXPECT_DOUBLE_EQ(last.x, 3.0);
  EXPECT_DOUBLE_EQ(last.y, 3.0);
}

TEST(SquareGrid, NearestSnapsAndClamps) {
  const SquareGrid g(5, 4.0);  // spacing 1
  EXPECT_EQ(g.nearest({1.4, 2.6}), g.index(3, 1));
  EXPECT_EQ(g.nearest({-5.0, -5.0}), g.index(0, 0));
  EXPECT_EQ(g.nearest({100.0, 100.0}), g.index(4, 4));
}

// nearest() snaps with integer arithmetic; it must agree with the libm
// formula clamp(std::round(v), 0, m - 1) on every input, above all on
// the exact halves where the rounding direction is decided.
TEST(SquareGrid, NearestMatchesStdRoundEverywhere) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const std::size_t m : {2u, 3u, 32u, 256u, 4096u}) {
    const double top = static_cast<double>(m - 1);
    const auto oracle_axis = [&](double v) {
      return static_cast<std::size_t>(std::clamp(std::round(v), 0.0, top));
    };
    // Side m - 1 makes the spacing 1, so a coordinate is its own grid
    // value and the inputs below reach the rounding exactly.
    const SquareGrid unit(m, top);
    ASSERT_EQ(unit.spacing(), 1.0);
    std::vector<double> inputs{0.0,
                               -0.0,
                               -std::numeric_limits<double>::denorm_min(),
                               -1e-300,
                               -0.25,
                               -0.5,
                               std::nextafter(-0.5, 0.0),
                               std::nextafter(-0.5, -kInf),
                               top,
                               top + 0.5,
                               std::nextafter(top + 0.5, kInf),
                               std::nextafter(top + 0.5, -kInf),
                               top + 1.0,
                               4294967295.0,
                               4294967296.5,
                               1e18,
                               -1e18,
                               1e300,
                               -1e300,
                               kInf,
                               -kInf};
    for (double k = -2.0; k <= top + 1.0; k += 1.0) {
      const double half = k + 0.5;
      inputs.push_back(k);
      inputs.push_back(half);
      inputs.push_back(std::nextafter(half, kInf));
      inputs.push_back(std::nextafter(half, -kInf));
    }
    for (const double v : inputs) {
      const std::size_t axis = oracle_axis(v);
      ASSERT_EQ(unit.nearest({v, 0.0}), unit.index(0, axis))
          << "m " << m << " x " << v;
      ASSERT_EQ(unit.nearest({0.0, v}), unit.index(axis, 0))
          << "m " << m << " y " << v;
      ASSERT_EQ(unit.nearest({v, v}), unit.index(axis, axis))
          << "m " << m << " xy " << v;
    }
    // A non-unit spacing goes through the reciprocal multiply; the oracle
    // repeats the same product.
    const SquareGrid grid(m, 64.0);
    const double inv = 1.0 / (64.0 / top);
    Rng rng(m);
    for (int i = 0; i < 20000; ++i) {
      const Point2D p{rng.uniform(-2.0, 66.0), rng.uniform(-2.0, 66.0)};
      ASSERT_EQ(grid.nearest(p),
                grid.index(oracle_axis(p.y * inv), oracle_axis(p.x * inv)))
          << "m " << m << " at (" << p.x << ", " << p.y << ")";
    }
  }
}

TEST(SquareGrid, DiscMatchesBruteForce) {
  const SquareGrid g(9, 8.0);
  const CellId center = g.index(4, 4);
  const double radius = 2.5;
  const auto disc = g.disc(center, radius);
  std::set<CellId> got(disc.begin(), disc.end());
  std::set<CellId> expected;
  for (CellId id = 0; id < g.num_points(); ++id) {
    if (id == center) continue;
    if (euclidean_distance(g.position(id), g.position(center)) <= radius) {
      expected.insert(id);
    }
  }
  EXPECT_EQ(got, expected);
}

TEST(SquareGrid, DiscExcludesCenter) {
  const SquareGrid g(5, 4.0);
  const auto disc = g.disc(g.index(2, 2), 1.0);
  EXPECT_TRUE(std::find(disc.begin(), disc.end(), g.index(2, 2)) ==
              disc.end());
  EXPECT_EQ(disc.size(), 4u);  // the 4 axis neighbors at distance 1
}

TEST(SquareGrid, DiscInside) {
  const SquareGrid g(11, 10.0);  // spacing 1
  EXPECT_TRUE(g.disc_inside(g.index(5, 5), 3.0));
  EXPECT_FALSE(g.disc_inside(g.index(0, 5), 1.0));
  EXPECT_TRUE(g.disc_inside(g.index(1, 1), 1.0));
  EXPECT_FALSE(g.disc_inside(g.index(1, 1), 1.5));
}

// The engine's snapshot with agent i at grid point cells[i].
const Snapshot& snapshot_at(ProximitySnapshotEngine& engine,
                            const std::vector<CellId>& cells) {
  for (std::uint32_t i = 0; i < cells.size(); ++i) {
    engine.place(i, engine.grid().position(cells[i]));
  }
  engine.moved();
  return engine.snapshot();
}

TEST(ProximitySnapshotEngine, RejectsNonPositiveRadius) {
  const SquareGrid g(4, 1.0);
  EXPECT_THROW(ProximitySnapshotEngine(g, 0.0, 4), std::invalid_argument);
  EXPECT_THROW(ProximitySnapshotEngine(g, -1.0, 4), std::invalid_argument);
}

TEST(ProximitySnapshotEngine, NeighborsMatchBruteForce) {
  const SquareGrid g(16, 1.0);
  ProximitySnapshotEngine engine(g, 0.2, 40);
  // A deterministic spread of positions.
  std::vector<CellId> pos;
  for (std::uint32_t i = 0; i < 40; ++i) {
    pos.push_back(static_cast<CellId>((i * 37) % g.num_points()));
  }
  const Snapshot& snapshot = snapshot_at(engine, pos);
  for (NodeId i = 0; i < pos.size(); ++i) {
    const std::span<const NodeId> row = snapshot.neighbors(i);
    std::vector<NodeId> got(row.begin(), row.end());
    std::sort(got.begin(), got.end());
    std::vector<NodeId> expected;
    for (NodeId j = 0; j < pos.size(); ++j) {
      if (j == i) continue;
      if (euclidean_distance(g.position(pos[i]), g.position(pos[j])) <= 0.2) {
        expected.push_back(j);
      }
    }
    EXPECT_EQ(got, expected) << "node " << i;
  }
}

TEST(ProximitySnapshotEngine, PairSetMatchesBruteForce) {
  const SquareGrid g(12, 1.0);
  const double radius = 0.3;
  ProximitySnapshotEngine engine(g, radius, 30);
  std::vector<CellId> pos;
  for (std::uint32_t i = 0; i < 30; ++i) {
    pos.push_back(static_cast<CellId>((i * 53 + 7) % g.num_points()));
  }
  std::set<std::pair<NodeId, NodeId>> got;
  snapshot_at(engine, pos).for_each_edge([&](NodeId a, NodeId b) {
    got.insert({std::min(a, b), std::max(a, b)});
  });
  std::set<std::pair<NodeId, NodeId>> expected;
  for (NodeId i = 0; i < pos.size(); ++i) {
    for (NodeId j = i + 1; j < pos.size(); ++j) {
      if (euclidean_distance(g.position(pos[i]), g.position(pos[j])) <=
          radius) {
        expected.insert({i, j});
      }
    }
  }
  EXPECT_EQ(got, expected);
}

TEST(ProximitySnapshotEngine, PairsEmittedOnce) {
  const SquareGrid g(8, 1.0);
  ProximitySnapshotEngine engine(g, 0.5, 5);
  const std::vector<CellId> pos{0, 1, 2, 8, 9};  // a tight cluster
  std::multiset<std::pair<NodeId, NodeId>> seen;
  snapshot_at(engine, pos).for_each_edge([&](NodeId a, NodeId b) {
    seen.insert({std::min(a, b), std::max(a, b)});
  });
  EXPECT_FALSE(seen.empty());
  for (const auto& pair : seen) {
    EXPECT_EQ(seen.count(pair), 1u)
        << "pair (" << pair.first << "," << pair.second << ") duplicated";
  }
}

// Exact order, not just the pair set, against the canonical_pairs()
// oracle in every bucket regime; the one-point build is on exactly where
// each bucket holds one grid point.  Each case is checked again after a
// seventh of the agents move, on the engine's reused buffers.
TEST(ProximitySnapshotEngine, PairOrderMatchesCanonicalOrderInEveryRegime) {
  struct Regime {
    const char* name;
    std::size_t m;
    double side;
    double radius;
    std::size_t agents;
    bool collapsed;
    bool one_point;
  };
  const Regime regimes[] = {
      {"spacing > r (waypoint campaign)", 32, 64.0, 1.0, 4096, false, true},
      {"spacing == r", 65, 64.0, 1.0, 3000, false, false},
      {"spacing < r", 256, 64.0, 1.0, 4096, false, false},
      // bps == m - 1: the clamp merges columns 30 and 31 into bucket 30.
      {"bps == m - 1", 32, 31.0, 1.0, 3000, false, false},
      {"bps == 1", 8, 1.0, 1.5, 60, false, false},
      {"collapsed, coarse grid", 32, 64.0, 1.0, 300, true, true},
      {"collapsed, fine grid", 256, 64.0, 1.0, 300, true, false},
  };
  for (const Regime& regime : regimes) {
    SCOPED_TRACE(regime.name);
    const SquareGrid g(regime.m, regime.side);
    EXPECT_EQ(ProximitySnapshotEngine::one_point(g, regime.radius),
              regime.one_point);
    ProximitySnapshotEngine engine(g, regime.radius, regime.agents);
    Rng rng(regime.m * 1000 + regime.agents);
    std::vector<CellId> pos(regime.agents);
    const auto draw = [&] {
      return static_cast<CellId>(rng.uniform_int(g.num_points()));
    };
    const CellId spot = draw();
    for (auto& cell : pos) cell = regime.collapsed ? spot : draw();
    ASSERT_EQ(decoded_edges(snapshot_at(engine, pos)),
              canonical_pairs(g, regime.radius, pos));
    for (std::size_t i = 0; i < pos.size(); i += 7) pos[i] = draw();
    ASSERT_EQ(decoded_edges(snapshot_at(engine, pos)),
              canonical_pairs(g, regime.radius, pos));
  }
}

// The one-point predicate is the closed form floor(L / r) >= m.  Check
// it against walking the bucket map column by column (adjacent columns
// in distinct buckets, the clamp to bps - 1 included), and check that it
// implies r < spacing, so no within-radius pair spans two grid points.
TEST(ProximitySnapshotEngine, OnePointPredicateMatchesBucketWalk) {
  const std::size_t resolutions[] = {2, 3, 5, 8, 16, 31, 32, 33, 64, 256};
  const double sides[] = {1.0, 4.0, 7.5, 31.0, 32.0, 64.0};
  const double radii[] = {0.01, 0.1, 0.4, 0.5, 0.99, 1.0, 1.5, 2.0, 3.0};
  std::size_t one_point_cases = 0;
  for (const std::size_t m : resolutions) {
    for (const double side : sides) {
      for (const double radius : radii) {
        SCOPED_TRACE(::testing::Message() << "m=" << m << " L=" << side
                                          << " r=" << radius);
        const SquareGrid g(m, side);
        const auto bps = std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(std::floor(side / radius)));
        const auto bucket = [&](std::uint64_t col) {
          return std::min(col * bps / (m - 1), bps - 1);
        };
        bool walk = true;
        for (std::uint64_t col = 1; col < m; ++col) {
          walk = walk && bucket(col) != bucket(col - 1);
        }
        const bool one_point = ProximitySnapshotEngine::one_point(g, radius);
        EXPECT_EQ(one_point, walk);
        if (one_point) {
          ++one_point_cases;
          EXPECT_LT(radius, g.spacing());
        }
      }
    }
  }
  EXPECT_GT(one_point_cases, 50u);
  // Computed without forming a bucket count, so any positive radius is
  // safe; the radius check matches the constructor's.
  EXPECT_TRUE(ProximitySnapshotEngine::one_point(SquareGrid(32, 64.0), 1e-300));
  EXPECT_THROW(ProximitySnapshotEngine::one_point(SquareGrid(32, 64.0), 0.0),
               std::invalid_argument);
}

// Property: with one agent on every grid point, the snapshot's edge
// count matches the analytic disc count.
class ProximityDensity : public ::testing::TestWithParam<double> {};

TEST_P(ProximityDensity, FullGridPairCount) {
  const SquareGrid g(10, 1.0);
  const double radius = GetParam();
  ProximitySnapshotEngine engine(g, radius, g.num_points());
  std::vector<CellId> pos(g.num_points());
  for (CellId c = 0; c < g.num_points(); ++c) pos[c] = c;
  std::size_t expected = 0;
  for (CellId c = 0; c < g.num_points(); ++c) {
    expected += g.disc(c, radius).size();
  }
  EXPECT_EQ(snapshot_at(engine, pos).num_edges(), expected / 2);
}

INSTANTIATE_TEST_SUITE_P(Radii, ProximityDensity,
                         ::testing::Values(0.12, 0.2, 0.35));

}  // namespace
}  // namespace megflood
