// Unit tests for points, the square-grid discretization, and the bucketed
// neighbor index.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <vector>

#include "geometry/point.hpp"
#include "geometry/square_grid.hpp"
#include "util/rng.hpp"

namespace megflood {
namespace {

TEST(Point2D, Distances) {
  const Point2D a{0.0, 0.0}, b{3.0, 4.0};
  EXPECT_DOUBLE_EQ(euclidean_distance(a, b), 5.0);
  EXPECT_DOUBLE_EQ(squared_distance(a, b), 25.0);
  EXPECT_DOUBLE_EQ(manhattan_distance(a, b), 7.0);
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

TEST(SquareGrid, InteriorCount) {
  const SquareGrid g(5, 4.0);  // spacing 1
  // radius 1: interior points are the 3x3 center block.
  EXPECT_EQ(g.interior_count(1.0), 9u);
  // radius > L/2: nothing fits.
  EXPECT_EQ(g.interior_count(2.5), 0u);
}

TEST(NeighborIndex, RejectsNonPositiveRadius) {
  const SquareGrid g(4, 1.0);
  EXPECT_THROW(NeighborIndex(g, 0.0), std::invalid_argument);
}

TEST(NeighborIndex, NeighborsMatchBruteForce) {
  const SquareGrid g(16, 1.0);
  NeighborIndex index(g, 0.2);
  // A deterministic spread of positions.
  std::vector<CellId> pos;
  for (std::uint32_t i = 0; i < 40; ++i) {
    pos.push_back(static_cast<CellId>((i * 37) % g.num_points()));
  }
  index.rebuild(pos);
  for (std::uint32_t i = 0; i < pos.size(); ++i) {
    auto got = index.neighbors_of(i);
    std::sort(got.begin(), got.end());
    std::vector<std::uint32_t> expected;
    for (std::uint32_t j = 0; j < pos.size(); ++j) {
      if (j == i) continue;
      if (euclidean_distance(g.position(pos[i]), g.position(pos[j])) <= 0.2) {
        expected.push_back(j);
      }
    }
    EXPECT_EQ(got, expected) << "node " << i;
  }
}

TEST(NeighborIndex, ForEachPairMatchesBruteForce) {
  const SquareGrid g(12, 1.0);
  const double radius = 0.3;
  NeighborIndex index(g, radius);
  std::vector<CellId> pos;
  for (std::uint32_t i = 0; i < 30; ++i) {
    pos.push_back(static_cast<CellId>((i * 53 + 7) % g.num_points()));
  }
  index.rebuild(pos);
  std::set<std::pair<std::uint32_t, std::uint32_t>> got;
  index.for_each_pair([&](std::uint32_t a, std::uint32_t b) {
    got.insert({std::min(a, b), std::max(a, b)});
  });
  std::set<std::pair<std::uint32_t, std::uint32_t>> expected;
  for (std::uint32_t i = 0; i < pos.size(); ++i) {
    for (std::uint32_t j = i + 1; j < pos.size(); ++j) {
      if (euclidean_distance(g.position(pos[i]), g.position(pos[j])) <=
          radius) {
        expected.insert({i, j});
      }
    }
  }
  EXPECT_EQ(got, expected);
}

TEST(NeighborIndex, PairsEmittedOnce) {
  const SquareGrid g(8, 1.0);
  NeighborIndex index(g, 0.5);
  std::vector<CellId> pos{0, 1, 2, 8, 9};  // a tight cluster
  index.rebuild(pos);
  std::multiset<std::pair<std::uint32_t, std::uint32_t>> seen;
  index.for_each_pair([&](std::uint32_t a, std::uint32_t b) {
    seen.insert({std::min(a, b), std::max(a, b)});
  });
  for (const auto& pair : seen) {
    EXPECT_EQ(seen.count(pair), 1u)
        << "pair (" << pair.first << "," << pair.second << ") duplicated";
  }
}

using PairList = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

// collect_pairs() with its keys decoded to (a, b) pairs.
PairList pairs_of(const NeighborIndex& index) {
  std::vector<std::uint64_t> keys;
  index.collect_pairs(keys);
  PairList out;
  for (const std::uint64_t key : keys) {
    out.emplace_back(pair_key_i(key), pair_key_j(key));
  }
  return out;
}

TEST(NeighborIndex, CollectPairsMatchesForEachPair) {
  const SquareGrid g(12, 1.0);
  NeighborIndex index(g, 0.3);
  std::vector<CellId> pos;
  for (std::uint32_t i = 0; i < 30; ++i) {
    pos.push_back(static_cast<CellId>((i * 53 + 7) % g.num_points()));
  }
  index.rebuild(pos);
  PairList visited;
  index.for_each_pair([&](std::uint32_t a, std::uint32_t b) {
    visited.emplace_back(a, b);
  });
  EXPECT_EQ(visited, pairs_of(index));
}

// Brute-force oracle for collect_pairs(): re-derives every node's bucket
// from the documented formula and emits the within-radius pairs in the
// documented order — buckets row-major; within a bucket, then its E, SW,
// S and SE neighbours; members ascending by node id.
PairList canonical_pairs(const SquareGrid& g, double radius,
                         const std::vector<CellId>& pos) {
  const std::size_t m = g.resolution();
  const std::uint64_t bps = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::floor(g.side_length() / radius)));
  const auto axis_bucket = [&](std::uint64_t coord) {
    return std::min<std::uint64_t>(coord * bps / (m - 1), bps - 1);
  };
  std::vector<std::vector<std::uint32_t>> members(bps * bps);
  for (std::uint32_t node = 0; node < pos.size(); ++node) {
    members[axis_bucket(g.row(pos[node])) * bps +
            axis_bucket(g.col(pos[node]))]
        .push_back(node);
  }
  const double r2 = radius * radius;
  PairList out;
  const auto scan = [&](const std::vector<std::uint32_t>& home,
                        const std::vector<std::uint32_t>& other, bool same) {
    for (std::size_t a = 0; a < home.size(); ++a) {
      for (std::size_t c = same ? a + 1 : 0; c < other.size(); ++c) {
        if (squared_distance(g.position(pos[home[a]]),
                             g.position(pos[other[c]])) <= r2) {
          out.emplace_back(home[a], other[c]);
        }
      }
    }
  };
  const auto ibps = static_cast<std::int64_t>(bps);
  for (std::int64_t br = 0; br < ibps; ++br) {
    for (std::int64_t bc = 0; bc < ibps; ++bc) {
      const auto& home = members[br * ibps + bc];
      scan(home, home, true);
      const std::int64_t forward[4][2] = {{0, 1}, {1, -1}, {1, 0}, {1, 1}};
      for (const auto& off : forward) {
        const std::int64_t nr = br + off[0], nc = bc + off[1];
        if (nr < 0 || nr >= ibps || nc < 0 || nc >= ibps) continue;
        scan(home, members[nr * ibps + nc], false);
      }
    }
  }
  return out;
}

// Exact order, not just the pair set, in every bucket regime; the
// one-point shortcut is on exactly where each bucket holds one grid
// point.  Each case also re-checks after an incremental refresh.
TEST(NeighborIndex, PairOrderMatchesCanonicalOrderInEveryRegime) {
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
    NeighborIndex index(g, regime.radius);
    EXPECT_EQ(NeighborIndex::one_point_buckets(g, regime.radius),
              regime.one_point);
    Rng rng(regime.m * 1000 + regime.agents);
    std::vector<CellId> pos(regime.agents);
    const auto draw = [&] {
      return static_cast<CellId>(rng.uniform_int(g.num_points()));
    };
    const CellId spot = draw();
    for (auto& cell : pos) cell = regime.collapsed ? spot : draw();
    index.refresh(pos);
    ASSERT_EQ(pairs_of(index), canonical_pairs(g, regime.radius, pos));
    for (std::size_t i = 0; i < pos.size(); i += 7) pos[i] = draw();
    index.refresh(pos);
    ASSERT_EQ(pairs_of(index), canonical_pairs(g, regime.radius, pos));
  }
}

// The incremental update path must be indistinguishable from a full
// rebuild: after any stream of single-node moves, the emitted pair list
// (content *and* order) matches a fresh index rebuilt from the same
// positions.
TEST(NeighborIndex, UpdateMatchesFullRebuildUnderRandomMoves) {
  const SquareGrid g(24, 1.0);
  NeighborIndex incremental(g, 0.18);
  NeighborIndex reference(g, 0.18);
  std::vector<CellId> pos(60);
  for (std::uint32_t i = 0; i < pos.size(); ++i) {
    pos[i] = static_cast<CellId>((i * 97 + 13) % g.num_points());
  }
  incremental.rebuild(pos);
  std::uint64_t x = 0x2545f4914f6cdd1dULL;  // tiny deterministic LCG
  const auto rnd = [&](std::uint64_t bound) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return (x >> 33) % bound;
  };
  for (int move = 0; move < 600; ++move) {
    const auto node = static_cast<std::uint32_t>(rnd(pos.size()));
    pos[node] = static_cast<CellId>(rnd(g.num_points()));
    incremental.update(node, pos[node]);
    reference.rebuild(pos);
    ASSERT_EQ(pairs_of(incremental), pairs_of(reference)) << "move " << move;
  }
}

TEST(NeighborIndex, UpdateSurvivesBucketOverflowRecompaction) {
  // Funnel every node into one bucket so the destination slice overflows
  // its slack repeatedly and update() takes the recompaction path.
  const SquareGrid g(32, 8.0);
  NeighborIndex incremental(g, 1.0);
  NeighborIndex reference(g, 1.0);
  std::vector<CellId> pos(64);
  for (std::uint32_t i = 0; i < pos.size(); ++i) {
    pos[i] = static_cast<CellId>((i * 131) % g.num_points());
  }
  incremental.rebuild(pos);
  for (std::uint32_t node = 0; node < pos.size(); ++node) {
    pos[node] = g.nearest({0.1 * (node % 4), 0.1 * (node / 16)});
    incremental.update(node, pos[node]);
    reference.rebuild(pos);
    ASSERT_EQ(pairs_of(incremental), pairs_of(reference)) << "node " << node;
  }
}

TEST(NeighborIndex, RefreshMatchesFullRebuildAtAnyChurn) {
  // refresh() picks between per-node updates and the batch rebuild by a
  // churn threshold; both sides of the switch must agree with a scratch
  // full rebuild.
  const SquareGrid g(20, 1.0);
  NeighborIndex incremental(g, 0.21);
  NeighborIndex reference(g, 0.21);
  std::vector<CellId> pos(48);
  for (std::uint32_t i = 0; i < pos.size(); ++i) {
    pos[i] = static_cast<CellId>((i * 61 + 5) % g.num_points());
  }
  incremental.rebuild(pos);
  std::uint64_t x = 42;
  const auto rnd = [&](std::uint64_t bound) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return (x >> 33) % bound;
  };
  for (int round = 0; round < 200; ++round) {
    // Alternate low churn (a couple of nodes) and full-churn rounds.
    const std::size_t movers = (round % 2 == 0) ? 2 : pos.size();
    for (std::size_t m = 0; m < movers; ++m) {
      pos[rnd(pos.size())] = static_cast<CellId>(rnd(g.num_points()));
    }
    incremental.refresh(pos);
    reference.rebuild(pos);
    ASSERT_EQ(pairs_of(incremental), pairs_of(reference)) << "round " << round;
  }
}

// The one-point predicate is the closed form floor(L / r) >= m.  Check
// it against walking the bucket map column by column (adjacent columns
// in distinct buckets, the clamp to bps - 1 included), and check that it
// implies r < spacing, so no within-radius pair spans two grid points.
TEST(NeighborIndex, OnePointPredicateMatchesBucketWalk) {
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
        const bool one_point = NeighborIndex::one_point_buckets(g, radius);
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
  EXPECT_TRUE(NeighborIndex::one_point_buckets(SquareGrid(32, 64.0), 1e-300));
  EXPECT_THROW(NeighborIndex::one_point_buckets(SquareGrid(32, 64.0), 0.0),
               std::invalid_argument);
}

// Property: for a full occupancy of the grid, the number of index-reported
// pairs matches the analytic disc count.
class NeighborIndexDensity : public ::testing::TestWithParam<double> {};

TEST_P(NeighborIndexDensity, FullGridPairCount) {
  const SquareGrid g(10, 1.0);
  const double radius = GetParam();
  NeighborIndex index(g, radius);
  std::vector<CellId> pos(g.num_points());
  for (CellId c = 0; c < g.num_points(); ++c) pos[c] = c;
  index.rebuild(pos);
  std::size_t pairs = 0;
  index.for_each_pair([&](std::uint32_t, std::uint32_t) { ++pairs; });
  std::size_t expected = 0;
  for (CellId c = 0; c < g.num_points(); ++c) {
    expected += g.disc(c, radius).size();
  }
  EXPECT_EQ(pairs, expected / 2);
}

INSTANTIATE_TEST_SUITE_P(Radii, NeighborIndexDensity,
                         ::testing::Values(0.12, 0.2, 0.35));

}  // namespace
}  // namespace megflood
