// Mobility-engine equivalence: every snapshot the waypoint/trip models
// emit must be exactly — same edges, same order — what the brute-force
// canonical_pairs() oracle (canonical_pairs.hpp) lists for the same
// agent cells.  Covers long runs at paper speeds (v << L, agents rarely
// change bucket), fast runs (most agents change bucket every step),
// collapse_to() and reset().
//
// The models also build snapshots lazily (ProximitySnapshotEngine): a
// step nobody reads only moves the agents.  The DeferredReads tests run
// two same-seed models in lockstep, one reading after every operation
// and one on a sparse seeded schedule, and require the same edges in the
// same order at every read of the second.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "canonical_pairs.hpp"
#include "geometry/point.hpp"
#include "geometry/square_grid.hpp"
#include "mobility/proximity_engine.hpp"
#include "mobility/random_trip.hpp"
#include "step_hash.hpp"
#include "util/rng.hpp"

namespace megflood {
namespace {

using PairList = std::vector<std::pair<NodeId, NodeId>>;

// The oracle's pair list for the model's current agent cells.
template <typename Model>
PairList oracle_pairs(const Model& model, double radius) {
  std::vector<CellId> cells(model.num_nodes());
  for (NodeId i = 0; i < model.num_nodes(); ++i) {
    cells[i] = model.agent_cell(i);
  }
  return canonical_pairs(model.grid(), radius, cells);
}

template <typename Model>
void expect_snapshot_matches_oracle(const Model& model, double radius,
                                    const char* what, int step) {
  ASSERT_EQ(decoded_edges(model.snapshot()), oracle_pairs(model, radius))
      << what << " step " << step;
}

TEST(MobilityOracle, WaypointSlowSpeedLongRun) {
  // Paper regime: v_max = L/400 per round, far below the bucket width, so
  // few agents change bucket in a round.
  WaypointParams p;
  p.side_length = 8.0;
  p.v_min = 0.01;
  p.v_max = 0.02;
  p.radius = 1.0;
  p.resolution = 48;
  const auto model = make_random_waypoint(40, p, 17);
  for (int t = 0; t < 400; ++t) {
    expect_snapshot_matches_oracle(*model, p.radius, "slow waypoint", t);
    model->step();
  }
}

TEST(MobilityOracle, WaypointFastSpeed) {
  // v comparable to the bucket width: most agents change bucket in a
  // round.
  WaypointParams p;
  p.side_length = 8.0;
  p.v_min = 0.5;
  p.v_max = 1.0;
  p.radius = 1.0;
  p.resolution = 48;
  const auto model = make_random_waypoint(48, p, 23);
  for (int t = 0; t < 200; ++t) {
    expect_snapshot_matches_oracle(*model, p.radius, "fast waypoint", t);
    model->step();
  }
}

TEST(MobilityOracle, WaypointCollapseAndReset) {
  WaypointParams p;
  p.side_length = 6.0;
  p.v_min = 0.05;
  p.v_max = 0.1;
  p.radius = 1.0;
  p.resolution = 32;
  const auto model = make_random_waypoint(32, p, 5);
  for (int t = 0; t < 50; ++t) model->step();
  // Worst-case start: everyone lands in one cell (maximum bucket load),
  // then disperses.
  model->collapse_to({3.0, 3.0});
  for (int t = 0; t < 120; ++t) {
    expect_snapshot_matches_oracle(*model, p.radius, "post-collapse", t);
    model->step();
  }
  // reset() re-derives everything from a fresh seed; the snapshots must
  // stay equivalent.
  model->reset(99);
  for (int t = 0; t < 120; ++t) {
    expect_snapshot_matches_oracle(*model, p.radius, "post-reset", t);
    model->step();
  }
  // Determinism: a second reset from the same seed replays the stream.
  model->reset(1234);
  std::vector<PairList> trace;
  for (int t = 0; t < 30; ++t) {
    trace.push_back(decoded_edges(model->snapshot()));
    model->step();
  }
  model->reset(1234);
  for (int t = 0; t < 30; ++t) {
    ASSERT_EQ(decoded_edges(model->snapshot()),
              trace[static_cast<std::size_t>(t)])
        << "replay step " << t;
    model->step();
  }
}

TEST(MobilityOracle, RandomTripPausePolicyLongRun) {
  // Pauses keep a subset of agents perfectly still while movers cross
  // buckets.
  const auto policy =
      std::make_shared<SquareWaypointPolicy>(6.0, 0.05, 0.15, 2, 6);
  RandomTripModel model(36, policy, 1.0, 32, 31);
  const double radius = 1.0;
  for (int t = 0; t < 300; ++t) {
    expect_snapshot_matches_oracle(model, radius, "trip pause", t);
    model.step();
  }
  model.reset(7);
  for (int t = 0; t < 100; ++t) {
    expect_snapshot_matches_oracle(model, radius, "trip reset", t);
    model.step();
  }
}

TEST(MobilityOracle, RandomTripDirectionPolicy) {
  const auto policy =
      std::make_shared<RandomDirectionPolicy>(6.0, 0.05, 0.2, 0.5, 2.0);
  RandomTripModel model(36, policy, 0.8, 40, 43);
  const double radius = 0.8;
  for (int t = 0; t < 250; ++t) {
    expect_snapshot_matches_oracle(model, radius, "trip direction", t);
    model.step();
  }
}

// Two same-seed models under one operation script: `eager` reads its
// snapshot after every operation (the pre-deferral behaviour), `lazy`
// only where the script calls read().  Each read is also checked against
// the oracle over the current cells, which two equally stale models
// would fail.
template <typename Model>
struct Lockstep {
  Lockstep(Model& eager_model, Model& lazy_model, double radius,
           const char* label)
      : eager(eager_model),
        lazy(lazy_model),
        radius(radius),
        what(label) {}

  Model& eager;
  Model& lazy;
  double radius;
  const char* what;
  int op = 0;

  template <typename Op>
  void apply(Op&& operation) {
    operation(eager);
    operation(lazy);
    ++op;
    (void)eager.snapshot();
    expect_cells_current();
  }
  void step() {
    apply([](Model& m) { m.step(); });
  }
  void reset(std::uint64_t seed) {
    apply([seed](Model& m) { m.reset(seed); });
  }

  // The lazy snapshot is stale here; agent cells must not be.
  void expect_cells_current() const {
    for (NodeId i = 0; i < lazy.num_nodes(); ++i) {
      ASSERT_EQ(lazy.agent_cell(i),
                lazy.grid().nearest(lazy.agent_position(i)))
          << what << " op " << op << " agent " << i;
      ASSERT_EQ(lazy.agent_cell(i), eager.agent_cell(i))
          << what << " op " << op << " agent " << i;
    }
  }

  void read() {
    ASSERT_EQ(lazy.time(), eager.time()) << what << " op " << op;
    const PairList& edges = decoded_edges(lazy.snapshot());
    ASSERT_EQ(edges, decoded_edges(eager.snapshot())) << what << " op " << op;
    ASSERT_EQ(edges, oracle_pairs(lazy, radius))
        << what << " op " << op;
  }

  void unread_steps(int steps) {
    for (int s = 0; s < steps && !::testing::Test::HasFatalFailure(); ++s) {
      step();
    }
  }

  // `steps` steps; the lazy model reads after each with probability 1/8.
  void sparse_reads(int steps, Rng& schedule) {
    for (int s = 0; s < steps && !::testing::Test::HasFatalFailure(); ++s) {
      step();
      if (schedule.uniform_int(8) == 0) read();
    }
  }

  // The script every model runs: runs of 256 unread steps, sparse reads,
  // a read right after reset(), and a step between reset() and the first
  // read.
  void run_script(std::uint64_t schedule_seed) {
    Rng schedule(schedule_seed);
    read();
    unread_steps(256);
    read();
    sparse_reads(300, schedule);
    unread_steps(256);
    sparse_reads(100, schedule);
    reset(schedule_seed + 1);
    read();
    sparse_reads(200, schedule);
    reset(schedule_seed + 2);
    step();
    read();
    unread_steps(256);
    read();
  }
};

TEST(MobilityDeferredReads, WaypointSlow) {
  WaypointParams p;
  p.side_length = 8.0;
  p.v_min = 0.01;
  p.v_max = 0.02;
  p.radius = 1.0;
  p.resolution = 48;
  const auto eager = make_random_waypoint(40, p, 17);
  const auto lazy = make_random_waypoint(40, p, 17);
  Lockstep<RandomTripModel> pair(*eager, *lazy, p.radius, "slow waypoint");
  ASSERT_NO_FATAL_FAILURE(pair.run_script(101));
}

TEST(MobilityDeferredReads, WaypointFastWithCollapse) {
  WaypointParams p;
  p.side_length = 8.0;
  p.v_min = 0.5;
  p.v_max = 1.0;
  p.radius = 1.0;
  p.resolution = 48;
  const auto eager = make_random_waypoint(48, p, 23);
  const auto lazy = make_random_waypoint(48, p, 23);
  Lockstep<RandomTripModel> pair(*eager, *lazy, p.radius, "fast waypoint");
  ASSERT_NO_FATAL_FAILURE(pair.run_script(202));
  const auto collapse = [](RandomTripModel& m) {
    m.collapse_to({4.0, 4.0});
  };
  // A read right after collapse_to(), then one after unread steps.
  pair.apply(collapse);
  ASSERT_NO_FATAL_FAILURE(pair.read());
  Rng schedule(303);
  ASSERT_NO_FATAL_FAILURE(pair.sparse_reads(120, schedule));
  pair.apply(collapse);
  ASSERT_NO_FATAL_FAILURE(pair.unread_steps(40));
  ASSERT_NO_FATAL_FAILURE(pair.read());
}

TEST(MobilityDeferredReads, RandomTripPolicies) {
  const std::vector<std::pair<const char*, std::shared_ptr<const TripPolicy>>>
      policies = {
          {"trip pause",
           std::make_shared<SquareWaypointPolicy>(6.0, 0.05, 0.15, 2, 6)},
          {"trip direction",
           std::make_shared<RandomDirectionPolicy>(6.0, 0.05, 0.2, 0.5, 2.0)},
          {"trip disk", std::make_shared<DiskWaypointPolicy>(6.0, 0.05, 0.2)},
      };
  std::uint64_t seed = 31;
  for (const auto& [what, policy] : policies) {
    RandomTripModel eager(36, policy, 1.0, 32, seed);
    RandomTripModel lazy(36, policy, 1.0, 32, seed);
    Lockstep<RandomTripModel> pair(eager, lazy, 1.0, what);
    ASSERT_NO_FATAL_FAILURE(pair.run_script(seed * 7));
    ++seed;
  }
}

// The clique snapshot of one-point grid cells, as the key array of a
// Snapshot whose CSR is built lazily: agents sorted by (point, agent),
// each member paired with every later member of its point.
Snapshot sorted_cliques(const std::vector<CellId>& cells) {
  std::vector<std::pair<CellId, NodeId>> by_point;
  for (NodeId i = 0; i < cells.size(); ++i) by_point.emplace_back(cells[i], i);
  std::sort(by_point.begin(), by_point.end());
  Snapshot cliques(cells.size());
  std::vector<std::uint64_t>& keys = cliques.key_buffer();
  for (std::size_t a = 0; a < by_point.size(); ++a) {
    for (std::size_t b = a + 1;
         b < by_point.size() && by_point[b].first == by_point[a].first; ++b) {
      keys.push_back(pack_pair(by_point[a].second, by_point[b].second));
    }
  }
  return cliques;
}

// The engine's build against the references: canonical_pairs() over the
// same cells, where its bucket table fits, and on one-point grids
// sorted_cliques().  The keys and both CSR arrays (built by the engine
// on one-point grids, lazily on multi-point ones) must match the lazily
// built CSR of the reference exactly, over several rounds of fresh
// random positions (the engine reuses its buffers).  The cases include
// both sides of the regime boundary (bps = m and bps = m - 1), cliques
// larger than the build's write blocks, every agent on one point, and
// grids with many more points (or buckets) than agents (m = 256 with its
// agents crowded into a corner, m = 4096 and m = 2^16; the ranked
// multi-point cases), which the build ranks by occupied point.
TEST(MobilityCliqueBuild, MatchesOracleAndLazyCsr) {
  struct Case {
    const char* name;
    std::size_t m;
    double side;
    double radius;
    std::size_t agents;
    double spread;  // agents are placed in [0, spread]^2
    bool collapsed;
    bool one_point;
  };
  const Case cases[] = {
      {"waypoint campaign", 32, 64.0, 1.0, 4096, 64.0, false, true},
      {"bps == m", 32, 32.0, 1.0, 3000, 32.0, false, true},
      {"bps == m - 1 (clamp merge)", 32, 31.0, 1.0, 3000, 31.0, false, false},
      {"dense cliques", 8, 4.0, 0.4, 2000, 4.0, false, true},
      {"one point", 16, 8.0, 0.5, 300, 8.0, true, true},
      {"multi-point", 64, 16.0, 1.0, 1000, 16.0, false, false},
      {"multi-point, ranked", 256, 64.0, 1.0, 500, 64.0, false, false},
      {"multi-point, ranked, crowded corner", 1024, 64.0, 0.1, 300, 2.0,
       false, false},
      {"fine grid, crowded corner", 256, 64.0, 0.2, 1000, 1.0, false, true},
      {"m = 4096", 4096, 64.0, 0.01, 256, 64.0, false, true},
      {"m = 4096, one point", 4096, 64.0, 0.01, 256, 64.0, true, true},
      {"m = 2^16", 65536, 64.0, 0.0005, 1000, 0.05, false, true},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const SquareGrid grid(c.m, c.side);
    ASSERT_EQ(ProximitySnapshotEngine::one_point(grid, c.radius),
              c.one_point);
    if (c.one_point) {
      EXPECT_LT(c.radius, grid.spacing());
    }
    // The oracle's table of bps^2 buckets is the reference only where it
    // is small; sorted_cliques() covers every one-point case.
    const double bps = std::floor(c.side / c.radius);
    const bool oracle = bps * bps <= 1e6;
    ASSERT_TRUE(oracle || c.one_point);
    ProximitySnapshotEngine engine(grid, c.radius, c.agents);
    Rng rng(c.m * 7919 + c.agents);
    for (int round = 0; round < 4; ++round) {
      const Point2D spot{rng.uniform(0.0, c.spread),
                         rng.uniform(0.0, c.spread)};
      for (std::uint32_t i = 0; i < c.agents; ++i) {
        engine.place(i, c.collapsed ? spot
                                    : Point2D{rng.uniform(0.0, c.spread),
                                              rng.uniform(0.0, c.spread)});
      }
      engine.moved();
      std::vector<CellId> cells(c.agents);
      for (std::uint32_t i = 0; i < c.agents; ++i) {
        cells[i] = grid.nearest(engine.position(i));
      }
      std::vector<Snapshot> references;
      if (oracle) {
        Snapshot& reference = references.emplace_back(c.agents);
        for (const auto& [a, b] : canonical_pairs(grid, c.radius, cells)) {
          reference.key_buffer().push_back(pack_pair(a, b));
        }
      }
      if (c.one_point) references.push_back(sorted_cliques(cells));

      const Snapshot& got = engine.snapshot();
      for (const Snapshot& reference : references) {
        ASSERT_EQ(decoded_edges(got), decoded_edges(reference))
            << "round " << round;
        const Snapshot::CsrView a = got.csr();
        const Snapshot::CsrView b = reference.csr();
        const std::vector<std::uint32_t> offsets(a.offsets,
                                                 a.offsets + c.agents + 1);
        ASSERT_EQ(offsets, std::vector<std::uint32_t>(
                               b.offsets, b.offsets + c.agents + 1))
            << "round " << round;
        ASSERT_EQ(std::vector<NodeId>(a.neighbors,
                                      a.neighbors + offsets.back()),
                  std::vector<NodeId>(b.neighbors,
                                      b.neighbors + offsets.back()))
            << "round " << round;
        EXPECT_EQ(offsets.back(), 2 * got.num_edges());
      }
      if (c.one_point) {
        // The sort's scratch is linear in the agents, however many points
        // the grid has (a grid-sized counter table held 4 * m^2 bytes).
        EXPECT_LE(engine.sort_scratch_bytes(), 64 * c.agents + 4096)
            << "round " << round;
      }
    }
  }
}

}  // namespace
}  // namespace megflood
