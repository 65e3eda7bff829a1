// Tests for the empirical positional mixing-time estimator, validated
// against exact mixing of small explicit chains.

#include <gtest/gtest.h>

#include <memory>

#include "analysis/mixing_estimator.hpp"
#include "graph/builders.hpp"
#include "markov/chain.hpp"
#include "markov/mixing.hpp"
#include "mobility/random_trip.hpp"
#include "mobility/random_walk.hpp"

namespace megflood {
namespace {

TEST(PositionalMixing, WalkOnCycleDecaysAndMatchesExactOrder) {
  // Random walk model on a cycle, all agents started at point 0; the
  // positional TV profile must decay below 0.25 around the chain's exact
  // mixing time.
  const auto g = std::make_shared<const Graph>(cycle_graph(12));
  const auto reference = [&] {
    // pi(v) proportional to ball size + 1: uniform on a cycle.
    return std::vector<double>(12, 1.0 / 12.0);
  }();
  auto factory = [&](std::uint64_t seed) {
    auto model = std::make_unique<RandomWalkModel>(g, 64, RandomWalkParams{},
                                                   seed);
    model->set_all_positions(0);
    return model;
  };
  const auto cell_of = [](const DynamicGraph& d, NodeId a) {
    return static_cast<CellId>(
        static_cast<const RandomWalkModel&>(d).agent_position(a));
  };
  const auto profile = positional_mixing_profile(factory, 12, cell_of,
                                                 reference, 8, 120, 0.25);
  ASSERT_NE(profile.mixing_time, SIZE_MAX);
  EXPECT_NEAR(profile.tv.front(), 1.0 - 1.0 / 12.0, 1e-6);

  // Exact mixing time of the corresponding explicit chain (uniform move
  // over ball(1) + self = lazy-ish walk).  Build it directly.
  const std::size_t exact = mixing_time_from_starts(
      [] {
        const Graph cy = cycle_graph(12);
        std::vector<std::vector<double>> rows(12,
                                              std::vector<double>(12, 0.0));
        for (VertexId v = 0; v < 12; ++v) {
          rows[v][v] = 1.0 / 3.0;
          for (VertexId u : cy.neighbors(v)) rows[v][u] = 1.0 / 3.0;
        }
        return DenseChain(rows);
      }(),
      {0}, 0.25);
  // Empirical estimate should land within a small factor of exact.
  EXPECT_LE(profile.mixing_time, 3 * exact + 3);
  EXPECT_GE(profile.mixing_time + 3, exact / 3);
}

TEST(PositionalMixing, NeverMixedReportsSizeMax) {
  // Against a wrong reference (all mass on one cell) the TV never drops.
  const auto g = std::make_shared<const Graph>(cycle_graph(8));
  std::vector<double> bad_ref(8, 0.0);
  bad_ref[0] = 1.0;
  auto factory = [&](std::uint64_t seed) {
    return std::make_unique<RandomWalkModel>(g, 16, RandomWalkParams{}, seed);
  };
  const auto cell_of = [](const DynamicGraph& d, NodeId a) {
    return static_cast<CellId>(
        static_cast<const RandomWalkModel&>(d).agent_position(a));
  };
  const auto profile =
      positional_mixing_profile(factory, 8, cell_of, bad_ref, 4, 30, 0.05);
  EXPECT_EQ(profile.mixing_time, SIZE_MAX);
  EXPECT_EQ(profile.tv.size(), 31u);
}

TEST(PositionalMixing, ValidationErrors) {
  const auto g = std::make_shared<const Graph>(cycle_graph(4));
  auto factory = [&](std::uint64_t seed) {
    return std::make_unique<RandomWalkModel>(g, 4, RandomWalkParams{}, seed);
  };
  const auto cell_of = [](const DynamicGraph&, NodeId) { return CellId{0}; };
  EXPECT_THROW((void)positional_mixing_profile(factory, 4, cell_of,
                                               std::vector<double>(3, 0.25),
                                               2, 5),
               std::invalid_argument);
  EXPECT_THROW((void)positional_mixing_profile(factory, 4, cell_of,
                                               std::vector<double>(4, 0.25),
                                               0, 5),
               std::invalid_argument);
}

TEST(PositionalMixing, WaypointMixingScalesWithLOverV) {
  // T_mix(RWP) = Theta(L / v_max): doubling the speed should roughly
  // halve the empirical positional mixing time from a corner start.
  auto run = [&](double vscale) {
    WaypointParams p;
    p.side_length = 1.0;
    p.v_min = 0.02 * vscale;
    p.v_max = 0.04 * vscale;
    p.radius = 0.1;
    p.resolution = 8;  // coarse cells: position observable only
    // Long-run reference sampled from one long trajectory.
    const auto ref_model = make_random_waypoint(32, p, 123);
    for (std::uint64_t w = 0; w < ref_model->suggested_warmup(8.0); ++w) {
      ref_model->step();
    }
    Histogram ref_hist(ref_model->grid().num_points());
    for (int s = 0; s < 600; ++s) {
      ref_model->step();
      for (NodeId a = 0; a < 32; ++a) ref_hist.add(ref_model->agent_cell(a));
    }
    auto factory = [&](std::uint64_t seed) {
      auto model = make_random_waypoint(32, p, seed);
      model->collapse_to({0.0, 0.0});  // worst-case corner start
      return model;
    };
    const auto cell_of = [](const DynamicGraph& d, NodeId a) {
      return static_cast<const RandomTripModel&>(d).agent_cell(a);
    };
    const auto profile = positional_mixing_profile(
        factory, ref_model->grid().num_points(), cell_of,
        ref_hist.distribution(), 6, 2000, 0.3);
    return profile.mixing_time;
  };
  const auto slow = run(1.0);
  const auto fast = run(2.0);
  ASSERT_NE(slow, SIZE_MAX);
  ASSERT_NE(fast, SIZE_MAX);
  EXPECT_LT(fast, slow);
}

}  // namespace
}  // namespace megflood
