// Tests for positional density sampling and Corollary 4's (delta, lambda)
// uniformity checker.

#include <gtest/gtest.h>

#include <cmath>

#include "analysis/positional.hpp"
#include "mobility/random_trip.hpp"

namespace megflood {
namespace {

TEST(SamplePositional, AccumulatesAgentCells) {
  WaypointParams p;
  p.side_length = 1.0;
  p.v_min = 0.05;
  p.v_max = 0.1;
  p.radius = 0.1;
  p.resolution = 16;
  const auto model = make_random_waypoint(10, p, 3);
  const auto hist = sample_positional(
      *model, model->grid().num_points(),
      [](const DynamicGraph& g, NodeId a) {
        return static_cast<const RandomTripModel&>(g).agent_cell(a);
      },
      20, 2);
  EXPECT_EQ(hist.total(), 200u);  // 10 agents x 20 samples
}

TEST(SamplePositional, ZeroSamplesThrows) {
  WaypointParams p;
  p.resolution = 8;
  p.v_min = 0.05;
  p.v_max = 0.1;
  p.radius = 0.1;
  const auto model = make_random_waypoint(4, p, 1);
  EXPECT_THROW(
      (void)sample_positional(
          *model, model->grid().num_points(),
          [](const DynamicGraph&, NodeId) { return CellId{0}; }, 0, 1),
      std::invalid_argument);
}

TEST(CheckUniformity, UniformDensityIsPerfect) {
  const SquareGrid grid(8, 1.0);
  Histogram hist(grid.num_points());
  for (CellId c = 0; c < grid.num_points(); ++c) hist.add(c, 10);
  const auto result = check_uniformity(hist, grid, 0.2);
  EXPECT_NEAR(result.delta, 1.0, 1e-9);
  // Interior fraction at r = 0.2 on the 8x8 grid over the unit square:
  // coordinates must lie in [0.2, 0.8], i.e. indices 2..5 -> (4/8)^2.
  EXPECT_NEAR(result.lambda, 0.25, 1e-9);
  EXPECT_NEAR(result.max_relative, 1.0, 1e-9);
  EXPECT_NEAR(result.min_relative, 1.0, 1e-9);
}

TEST(CheckUniformity, PeakRaisesDelta) {
  const SquareGrid grid(8, 1.0);
  Histogram hist(grid.num_points());
  for (CellId c = 0; c < grid.num_points(); ++c) hist.add(c, 1);
  hist.add(grid.index(4, 4), 63);  // one cell has 64x the base mass
  const auto result = check_uniformity(hist, grid, 0.2);
  EXPECT_GT(result.delta, 10.0);
}

TEST(CheckUniformity, EmptyRegionShrinksLambda) {
  const SquareGrid grid(10, 1.0);
  Histogram hist(grid.num_points());
  // Mass only in the left half.
  for (CellId c = 0; c < grid.num_points(); ++c) {
    if (grid.col(c) < 5) hist.add(c, 10);
  }
  const auto result = check_uniformity(hist, grid, 0.15);
  const auto uniform_result = [&] {
    Histogram h2(grid.num_points());
    for (CellId c = 0; c < grid.num_points(); ++c) h2.add(c, 10);
    return check_uniformity(h2, grid, 0.15);
  }();
  EXPECT_LT(result.lambda, uniform_result.lambda);
}

TEST(CheckUniformity, MismatchedSizesThrow) {
  const SquareGrid grid(4, 1.0);
  Histogram hist(5);
  EXPECT_THROW((void)check_uniformity(hist, grid, 0.1),
               std::invalid_argument);
  Histogram empty(grid.num_points());
  EXPECT_THROW((void)check_uniformity(empty, grid, 0.1),
               std::invalid_argument);
}

TEST(CheckUniformity, WaypointDensityCenterBiased) {
  // The paper notes F_wp is biased towards the center of the square; the
  // empirical density at the center must exceed the corner density, while
  // still satisfying the (delta, lambda) conditions with modest delta.
  WaypointParams p;
  p.side_length = 1.0;
  p.v_min = 0.05;
  p.v_max = 0.1;
  p.radius = 0.12;
  p.resolution = 12;
  const auto model = make_random_waypoint(24, p, 7);
  for (std::uint64_t w = 0; w < model->suggested_warmup(8.0); ++w) {
    model->step();
  }
  const auto hist = sample_positional(
      *model, model->grid().num_points(),
      [](const DynamicGraph& g, NodeId a) {
        return static_cast<const RandomTripModel&>(g).agent_cell(a);
      },
      800, 3);
  const auto result = check_uniformity(hist, model->grid(), p.radius);
  const auto& rho = result.relative_density;
  const SquareGrid& grid = model->grid();
  const double center = rho[grid.index(6, 6)];
  const double corner = rho[grid.index(0, 0)];
  EXPECT_GT(center, corner);
  EXPECT_GT(result.delta, 1.0);
  EXPECT_LT(result.delta, 8.0);   // modest constant, as the paper asserts
  EXPECT_GT(result.lambda, 0.05);  // a sizable high-density interior B
}

}  // namespace
}  // namespace megflood
