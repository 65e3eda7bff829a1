// Tests for the two-state edge-MEG: stationary density, birth/death
// dynamics, determinism, and initialization modes.

#include <gtest/gtest.h>

#include <cmath>

#include "core/flooding.hpp"
#include "meg/edge_meg.hpp"

namespace megflood {
namespace {

double density(const Snapshot& s, std::size_t n) {
  return static_cast<double>(s.num_edges()) /
         (static_cast<double>(n) * static_cast<double>(n - 1) / 2.0);
}

TEST(TwoStateEdgeMEG, RejectsTinyGraphs) {
  EXPECT_THROW(TwoStateEdgeMEG(1, {0.1, 0.1}, 0), std::invalid_argument);
}

TEST(TwoStateEdgeMEG, StationaryInitDensity) {
  const std::size_t n = 64;
  TwoStateEdgeMEG meg(n, {0.2, 0.2}, 7);  // pi_on = 0.5
  EXPECT_NEAR(density(meg.snapshot(), n), 0.5, 0.05);
}

TEST(TwoStateEdgeMEG, AllOffAndAllOnInits) {
  TwoStateEdgeMEG off(16, {0.1, 0.1}, 1, EdgeMegInit::kAllOff);
  EXPECT_EQ(off.snapshot().num_edges(), 0u);
  TwoStateEdgeMEG on(16, {0.1, 0.1}, 1, EdgeMegInit::kAllOn);
  EXPECT_EQ(on.snapshot().num_edges(), on.num_pairs());
}

TEST(TwoStateEdgeMEG, DensityConvergesFromColdStart) {
  const std::size_t n = 48;
  TwoStateEdgeMEG meg(n, {0.1, 0.3}, 3, EdgeMegInit::kAllOff);  // pi = 0.25
  const std::size_t warm = 4 * meg.chain().mixing_time();
  for (std::size_t t = 0; t < warm; ++t) meg.step();
  double avg = 0.0;
  constexpr int kSamples = 50;
  for (int s = 0; s < kSamples; ++s) {
    meg.step();
    avg += density(meg.snapshot(), n);
  }
  EXPECT_NEAR(avg / kSamples, 0.25, 0.03);
}

TEST(TwoStateEdgeMEG, BirthRateObserved) {
  // With q = 0 and all-off start, one step creates ~p fraction of edges.
  const std::size_t n = 96;
  TwoStateEdgeMEG meg(n, {0.05, 0.0}, 11, EdgeMegInit::kAllOff);
  meg.step();
  EXPECT_NEAR(density(meg.snapshot(), n), 0.05, 0.01);
}

TEST(TwoStateEdgeMEG, DeathRateObserved) {
  // With p = 0 (degenerate but p+q > 0) deaths shrink the all-on start.
  const std::size_t n = 96;
  TwoStateEdgeMEG meg(n, {0.0, 0.3}, 12, EdgeMegInit::kAllOn);
  meg.step();
  EXPECT_NEAR(density(meg.snapshot(), n), 0.7, 0.02);
}

TEST(TwoStateEdgeMEG, NoRebirthSameStep) {
  // p = 1, q = 1: every on edge dies and every off edge is born, so the
  // graph alternates between full and empty exactly.
  TwoStateEdgeMEG meg(12, {1.0, 1.0}, 13, EdgeMegInit::kAllOn);
  meg.step();
  EXPECT_EQ(meg.snapshot().num_edges(), 0u);
  meg.step();
  EXPECT_EQ(meg.snapshot().num_edges(), meg.num_pairs());
}

TEST(TwoStateEdgeMEG, ResetReproducesStream) {
  TwoStateEdgeMEG a(20, {0.1, 0.2}, 5);
  std::vector<std::size_t> first;
  for (int t = 0; t < 10; ++t) {
    a.step();
    first.push_back(a.snapshot().num_edges());
  }
  a.reset(5);
  for (int t = 0; t < 10; ++t) {
    a.step();
    EXPECT_EQ(a.snapshot().num_edges(), first[static_cast<std::size_t>(t)]);
  }
  // reset(s) on a model that already ran under another seed behaves like
  // a fresh model built with s, edge for edge.
  TwoStateEdgeMEG reused(20, {0.1, 0.2}, 1);
  for (int t = 0; t < 10; ++t) reused.step();
  reused.reset(7);
  TwoStateEdgeMEG fresh(20, {0.1, 0.2}, 7);
  for (int t = 0; t < 10; ++t) {
    ASSERT_EQ(reused.snapshot().edge_buffer(), fresh.snapshot().edge_buffer())
        << "step " << t;
    reused.step();
    fresh.step();
  }
}

TEST(TwoStateEdgeMEG, DifferentSeedsDiffer) {
  TwoStateEdgeMEG a(32, {0.1, 0.1}, 1);
  TwoStateEdgeMEG b(32, {0.1, 0.1}, 2);
  int same = 0;
  for (int t = 0; t < 10; ++t) {
    a.step();
    b.step();
    if (a.snapshot().num_edges() == b.snapshot().num_edges()) ++same;
  }
  EXPECT_LT(same, 10);
}

TEST(TwoStateEdgeMEG, NumPairs) {
  TwoStateEdgeMEG meg(10, {0.1, 0.1}, 1);
  EXPECT_EQ(meg.num_pairs(), 45u);
}

TEST(TwoStateEdgeMEG, FloodingCompletesOnDenseModel) {
  TwoStateEdgeMEG meg(64, {0.3, 0.3}, 21);
  const FloodResult r = flood(meg, 0, 1000);
  EXPECT_TRUE(r.completed);
  EXPECT_LE(r.rounds, 10u);  // dense stationary graphs flood very fast
}

TEST(TwoStateEdgeMEG, SparseModelStillFloods) {
  // p = 2/n per pair: stationary graph has ~n edges, heavily disconnected
  // snapshots, yet flooding completes (the dynamic graph heals).
  const std::size_t n = 128;
  const double p = 2.0 / static_cast<double>(n);
  TwoStateEdgeMEG meg(n, {p, 0.5}, 23);
  const FloodResult r = flood(meg, 0, 100000);
  EXPECT_TRUE(r.completed);
}

// Property: stationary edge density matches p/(p+q) across a parameter
// grid (Fact: independent per-edge chains).
class EdgeMegDensityProperty
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(EdgeMegDensityProperty, MatchesClosedForm) {
  const auto [p, q] = GetParam();
  const std::size_t n = 64;
  TwoStateEdgeMEG meg(n, {p, q}, 31);
  double avg = 0.0;
  constexpr int kSamples = 30;
  const std::size_t stride = meg.chain().mixing_time() + 1;
  for (int s = 0; s < kSamples; ++s) {
    for (std::size_t t = 0; t < stride; ++t) meg.step();
    avg += density(meg.snapshot(), n);
  }
  EXPECT_NEAR(avg / kSamples, p / (p + q), 0.04);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EdgeMegDensityProperty,
    ::testing::Values(std::pair{0.1, 0.1}, std::pair{0.02, 0.2},
                      std::pair{0.3, 0.1}, std::pair{0.05, 0.5}));

}  // namespace
}  // namespace megflood
