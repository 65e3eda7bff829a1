// Tests for the two-state edge-MEG: stationary density, birth/death
// dynamics, determinism, and initialization modes.

#include <gtest/gtest.h>

#include <cmath>

#include "core/flooding.hpp"
#include "meg/edge_meg.hpp"
#include "step_hash.hpp"

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
    ASSERT_EQ(decoded_edges(reused.snapshot()), decoded_edges(fresh.snapshot()))
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

TEST(TwoStateEdgeMEG, StepStreamIsPinned) {
  // The decoded edges (the on-set in key order) after the initializer
  // and each of 40 steps, folded into one FNV-1a hash per row.  The rows
  // cover the three inits at (p, q) = (0.05, 0.3), and the serve regime
  // of BM_EdgeMegStepServe (n = 256, alpha = 1/128, q = 0.3), where
  // every birth skip is longer than a row.  Any moved draw or byte
  // changes a hash.
  constexpr double kServeAlpha = 1.0 / 128;
  const TwoStateParams classic{0.05, 0.3};
  const TwoStateParams serve{kServeAlpha * 0.3 / (1.0 - kServeAlpha), 0.3};
  struct Row {
    EdgeMegInit init;
    bool serve;
    std::size_t n;
    std::uint64_t seed;
    std::uint64_t hash;
  };
  using enum EdgeMegInit;
  const Row rows[] = {
      {kStationary, false, 12, 1, 0x3550c26909a86c0fULL},
      {kStationary, false, 12, 2, 0x640916aa131996a3ULL},
      {kStationary, false, 64, 1, 0x60c00393346d709fULL},
      {kStationary, false, 64, 2, 0x6457e791b64afe87ULL},
      {kStationary, false, 300, 1, 0xc1a43d5fbccb058fULL},
      {kStationary, false, 300, 2, 0xf2ccc16c8c6a0decULL},
      {kAllOff, false, 12, 1, 0xf2c1b242d717a17fULL},
      {kAllOff, false, 12, 2, 0xac94aebfbc7343d9ULL},
      {kAllOff, false, 64, 1, 0x37c84513fe3fe5b3ULL},
      {kAllOff, false, 64, 2, 0x2995e669774018a4ULL},
      {kAllOff, false, 300, 1, 0x2258bf5e2f885aacULL},
      {kAllOff, false, 300, 2, 0x020e12ab188870c7ULL},
      {kAllOn, false, 12, 1, 0x1155b4ea61fb68faULL},
      {kAllOn, false, 12, 2, 0x098ea6ac703dc00bULL},
      {kAllOn, false, 64, 1, 0x44144edf6156033aULL},
      {kAllOn, false, 64, 2, 0x066709ae526ce1a5ULL},
      {kAllOn, false, 300, 1, 0x8695e57ff25a42f1ULL},
      {kAllOn, false, 300, 2, 0x488b7517fb75c2b3ULL},
      {kStationary, true, 256, 1, 0x2eabd43ff7f31318ULL},
      {kStationary, true, 256, 2, 0x233041eb3fbca604ULL},
      {kStationary, true, 256, 3, 0xbeec4b7b69e67867ULL},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(::testing::Message()
                 << "init=" << static_cast<int>(row.init) << " serve="
                 << row.serve << " n=" << row.n << " seed=" << row.seed);
    TwoStateEdgeMEG meg(row.n, row.serve ? serve : classic, row.seed,
                        row.init);
    std::uint64_t h = kFnvOffset;
    for (int t = 0; t <= 40; ++t) {
      if (t > 0) meg.step();
      h = fnv_mix_bytes(h, decoded_edges(meg.snapshot()));
    }
    EXPECT_EQ(h, row.hash) << "hash 0x" << std::hex << h;
  }
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
