// Integration tests: miniature versions of the paper-reproduction
// experiments, checking end-to-end that (i) the theorem preconditions
// hold on the concrete models and (ii) measured flooding times are
// dominated by the corresponding calibrated bounds.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "analysis/bounds.hpp"
#include "analysis/estimators.hpp"
#include "core/scenario.hpp"
#include "core/trial.hpp"
#include "graph/algorithms.hpp"
#include "graph/builders.hpp"
#include "markov/mixing.hpp"
#include "meg/edge_meg.hpp"
#include "meg/general_edge_meg.hpp"
#include "meg/node_meg.hpp"
#include "mobility/random_paths.hpp"
#include "mobility/random_trip.hpp"
#include "mobility/random_walk.hpp"

namespace megflood {
namespace {

// --- E1/E2 miniature: two-state edge-MEG vs Theorem 1 / Appendix A -----

TEST(Integration, EdgeMegFloodingWithinBound) {
  const std::size_t n = 96;
  const double p = 2.0 / static_cast<double>(n * 4);  // sparse
  const double q = 0.25;
  TrialConfig cfg;
  cfg.trials = 12;
  cfg.max_rounds = 200000;
  const auto m = measure(
      [&](std::uint64_t seed) {
        return std::make_unique<TwoStateEdgeMEG>(n, TwoStateParams{p, q},
                                                 seed);
      },
      make_process_factory("flooding"), cfg);
  ASSERT_EQ(m.incomplete, 0u);
  // Appendix A bound with a generous constant must dominate the p99.
  const double bound = edge_meg_bound(n, p, q);
  EXPECT_LT(m.rounds.p99, 20.0 * bound);
  // And the flooding time is nontrivial (sparse graph, not instant).
  EXPECT_GT(m.rounds.mean, 2.0);
}

TEST(Integration, EdgeMegDenserIsFaster) {
  const std::size_t n = 64;
  TrialConfig cfg;
  cfg.trials = 10;
  cfg.max_rounds = 100000;
  auto mean_for = [&](double p, double q) {
    const auto m = measure(
        [&](std::uint64_t seed) {
          return std::make_unique<TwoStateEdgeMEG>(n, TwoStateParams{p, q},
                                                   seed);
        },
        make_process_factory("flooding"), cfg);
    EXPECT_EQ(m.incomplete, 0u);
    return m.rounds.mean;
  };
  EXPECT_LE(mean_for(0.2, 0.2), mean_for(0.01, 0.4));
}

// --- E4 miniature: explicit node-MEG vs Theorem 3 ----------------------

TEST(Integration, NodeMegFloodingWithinTheorem3Bound) {
  const std::size_t n = 48;
  const std::size_t k = 8;
  const DenseChain chain = lazy_random_walk_chain(cycle_graph(k));
  const ConnectionMap conn = cycle_proximity_connection(k, 1);
  ExplicitNodeMEG probe(n, chain, conn, 1);
  const auto inv = probe.invariants();
  ASSERT_GT(inv.p_nm, 0.0);
  const auto t_mix = static_cast<double>(mixing_time(chain));

  TrialConfig cfg;
  cfg.trials = 12;
  cfg.max_rounds = 100000;
  const auto m = measure(
      [&](std::uint64_t seed) {
        return std::make_unique<ExplicitNodeMEG>(n, chain, conn, seed);
      },
      make_process_factory("flooding"), cfg);
  ASSERT_EQ(m.incomplete, 0u);
  const double bound = theorem3_bound(t_mix, n, inv.p_nm, inv.eta);
  EXPECT_LT(m.rounds.p99, 20.0 * bound);
}

// --- E5 miniature: random waypoint vs Corollary 4 / Section 4.1 --------

TEST(Integration, WaypointFloodingWithinBound) {
  WaypointParams p;
  p.side_length = 1.0;
  p.v_min = 0.03;
  p.v_max = 0.06;
  p.radius = 0.12;
  p.resolution = 32;
  const std::size_t n = 40;
  TrialConfig cfg;
  cfg.trials = 8;
  cfg.max_rounds = 200000;
  const auto warm = make_random_waypoint(n, p, 0);
  cfg.warmup_steps = warm->suggested_warmup();
  const auto m = measure(
      [&](std::uint64_t seed) {
        return make_random_waypoint(n, p, seed);
      },
      make_process_factory("flooding"), cfg);
  ASSERT_EQ(m.incomplete, 0u);
  const double bound = waypoint_bound(p.side_length, p.v_max, n, p.radius);
  EXPECT_LT(m.rounds.p99, 20.0 * bound);
  // Trivial lower bound: cannot beat a constant fraction of L/v... the
  // mean must at least be positive and the lower bound finite.
  EXPECT_GT(m.rounds.mean, 0.0);
}

// --- E7 miniature: grid L-paths vs Corollary 5 --------------------------

TEST(Integration, GridLPathsWithinCorollary5Bound) {
  const std::size_t side = 6;
  const std::size_t n = 72;  // n > |V| = 36: dense enough to flood fast
  TrialConfig cfg;
  cfg.trials = 8;
  cfg.max_rounds = 200000;
  // Transmission radius 1 (in hops) bridges the grid's parity classes;
  // with r = 0 the bipartite always-move dynamics cannot complete (see
  // the parity note in DESIGN.md).
  const auto m = measure(
      [&](std::uint64_t seed) {
        return std::make_unique<GridLPathsModel>(side, n, 1, seed);
      },
      make_process_factory("flooding"), cfg);
  ASSERT_EQ(m.incomplete, 0u);
  const double delta = GridLPathsModel::regularity_delta(side);
  // T_mix of the L-paths chain is O(diameter of the path family flow) —
  // use the conservative 2*(side-1) hop bound for unique shortest paths.
  const double t_mix = 2.0 * static_cast<double>(side - 1);
  const double bound = corollary5_bound(t_mix, n, side * side, delta);
  EXPECT_LT(m.rounds.p99, 20.0 * bound);
}

// --- E8 miniature: random walk on k-augmented grid, Corollary 6 --------

TEST(Integration, KAugmentedGridFloodsFasterWithK) {
  const std::size_t side = 8;
  const std::size_t n = 96;
  TrialConfig cfg;
  cfg.trials = 8;
  cfg.max_rounds = 500000;
  auto mean_for = [&](std::size_t k) {
    const auto g =
        std::make_shared<const Graph>(k_augmented_grid(side, k));
    const auto m = measure(
        [&](std::uint64_t seed) {
          return std::make_unique<RandomWalkModel>(g, n, RandomWalkParams{},
                                                   seed);
        },
        make_process_factory("flooding"), cfg);
    EXPECT_EQ(m.incomplete, 0u) << "k=" << k;
    return m.rounds.mean;
  };
  // Bigger k: faster mixing and more co-location chances.
  EXPECT_LT(mean_for(3), mean_for(1));
}

// --- E8 miniature: Corollary 6 end-to-end on the torus walk -------------

TEST(Integration, TorusWalkWithinCorollary6Bound) {
  const std::size_t side = 9;
  const std::size_t points = side * side;
  const std::size_t n = 2 * points;
  const auto graph = std::make_shared<const Graph>(k_augmented_torus(side, 2));
  const DegreeStats ds = degree_stats(*graph);
  ASSERT_DOUBLE_EQ(ds.regularity_delta, 1.0);

  // Exact mixing time of the move chain (uniform over ball + self).
  const auto balls = all_balls(*graph, 1);
  std::vector<std::vector<double>> rows(points,
                                        std::vector<double>(points, 0.0));
  for (VertexId v = 0; v < points; ++v) {
    const double w = 1.0 / static_cast<double>(balls[v].size() + 1);
    rows[v][v] = w;
    for (VertexId u : balls[v]) rows[v][u] = w;
  }
  const auto t_mix = static_cast<double>(
      mixing_time_from_starts(DenseChain(std::move(rows)), {0}));

  TrialConfig cfg;
  cfg.trials = 8;
  cfg.max_rounds = 500000;
  const auto m = measure(
      [&](std::uint64_t seed) {
        return std::make_unique<RandomWalkModel>(graph, n, RandomWalkParams{},
                                                 seed);
      },
      make_process_factory("flooding"), cfg);
  ASSERT_EQ(m.incomplete, 0u);
  const double bound = corollary6_bound(t_mix, n, points, ds.regularity_delta);
  EXPECT_LT(m.rounds.p99, 20.0 * bound);
}

// --- E3 miniature: four-state link vs the generalized edge-MEG bound ----

TEST(Integration, FourStateLinkWithinGeneralBound) {
  const auto link = make_four_state_link({});
  const std::size_t n = 64;
  GeneralEdgeMEG probe(n, link.chain, link.chi, 1);
  const double alpha = probe.stationary_edge_probability();
  const auto t_mix = static_cast<double>(mixing_time(link.chain));
  TrialConfig cfg;
  cfg.trials = 10;
  cfg.max_rounds = 200000;
  const auto m = measure(
      [&](std::uint64_t seed) {
        return std::make_unique<GeneralEdgeMEG>(n, link.chain, link.chi,
                                                seed);
      },
      make_process_factory("flooding"), cfg);
  ASSERT_EQ(m.incomplete, 0u);
  EXPECT_LT(m.rounds.p99, 20.0 * general_edge_meg_bound(t_mix, n, alpha));
}

// --- E9 miniature: phase structure (Lemmas 13/14) -----------------------

TEST(Integration, SaturationPhaseNotDominant) {
  // The saturation phase is one log factor cheaper than the spreading
  // phase; on a sparse edge-MEG it should not dominate the total time.
  const std::size_t n = 128;
  const double p = 1.0 / static_cast<double>(n * 2);
  TrialConfig cfg;
  cfg.trials = 12;
  cfg.max_rounds = 200000;
  const auto m = measure(
      [&](std::uint64_t seed) {
        return std::make_unique<TwoStateEdgeMEG>(
            n, TwoStateParams{p, 0.3}, seed);
      },
      make_process_factory("flooding"), cfg);
  ASSERT_EQ(m.incomplete, 0u);
  EXPECT_LT(m.saturation_rounds.mean, 4.0 * m.spreading_rounds.mean + 10.0);
}

// --- Precondition checks on the real models -----------------------------

TEST(Integration, EdgeMegSatisfiesDensityAndIndependence) {
  const std::size_t n = 32;
  TwoStateEdgeMEG meg(n, {0.15, 0.3}, 3);
  const std::size_t stride = meg.chain().mixing_time() + 1;
  const auto est = estimate_pairwise(meg, 300, stride);
  // Density condition: a fixed pair is connected with the closed-form
  // stationary probability 1/3.
  EXPECT_NEAR(est.p_nm, 1.0 / 3.0, 0.03);
  // Independent edges: two edges towards a third node appear together
  // as often as chance says, so eta = P_NM2 / P_NM^2 is ~1.
  EXPECT_NEAR(est.eta, 1.0, 0.2);
}

TEST(Integration, WalkOnRegularGraphSatisfiesCorollary6Premise) {
  const Graph g = k_augmented_grid(6, 2);
  const DegreeStats ds = degree_stats(g);
  EXPECT_LT(ds.regularity_delta, 3.0);  // delta-regular with small delta
}

}  // namespace
}  // namespace megflood
