// Experiment E11 — the mixing-time inputs the paper's bounds consume.
//
// Verifies the three mixing facts quoted in the paper:
//   (1) two-state edge chain: T_mix = Theta(1/(p+q))  [10],
//   (2) random waypoint over side-L square: T_mix = Theta(L/v_max) [1,29],
//   (3) random walk on k-augmented grids: T_mix decreasing ~ k^2.
// (1) and (3) are exact (distribution evolution), (2) uses the empirical
// positional-TV estimator from a worst-case corner start.

#include <iostream>
#include <memory>

#include "analysis/mixing_estimator.hpp"
#include "bench_util.hpp"
#include "graph/algorithms.hpp"
#include "graph/builders.hpp"
#include "markov/chain.hpp"
#include "markov/mixing.hpp"
#include "markov/two_state.hpp"
#include "mobility/random_trip.hpp"
#include "util/table.hpp"

namespace megflood {
namespace {

void edge_chain_mixing() {
  std::cout << "\n-- (1) two-state edge chain: T_mix vs 1/(p+q) --\n";
  Table table({"p", "q", "1/(p+q)", "T_mix exact", "T_mix * (p+q)"});
  std::vector<double> inv_rate, tmix;
  for (const auto& [p, q] : std::vector<std::pair<double, double>>{
           {0.08, 0.08}, {0.04, 0.04}, {0.02, 0.02}, {0.01, 0.01},
           {0.002, 0.018}}) {
    const TwoStateChain chain({p, q});
    const auto t = static_cast<double>(chain.mixing_time());
    table.add_row({Table::num(p, 4), Table::num(q, 4),
                   Table::num(1.0 / (p + q), 1), Table::num(t, 0),
                   Table::num(t * (p + q), 2)});
    inv_rate.push_back(1.0 / (p + q));
    tmix.push_back(t);
  }
  table.print(std::cout);
  bench::print_slope("T_mix vs 1/(p+q) (expect ~1)", inv_rate, tmix);
}

void waypoint_mixing() {
  std::cout << "\n-- (2) random waypoint: positional T_mix vs L/v_max --\n";
  Table table({"L", "v_max", "L/v_max", "T_mix (empirical)",
               "T_mix/(L/v)"});
  std::vector<double> l_over_v, tmix;
  for (const auto& [L, v] : std::vector<std::pair<double, double>>{
           {4.0, 1.0}, {8.0, 1.0}, {8.0, 2.0}, {16.0, 2.0}}) {
    WaypointParams p;
    p.side_length = L;
    p.v_min = 0.5 * v;
    p.v_max = v;
    p.radius = 1.0;
    // Coarse observation cells (8x8): the TV estimator's sampling-noise
    // floor scales like sqrt(cells / samples); with 24 runs x 48 agents
    // per step it sits well below the 0.3 threshold.
    p.resolution = 8;
    const std::size_t n = 48;
    // Stationary reference from one long warmed-up trajectory.
    const auto ref = make_random_waypoint(n, p, 2024);
    for (std::uint64_t w = 0; w < ref->suggested_warmup(10.0); ++w) {
      ref->step();
    }
    Histogram ref_hist(ref->grid().num_points());
    for (int s = 0; s < 4000; ++s) {
      ref->step();
      for (NodeId a = 0; a < n; ++a) ref_hist.add(ref->agent_cell(a));
    }
    auto factory = [&](std::uint64_t seed) {
      auto model = make_random_waypoint(n, p, seed);
      model->collapse_to({0.0, 0.0});
      return model;
    };
    const auto profile = positional_mixing_profile(
        factory, ref->grid().num_points(),
        [](const DynamicGraph& d, NodeId a) {
          return static_cast<const RandomTripModel&>(d).agent_cell(a);
        },
        ref_hist.distribution(), 24,
        static_cast<std::size_t>(40.0 * L / v), 0.3, 77);
    const double t = profile.mixing_time == SIZE_MAX
                         ? -1.0
                         : static_cast<double>(profile.mixing_time);
    table.add_row({Table::num(L, 1), Table::num(v, 1), Table::num(L / v, 1),
                   Table::num(t, 0), Table::num(t / (L / v), 2)});
    if (t > 0.0) {
      l_over_v.push_back(L / v);
      tmix.push_back(t);
    }
  }
  table.print(std::cout);
  bench::print_slope("T_mix vs L/v (expect ~1)", l_over_v, tmix);
}

void kaugmented_mixing() {
  std::cout << "\n-- (3) k-augmented torus walks: T_mix vs k --\n";
  const std::size_t side = 15;  // torus needs side > 2k+1
  const std::size_t points = side * side;
  Table table({"k", "T_mix exact", "T_mix * k^2"});
  std::vector<double> ks, tmix;
  for (std::size_t k : {1, 2, 3, 4}) {
    const Graph g = k_augmented_torus(side, k);
    const auto balls = all_balls(g, 1);
    std::vector<std::vector<double>> rows(points,
                                          std::vector<double>(points, 0.0));
    for (VertexId v = 0; v < points; ++v) {
      const double w = 1.0 / static_cast<double>(balls[v].size() + 1);
      rows[v][v] = w;
      for (VertexId u : balls[v]) rows[v][u] = w;
    }
    // On the torus every start is equivalent by vertex transitivity.
    const auto t = static_cast<double>(
        mixing_time_from_starts(DenseChain(std::move(rows)), {0}));
    table.add_row({Table::integer(static_cast<long long>(k)),
                   Table::num(t, 0),
                   Table::num(t * static_cast<double>(k * k), 0)});
    ks.push_back(static_cast<double>(k));
    tmix.push_back(t);
  }
  table.print(std::cout);
  bench::print_slope("T_mix vs k (expect ~-2)", ks, tmix);
}

}  // namespace
}  // namespace megflood

int main() {
  using namespace megflood;
  bench::print_header(
      "E11 / Mixing-time inputs",
      "Claims quoted by the paper: T_mix(edge chain) = Theta(1/(p+q));\n"
      "T_mix(waypoint) = Theta(L/v_max); T_mix(k-augmented grid walk)\n"
      "decreases ~ k^2.");
  edge_chain_mixing();
  waypoint_mixing();
  kaugmented_mixing();
  return 0;
}
