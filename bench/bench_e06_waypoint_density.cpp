// Experiment E6 — Corollary 4's preconditions on the random waypoint.
//
// The paper replaces Theorem 3's pairwise-independence hypothesis with two
// uniformity conditions on the positional stationary density F_wp:
//   (a) F(u) <= delta / vol(R) everywhere,
//   (b) a region B with vol(B_r) >= lambda vol(R) where F >= 1/(delta vol).
// It asserts these hold for absolute constants delta, lambda even though
// F_wp is center-biased (Bettstetter et al. [6], Le Boudec [25]).  We
// sample F_wp, print the radial density profile, the empirical (delta,
// lambda), and the empirical eta = P_NM2 / P_NM^2 of Theorem 3.

#include <algorithm>
#include <cmath>
#include <iostream>
#include <memory>

#include "analysis/estimators.hpp"
#include "analysis/positional.hpp"
#include "bench_util.hpp"
#include "mobility/random_trip.hpp"
#include "util/table.hpp"

int main() {
  using namespace megflood;
  bench::print_header(
      "E6 / Corollary 4 preconditions on the random waypoint",
      "Claims: F_wp is center-biased yet (delta, lambda)-uniform for\n"
      "absolute constants; P_NM2 <= eta P_NM^2 for constant eta.");

  WaypointParams p;
  p.side_length = 8.0;
  p.v_min = 0.5;
  p.v_max = 1.0;
  p.radius = 1.0;
  p.resolution = 24;
  const std::size_t n = 64;

  const auto model = make_random_waypoint(n, p, 42);
  for (std::uint64_t w = 0; w < model->suggested_warmup(8.0); ++w) {
    model->step();
  }
  const auto hist = sample_positional(
      *model, model->grid().num_points(),
      [](const DynamicGraph& g, NodeId a) {
        return static_cast<const RandomTripModel&>(g).agent_cell(a);
      },
      1500, 4);
  const auto uni = check_uniformity(hist, model->grid(), p.radius);

  // Radial profile: relative density (1.0 = uniform) by L_inf ring from
  // the grid center.
  const SquareGrid& grid = model->grid();
  const std::size_t m = grid.resolution();
  Table profile({"ring (Linf from center)", "cells", "mean rho",
                 "min rho", "max rho"});
  const auto center = static_cast<double>(m - 1) / 2.0;
  const std::size_t rings = (m + 1) / 2;
  for (std::size_t ring = 0; ring < rings; ++ring) {
    double sum = 0.0, mn = 1e18, mx = 0.0;
    std::size_t count = 0;
    for (CellId c = 0; c < grid.num_points(); ++c) {
      const double dr = std::abs(static_cast<double>(grid.row(c)) - center);
      const double dc = std::abs(static_cast<double>(grid.col(c)) - center);
      if (static_cast<std::size_t>(std::max(dr, dc)) != ring) continue;
      const double rho = uni.relative_density[c];
      sum += rho;
      mn = std::min(mn, rho);
      mx = std::max(mx, rho);
      ++count;
    }
    if (count == 0) continue;
    profile.add_row({Table::integer(static_cast<long long>(ring)),
                     Table::integer(static_cast<long long>(count)),
                     Table::num(sum / static_cast<double>(count), 3),
                     Table::num(mn, 3), Table::num(mx, 3)});
  }
  profile.print(std::cout);

  std::cout << "\ncenter bias: rho(center ring) / rho(outer ring) = "
            << Table::num(uni.relative_density[grid.index(m / 2, m / 2)] /
                              std::max(1e-9,
                                       uni.relative_density[grid.index(0, 0)]),
                          2)
            << " (paper: F_wp strongly biased towards the center)\n";
  std::cout << "empirical delta  = " << Table::num(uni.delta, 3)
            << "   (condition (a): constant, independent of n)\n";
  std::cout << "empirical lambda = " << Table::num(uni.lambda, 3)
            << "   (condition (b): constant volume fraction)\n";
  std::cout << "conditions hold with modest constants: "
            << bench::verdict(uni.delta < 10.0 && uni.lambda > 0.02) << "\n";

  // Theorem 3's eta on the same model, from snapshot sampling.
  const auto model2 = make_random_waypoint(n, p, 77);
  for (std::uint64_t w = 0; w < model2->suggested_warmup(8.0); ++w) {
    model2->step();
  }
  const auto pw = estimate_pairwise(*model2, 600, 4, 256);
  std::cout << "\nempirical P_NM  = " << Table::num(pw.p_nm, 5)
            << "\nempirical P_NM2 = " << Table::num(pw.p_nm2, 6)
            << "\nempirical eta   = " << Table::num(pw.eta, 3)
            << "  (Theorem 3 hypothesis: constant eta) -> "
            << bench::verdict(pw.eta < 20.0) << "\n";
  return 0;
}
