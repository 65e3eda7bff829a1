// Experiment E7 — Corollary 5: random paths over a grid with (unique)
// shortest paths.
//
// Paper claim: if the path family is simple, reversible and delta-regular
// with delta = polylog and |V| = O(n polylog), flooding is
// O(D polylog(n)) where D = diam(H) — within polylog of the trivial
// Omega(D) lower bound.  We use the L-shaped shortest-path family over an
// s x s grid (delta is a small constant, measured exactly), sweep s with
// n = 2|V| agents, and check flooding grows ~ linearly in s (= D/2 + D/2).
//
// Transmission radius is 1 hop: the grid is bipartite and the always-move
// path dynamics preserve agent parity, so same-point connectivity (r = 0)
// provably cannot flood across parity classes (see DESIGN.md).

#include <iostream>

#include "analysis/bounds.hpp"
#include "bench_util.hpp"
#include "mobility/random_paths.hpp"
#include "util/table.hpp"

int main() {
  using namespace megflood;
  bench::print_header(
      "E7 / Corollary 5 (random paths on grids, shortest-path family)",
      "Claim: simple + reversible + delta-regular paths over H with\n"
      "|V| <= n poly, delta small => flooding O(T_mix (|V|/n + delta^3)^2\n"
      "log^3 n) = O(D polylog n) for shortest paths on grids (D = diam).");

  Table table({"side s", "|V|", "n", "delta(#P)", "D(grid)", "flood p50",
               "flood p90", "bound(raw)", "bound(calibrated)", "dominated"});
  bench::CalibratedSweep sweep("s");
  for (std::size_t side : {6, 9, 12, 16}) {
    const std::size_t points = side * side;
    const std::size_t n = 2 * points;
    const double delta = GridLPathsModel::regularity_delta(side);
    const double diam_h = static_cast<double>(2 * (side - 1));
    // Unique-path mixing: T_mix = O(D) per the paper's discussion; each
    // trip fully re-randomizes the destination within <= D steps.
    const double t_mix = diam_h;
    const auto m = bench::run(
        {"--model=grid_paths", "--n=" + std::to_string(n),
         "--side=" + std::to_string(side), "--connect_radius=1",
         "--trials=16", "--seed=" + std::to_string(600 + side),
         "--max_rounds=2000000"});
    table.add_row(sweep.row(
        {Table::integer(static_cast<long long>(side)),
         Table::integer(static_cast<long long>(points)),
         Table::integer(static_cast<long long>(n)), Table::num(delta, 3),
         Table::num(diam_h, 0)},
        static_cast<double>(side), m,
        corollary5_bound(t_mix, n, points, delta)));
  }
  table.print(std::cout);
  sweep.print_footer("flooding p90");
  sweep.print_slope("flooding vs side s (expect ~1, i.e. O(D polylog))");
  std::cout << "delta stays a small constant across s (Corollary 5's "
               "regularity premise for shortest paths on grids).\n";
  return 0;
}
