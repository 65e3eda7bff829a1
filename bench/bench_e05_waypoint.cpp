// Experiment E5 — Section 4.1: the random waypoint flooding bound (the
// paper's headline application: first known flooding bound for RWP).
//
// Paper setting: square of side L ~ sqrt(n), transmission radius r =
// Theta(1), speed v = Theta(1) with r = O(v_max).  The stationary network
// is sparse and highly disconnected, and the claim is
//   flooding = O((L / v_max) (L^2/(n r^2) + 1)^2 log^3 n)
//            = O(sqrt(n)/v_max * log^3 n)  in this regime,
// nearly matching the trivial lower bound Omega(sqrt(n)/v_max).
//
// Sweep 1: n (with L = sqrt(n)) — fitted exponent of flooding vs n should
// be ~0.5 up to log factors.  Sweep 2: v at fixed n — flooding ~ 1/v.
// Sweep 3: grid resolution m — flooding insensitive (footnote 3).

#include <cmath>
#include <iostream>
#include <utility>

#include "analysis/bounds.hpp"
#include "bench_util.hpp"
#include "mobility/random_trip.hpp"
#include "util/table.hpp"

namespace megflood {
namespace {

WaypointParams sparse_params(std::size_t n) {
  WaypointParams p;
  p.side_length = std::sqrt(static_cast<double>(n));
  p.v_min = 0.75;
  p.v_max = 1.5;
  p.radius = 1.0;
  p.resolution = std::max<std::size_t>(
      32, static_cast<std::size_t>(2.0 * p.side_length));
  return p;
}

Measurement run_waypoint(std::size_t n, const WaypointParams& p,
                         std::size_t trials, std::uint64_t seed) {
  return bench::run(
      {"--model=random_waypoint", "--n=" + std::to_string(n),
       "--side=" + bench::num_arg(p.side_length),
       "--v_min=" + bench::num_arg(p.v_min),
       "--v_max=" + bench::num_arg(p.v_max),
       "--radius=" + bench::num_arg(p.radius),
       "--resolution=" + std::to_string(p.resolution),
       "--trials=" + std::to_string(trials), "--seed=" + std::to_string(seed),
       "--max_rounds=2000000", "--warmup=auto"});
}

void sweep_n() {
  std::cout << "\n-- sweep n with L = sqrt(n), r = 1, v in [0.75, 1.5] --\n";
  Table table({"n", "L", "flood p50", "flood p90", "lower Omega(L/v)",
               "bound(raw)", "bound(calibrated)", "dominated"});
  bench::CalibratedSweep sweep("n");
  for (std::size_t n : {32, 64, 128, 256, 512}) {
    const WaypointParams p = sparse_params(n);
    const auto m = run_waypoint(n, p, 16, 500 + n);
    auto cells = sweep.row(
        {Table::integer(static_cast<long long>(n)),
         Table::num(p.side_length, 2)},
        static_cast<double>(n), m,
        waypoint_bound(p.side_length, p.v_max, n, p.radius));
    // The lower-bound column sits between flood p90 and bound(raw).
    cells.insert(cells.begin() + 4,
                 Table::num(waypoint_lower_bound(p.side_length, p.v_max), 1));
    table.add_row(std::move(cells));
  }
  table.print(std::cout);
  sweep.print_footer("flooding p90");
  sweep.print_slope("flooding vs n (expect ~0.5 + log factors)");
}

void sweep_speed() {
  const std::size_t n = 128;
  std::cout << "\n-- sweep v_max at n = " << n
            << " (expect flooding ~ 1/v) --\n";
  Table table({"v_max", "flood p50", "flood p90"});
  std::vector<double> vs, measured;
  for (double v : {0.5, 1.0, 2.0, 4.0}) {
    WaypointParams p = sparse_params(n);
    p.v_min = 0.5 * v;
    p.v_max = v;
    const auto m =
        run_waypoint(n, p, 16, 900 + static_cast<std::uint64_t>(v * 8));
    table.add_row({Table::num(v, 2), Table::num(m.rounds.median, 1),
                   Table::num(m.rounds.p90, 1)});
    vs.push_back(v);
    measured.push_back(m.rounds.p90);
  }
  table.print(std::cout);
  bench::print_slope("flooding vs v_max (expect ~-1)", vs, measured);
}

void sweep_resolution() {
  const std::size_t n = 96;
  std::cout << "\n-- sweep grid resolution m at n = " << n
            << " (footnote 3: bound insensitive to m) --\n";
  Table table({"m", "flood p50", "flood p90"});
  for (std::size_t m_res : {16, 32, 64, 128}) {
    WaypointParams p = sparse_params(n);
    p.resolution = m_res;
    const auto m = run_waypoint(n, p, 12, 1200 + m_res);
    table.add_row({Table::integer(static_cast<long long>(m_res)),
                   Table::num(m.rounds.median, 1),
                   Table::num(m.rounds.p90, 1)});
  }
  table.print(std::cout);
  std::cout << "Expected shape: rows agree within trial noise once m is\n"
               "fine enough relative to r and v.\n";
}

}  // namespace
}  // namespace megflood

int main() {
  using namespace megflood;
  bench::print_header(
      "E5 / Random waypoint flooding (Section 4.1)",
      "Claim: flooding on the random waypoint over an L x L square is\n"
      "O((L/v_max)(L^2/(n r^2) + 1)^2 log^3 n); with L ~ sqrt(n), r, v =\n"
      "Theta(1) this is O(sqrt(n)/v_max log^3 n), near the trivial\n"
      "Omega(sqrt(n)/v_max) lower bound.");
  sweep_n();
  sweep_speed();
  sweep_resolution();
  return 0;
}
