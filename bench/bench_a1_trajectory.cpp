// Ablation A1 — does the trajectory shape matter?
//
// The paper's pitch (vs. the ad-hoc Manhattan analysis of [13]) is that
// its general method is insensitive to the specific trajectories: only
// the positional stationary distribution (delta, lambda) and the mixing
// time enter the bound.  We compare two mobility models with matched
// scale — straight-line random waypoint vs. L-shaped (Manhattan) paths on
// the grid — at L = sqrt(n), unit radius, unit-ish speed, and check both
// exhibit the same O(sqrt(n) polylog) flooding scaling.

#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "util/table.hpp"

int main() {
  using namespace megflood;
  bench::print_header(
      "A1 / Trajectory-shape ablation (straight lines vs Manhattan paths)",
      "Claim behind the paper's generality: flooding depends on the\n"
      "positional distribution and mixing time, not the trajectory shape;\n"
      "straight-line RWP and Manhattan L-paths should scale alike.");

  Table table({"n", "L=s", "RWP p50", "RWP p90", "Manhattan p50",
               "Manhattan p90", "ratio p50"});
  std::vector<double> ns, rwp_times, man_times;
  for (std::size_t n : {32, 72, 128, 200}) {
    const auto side = static_cast<std::size_t>(
        std::llround(std::sqrt(static_cast<double>(n) / 2.0)) * 2);
    const std::string seed = "--seed=" + std::to_string(100 + n);
    // Straight-line RWP on the side x side square, r = 1, v ~ 1.
    const auto rwp = bench::run(
        {"--model=random_waypoint", "--n=" + std::to_string(n),
         "--side=" + std::to_string(side - 1), "--v_min=0.75",
         "--v_max=1.25", "--radius=1",
         "--resolution=" + std::to_string(std::max<std::size_t>(32, 2 * side)),
         "--warmup=auto", "--trials=16", seed, "--max_rounds=2000000"});
    // Manhattan: L-paths on the side x side grid, 1 point per unit, one
    // hop per round (speed 1), transmission radius 1 hop; the start is
    // exactly stationary, so no warmup.
    const auto manhattan = bench::run(
        {"--model=grid_paths", "--n=" + std::to_string(n),
         "--side=" + std::to_string(side), "--connect_radius=1",
         "--trials=16", seed, "--max_rounds=2000000"});
    table.add_row(
        {Table::integer(static_cast<long long>(n)),
         Table::integer(static_cast<long long>(side)),
         Table::num(rwp.rounds.median, 1), Table::num(rwp.rounds.p90, 1),
         Table::num(manhattan.rounds.median, 1),
         Table::num(manhattan.rounds.p90, 1),
         Table::num(rwp.rounds.median /
                        std::max(1.0, manhattan.rounds.median),
                    2)});
    ns.push_back(static_cast<double>(n));
    rwp_times.push_back(rwp.rounds.p90);
    man_times.push_back(manhattan.rounds.p90);
  }
  table.print(std::cout);
  bench::print_slope("RWP flooding vs n (expect ~0.5)", ns, rwp_times);
  bench::print_slope("Manhattan flooding vs n (expect ~0.5)", ns, man_times);
  std::cout << "Expected shape: both models scale ~sqrt(n) and stay within\n"
               "a constant factor of each other — the trajectory shape\n"
               "washes out, as the paper's general method predicts.\n";
  return 0;
}
