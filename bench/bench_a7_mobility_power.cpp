// Ablation A7 — "high mobility can make up for low transmission power"
// (the paper's reference [12], here exercised through the random walk
// model's mixed static/mobile populations and its transmission radius).
//
// Two sweeps on a fixed grid and population:
//  * mobile fraction 0.25 -> 1.0 at fixed radius: flooding accelerates
//    with mobility;
//  * trade-off matrix: (mobile fraction) x (radius r in hops) — the
//    flooding contour shows low-power/high-mobility configurations
//    matching high-power/low-mobility ones.

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "util/table.hpp"

int main() {
  using namespace megflood;
  bench::print_header(
      "A7 / Mobility vs transmission power (random walk model)",
      "Mixed static/mobile populations on a grid: mobility substitutes\n"
      "for radio range, echoing [12].");

  // 60 agents on a 10 x 10 grid.
  auto run_walk = [](double fraction, std::uint32_t radius) {
    const auto seed =
        1000 + static_cast<std::uint64_t>(fraction * 100) + radius;
    return bench::run(
        {"--model=random_walk", "--n=60", "--side=10",
         "--mobile_fraction=" + bench::num_arg(fraction),
         "--connect_radius=" + std::to_string(radius), "--trials=16",
         "--seed=" + std::to_string(seed), "--max_rounds=4000000"});
  };

  std::cout << "\n-- mobile-fraction sweep at r = 1 --\n";
  Table sweep({"mobile fraction", "flood p50", "flood p90"});
  std::vector<double> fracs, floods;
  for (double fraction : {0.25, 0.5, 0.75, 1.0}) {
    const auto m = run_walk(fraction, 1);
    sweep.add_row({Table::num(fraction, 2), Table::num(m.rounds.median, 1),
                   Table::num(m.rounds.p90, 1)});
    fracs.push_back(fraction);
    floods.push_back(m.rounds.p90);
    bench::warn_incomplete(m, "fraction=" + Table::num(fraction, 2));
  }
  sweep.print(std::cout);
  bench::print_slope("flooding vs mobile fraction (negative: mobility helps)",
                     fracs, floods);

  std::cout << "\n-- trade-off matrix: rows = mobile fraction, cols = "
               "radius (flood p50) --\n";
  Table matrix({"fraction \\ r", "r=0", "r=1", "r=2", "r=3"});
  for (double fraction : {0.25, 0.5, 1.0}) {
    std::vector<std::string> row{Table::num(fraction, 2)};
    for (std::uint32_t radius : {0u, 1u, 2u, 3u}) {
      const auto m = run_walk(fraction, radius);
      row.push_back(m.incomplete > 0 ? ">" + Table::num(m.rounds.median, 0)
                                     : Table::num(m.rounds.median, 1));
    }
    matrix.add_row(std::move(row));
  }
  matrix.print(std::cout);
  std::cout << "\nExpected shape: moving down a column (more mobility) and\n"
               "moving right along a row (more power) both shrink the\n"
               "flooding time; full mobility at r = 1 rivals fractional\n"
               "mobility at r = 2-3 — mobility substitutes for power.\n";
  return 0;
}
