// Ablation A4 — random trip generality (Corollary 4 beyond plain RWP).
//
// Corollary 4 covers *any* random trip model whose positional density
// satisfies the (delta, lambda) uniformity conditions.  Two variations on
// the waypoint theme:
//  * pause times at waypoints — pauses dilute motion, stretching the
//    mixing time ~ (1 + pause_fraction) and flooding with it;
//  * a disk region instead of the square — different geometry, same
//    conditions, same flooding ballpark.

#include <cmath>
#include <iostream>
#include <numbers>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "util/table.hpp"

namespace megflood {
namespace {

// One random-trip point at n = 96, r = 1 on a 48-cell grid; `policy_args`
// pick the policy.  The warmup is `warmup_factor` times the model's
// suggested warmup (4 L / v_max), so pauses get a proportionally longer
// run-in.
Measurement run_policy(const std::vector<std::string>& policy_args,
                       std::uint64_t seed, double warmup_factor) {
  std::vector<std::string> args = {
      "--model=random_trip", "--n=96", "--radius=1", "--resolution=48",
      "--trials=16", "--seed=" + std::to_string(seed),
      "--max_rounds=4000000"};
  args.insert(args.end(), policy_args.begin(), policy_args.end());
  const std::uint64_t warmup = static_cast<std::uint64_t>(
      warmup_factor *
      static_cast<double>(*bench::model(args).suggested_warmup));
  args.push_back("--warmup=" + std::to_string(warmup));
  return bench::run(args);
}

void pause_sweep() {
  const double side = 10.0, v = 1.0;
  std::cout << "\n-- pause-time sweep (square, L = " << side << ", v <= " << v
            << ") --\n";
  // Mean trip length ~ 0.52 L, so mean travel time ~ 0.52 L / (0.75 v).
  const double travel = 0.52 * side / (0.75 * v);
  Table table({"pause rounds", "dwell fraction", "flood p50", "flood p90"});
  std::vector<double> dilation, floods;
  for (std::uint64_t pause : {0ULL, 4ULL, 8ULL, 16ULL, 32ULL}) {
    const auto m = run_policy(
        {"--policy=square", "--side=" + bench::num_arg(side),
         "--v_min=" + bench::num_arg(0.5 * v), "--v_max=" + bench::num_arg(v),
         "--pause_lo=" + std::to_string(pause),
         "--pause_hi=" + std::to_string(pause)},
        700 + pause, 2.0 * (1.0 + static_cast<double>(pause) / travel));
    const double fraction =
        static_cast<double>(pause) / (travel + static_cast<double>(pause));
    table.add_row({Table::integer(static_cast<long long>(pause)),
                   Table::num(fraction, 2), Table::num(m.rounds.median, 1),
                   Table::num(m.rounds.p90, 1)});
    dilation.push_back(1.0 + static_cast<double>(pause) / travel);
    floods.push_back(m.rounds.p90);
    bench::warn_incomplete(m, "pause=" + std::to_string(pause));
  }
  table.print(std::cout);
  bench::print_slope(
      "flooding vs time-dilation factor (expect ~1: pauses stretch the "
      "clock)",
      dilation, floods);
}

void region_comparison() {
  const double side = 10.0, v = 1.0;
  std::cout << "\n-- region ablation at matched density (n/area) --\n";
  Table table({"region", "area", "flood p50", "flood p90"});
  const auto square = run_policy(
      {"--policy=square", "--side=" + bench::num_arg(side),
       "--v_min=" + bench::num_arg(0.5 * v), "--v_max=" + bench::num_arg(v)},
      900, 2.0);
  table.add_row({"square", Table::num(side * side, 0),
                 Table::num(square.rounds.median, 1),
                 Table::num(square.rounds.p90, 1)});
  // Disk with the same area: radius R with pi R^2 = side^2.
  const double disk_side = 2.0 * side / std::sqrt(std::numbers::pi);
  const auto disk = run_policy(
      {"--policy=disk", "--side=" + bench::num_arg(disk_side),
       "--v_min=" + bench::num_arg(0.5 * v), "--v_max=" + bench::num_arg(v)},
      901, 2.0);
  table.add_row({"disk (same area)",
                 Table::num(std::numbers::pi * disk_side * disk_side / 4.0, 0),
                 Table::num(disk.rounds.median, 1),
                 Table::num(disk.rounds.p90, 1)});
  table.print(std::cout);
  std::cout << "Expected shape: same-area disk floods within a small factor\n"
               "of the square — Corollary 4's conditions are geometry-\n"
               "agnostic.\n";
}

}  // namespace
}  // namespace megflood

int main() {
  using namespace megflood;
  bench::print_header(
      "A4 / Random-trip generality (pauses, regions)",
      "Corollary 4 covers any random trip model meeting the (delta,\n"
      "lambda) uniformity conditions; flooding should respond only\n"
      "through the positional density and the mixing time.");
  pause_sweep();
  region_comparison();
  return 0;
}
