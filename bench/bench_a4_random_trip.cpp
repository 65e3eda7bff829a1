// Ablation A4 — random trip generality (Corollary 4 beyond plain RWP).
//
// Corollary 4 covers *any* random trip model whose positional density
// satisfies the (delta, lambda) uniformity conditions.  Two variations on
// the waypoint theme:
//  * pause times at waypoints — pauses dilute motion, stretching the
//    mixing time ~ (1 + pause_fraction) and flooding with it;
//  * a disk region instead of the square — different geometry, same
//    conditions, same flooding ballpark.

#include <iostream>
#include <memory>

#include "bench_util.hpp"
#include "core/scenario.hpp"
#include "core/trial.hpp"
#include "mobility/random_trip.hpp"
#include "util/table.hpp"

namespace megflood {
namespace {

Measurement run_policy(std::shared_ptr<const TripPolicy> policy,
                       std::size_t n, double radius, std::uint64_t seed,
                       double warmup_factor) {
  RandomTripModel warm(n, policy, radius, 48, 0);
  TrialConfig cfg;
  cfg.trials = 16;
  cfg.seed = seed;
  cfg.max_rounds = 4'000'000;
  cfg.threads = 0;  // trial runner: one worker per hardware thread
  cfg.warmup_steps = static_cast<std::uint64_t>(
      warmup_factor * static_cast<double>(warm.suggested_warmup()));
  return measure(
      [&](std::uint64_t s) {
        return std::make_unique<RandomTripModel>(n, policy, radius, 48, s);
      },
      make_process_factory("flooding"), cfg);
}

void pause_sweep() {
  const std::size_t n = 96;
  const double side = 10.0, v = 1.0, radius = 1.0;
  std::cout << "\n-- pause-time sweep (square, L = " << side << ", v <= " << v
            << ") --\n";
  // Mean trip length ~ 0.52 L, so mean travel time ~ 0.52 L / (0.75 v).
  const double travel = 0.52 * side / (0.75 * v);
  Table table({"pause rounds", "dwell fraction", "flood p50", "flood p90"});
  std::vector<double> dilation, floods;
  for (std::uint64_t pause : {0ULL, 4ULL, 8ULL, 16ULL, 32ULL}) {
    auto policy = std::make_shared<SquareWaypointPolicy>(side, 0.5 * v, v,
                                                         pause, pause);
    const auto m =
        run_policy(policy, n, radius, 700 + pause,
                   2.0 * (1.0 + static_cast<double>(pause) / travel));
    const double fraction =
        static_cast<double>(pause) / (travel + static_cast<double>(pause));
    table.add_row({Table::integer(static_cast<long long>(pause)),
                   Table::num(fraction, 2), Table::num(m.rounds.median, 1),
                   Table::num(m.rounds.p90, 1)});
    dilation.push_back(1.0 + static_cast<double>(pause) / travel);
    floods.push_back(m.rounds.p90);
    if (m.incomplete > 0) {
      std::cout << "WARNING: " << m.incomplete << " incomplete at pause="
                << pause << "\n";
    }
  }
  table.print(std::cout);
  bench::print_slope(
      "flooding vs time-dilation factor (expect ~1: pauses stretch the "
      "clock)",
      dilation, floods);
}

void region_comparison() {
  const std::size_t n = 96;
  const double side = 10.0, v = 1.0, radius = 1.0;
  std::cout << "\n-- region ablation at matched density (n/area) --\n";
  Table table({"region", "area", "flood p50", "flood p90"});
  const auto square = run_policy(
      std::make_shared<SquareWaypointPolicy>(side, 0.5 * v, v), n, radius,
      900, 2.0);
  table.add_row({"square", Table::num(side * side, 0),
                 Table::num(square.rounds.median, 1),
                 Table::num(square.rounds.p90, 1)});
  // Disk with the same area: radius R with pi R^2 = side^2.
  const double disk_side = 2.0 * side / std::sqrt(std::numbers::pi);
  const auto disk = run_policy(
      std::make_shared<DiskWaypointPolicy>(disk_side, 0.5 * v, v), n, radius,
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
