// Experiment E1 — Theorem 1 on (M, alpha, beta)-stationary dynamic graphs.
//
// Model: two-state edge-MEG (independent per-edge chains), for which the
// theorem's inputs are exact closed forms: alpha = p/(p+q), beta = 1,
// M = T_mix = Theta(1/(p+q)).  We sweep n at two density regimes and
// check that (i) flooding completes, (ii) the calibrated Theorem-1 bound
// dominates the measured p90 across the sweep, (iii) the measured growth
// is no steeper than the bound's growth.

#include <iostream>

#include "analysis/bounds.hpp"
#include "bench_util.hpp"
#include "markov/two_state.hpp"
#include "util/table.hpp"

namespace megflood {
namespace {

void run_regime(const std::string& name, double edge_expectation, double q) {
  // edge_expectation = expected stationary degree / (n-1) scale factor:
  // p is chosen so that n * alpha ~= edge_expectation.
  std::cout << "\n-- regime: " << name << " (n*alpha ~= " << edge_expectation
            << ", q = " << q << ") --\n";
  Table table({"n", "p", "alpha", "T_mix(M)", "flood p50", "flood p90",
               "bound(raw)", "bound(calibrated)", "dominated"});
  bench::CalibratedSweep sweep("n");
  for (std::size_t n : {64, 128, 256, 512, 1024}) {
    // Solve alpha = p/(p+q) = edge_expectation / n for p.
    const double alpha = edge_expectation / static_cast<double>(n);
    const double p = alpha * q / (1.0 - alpha);
    const auto t_mix =
        static_cast<double>(TwoStateChain({p, q}).mixing_time());
    const auto m = bench::run(
        {"--model=edge_meg", "--n=" + std::to_string(n),
         "--p=" + bench::num_arg(p), "--q=" + bench::num_arg(q),
         "--trials=24", "--seed=" + std::to_string(1000 + n),
         "--max_rounds=2000000"});
    table.add_row(sweep.row({Table::integer(static_cast<long long>(n)),
                             Table::num(p, 5), Table::num(alpha, 5),
                             Table::num(t_mix, 0)},
                            static_cast<double>(n), m,
                            theorem1_bound(t_mix, n, alpha, 1.0)));
  }
  table.print(std::cout);
  sweep.print_footer("flooding p90");
  sweep.print_slope("measured flooding vs n");
}

}  // namespace
}  // namespace megflood

int main() {
  using namespace megflood;
  bench::print_header(
      "E1 / Theorem 1",
      "Claim: flooding time of an (M, alpha, beta)-stationary dynamic graph\n"
      "is O(M * (1/(n*alpha) + beta)^2 * log^2 n) w.h.p.  Instantiated on\n"
      "two-state edge-MEGs where alpha, beta, M are exact closed forms.");
  // Sparse regime: expected stationary degree ~2 (disconnected snapshots).
  run_regime("sparse", 2.0, 0.25);
  // Denser regime: expected stationary degree ~8.
  run_regime("dense", 8.0, 0.25);
  return 0;
}
