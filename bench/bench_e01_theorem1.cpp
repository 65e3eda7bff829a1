// Experiment E1 — Theorem 1 on (M, alpha, beta)-stationary dynamic graphs.
//
// Model: two-state edge-MEG (independent per-edge chains), for which the
// theorem's inputs are exact closed forms: alpha = p/(p+q), beta = 1,
// M = T_mix = Theta(1/(p+q)).  We sweep n at two density regimes and
// check that (i) flooding completes, (ii) the calibrated Theorem-1 bound
// dominates the measured p90 across the sweep, (iii) the measured growth
// is no steeper than the bound's growth.

#include <iostream>
#include <memory>

#include "analysis/bounds.hpp"
#include "bench_util.hpp"
#include "core/scenario.hpp"
#include "core/trial.hpp"
#include "meg/edge_meg.hpp"
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
  bench::BoundCalibrator cal;
  std::vector<double> ns, measured;
  for (std::size_t n : {64, 128, 256, 512, 1024}) {
    // Solve alpha = p/(p+q) = edge_expectation / n for p.
    const double alpha = edge_expectation / static_cast<double>(n);
    const double p = alpha * q / (1.0 - alpha);
    TwoStateEdgeMEG probe(n, {p, q}, 1);
    const auto t_mix = static_cast<double>(probe.chain().mixing_time());

    TrialConfig cfg;
    cfg.trials = 24;
    cfg.seed = 1000 + n;
    cfg.max_rounds = 2'000'000;
    cfg.threads = 0;  // trial runner: one worker per hardware thread
    const auto m = measure(
        [&](std::uint64_t seed) {
          return std::make_unique<TwoStateEdgeMEG>(n, TwoStateParams{p, q},
                                                   seed);
        },
        make_process_factory("flooding"), cfg);
    const double raw = theorem1_bound(t_mix, n, alpha, 1.0);
    // A measurement with zero completed trials must not calibrate the
    // constant, count as dominated, or enter the slope fit.
    const bool usable = !m.all_incomplete();
    const double calibrated = usable ? cal.record(m.rounds.p90, raw) : 0.0;
    table.add_row({Table::integer(static_cast<long long>(n)), Table::num(p, 5),
                   Table::num(alpha, 5), Table::num(t_mix, 0),
                   bench::fmt_rounds(m, m.rounds.median),
                   bench::fmt_rounds(m, m.rounds.p90),
                   Table::num(raw, 1),
                   usable ? Table::num(calibrated, 1) : "n/a",
                   usable ? bench::verdict(m.rounds.p90 <= 3.0 * calibrated)
                          : "n/a"});
    if (usable) {
      ns.push_back(static_cast<double>(n));
      measured.push_back(m.rounds.p90);
    }
    bench::warn_incomplete(m, "n=" + std::to_string(n));
  }
  table.print(std::cout);
  bench::print_footer(cal, "flooding p90");
  bench::print_slope("measured flooding vs n", ns, measured);
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
