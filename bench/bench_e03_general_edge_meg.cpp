// Experiment E3 — Appendix A: *generalized* edge-MEGs (arbitrary hidden
// chain + chi map).  Edges are independent, so beta = 1 and Theorem 1
// gives O(T_mix (1/(n*alpha) + 1)^2 log^2 n) with alpha = pi(chi = 1) and
// T_mix the hidden chain's exact mixing time.  Two hidden chains are
// exercised: a 3-state bursty link and an 8-state duty-cycled link.

#include <iostream>
#include <memory>

#include "analysis/bounds.hpp"
#include "bench_util.hpp"
#include "core/scenario.hpp"
#include "core/trial.hpp"
#include "markov/mixing.hpp"
#include "meg/general_edge_meg.hpp"
#include "util/table.hpp"

namespace megflood {
namespace {

void run_chain(const std::string& name, const BurstyLink& link) {
  GeneralEdgeMEG probe(8, link.chain, link.chi, 1);
  const double alpha = probe.stationary_edge_probability();
  const auto t_mix = static_cast<double>(mixing_time(link.chain));
  std::cout << "\n-- hidden chain: " << name << " (|S| = "
            << link.chain.num_states() << ", alpha = " << Table::num(alpha, 4)
            << ", T_mix = " << t_mix << ") --\n";

  Table table({"n", "flood p50", "flood p90", "bound(raw)",
               "bound(calibrated)", "dominated"});
  bench::BoundCalibrator cal;
  for (std::size_t n : {48, 96, 192, 384}) {
    TrialConfig cfg;
    cfg.trials = 16;
    cfg.seed = 300 + n;
    cfg.max_rounds = 1'000'000;
    cfg.threads = 0;  // trial runner: one worker per hardware thread
    const auto m = measure(
        [&](std::uint64_t seed) {
          return std::make_unique<GeneralEdgeMEG>(n, link.chain, link.chi,
                                                  seed);
        },
        make_process_factory("flooding"), cfg);
    const double raw = general_edge_meg_bound(t_mix, n, alpha);
    // A measurement with zero completed trials must not calibrate the
    // constant or count as dominated.
    const bool usable = !m.all_incomplete();
    const double calibrated = usable ? cal.record(m.rounds.p90, raw) : 0.0;
    table.add_row({Table::integer(static_cast<long long>(n)),
                   bench::fmt_rounds(m, m.rounds.median),
                   bench::fmt_rounds(m, m.rounds.p90),
                   Table::num(raw, 1),
                   usable ? Table::num(calibrated, 1) : "n/a",
                   usable ? bench::verdict(m.rounds.p90 <= 3.0 * calibrated)
                          : "n/a"});
    bench::warn_incomplete(m, "n=" + std::to_string(n));
  }
  table.print(std::cout);
  bench::print_footer(cal, "flooding p90");
}

}  // namespace
}  // namespace megflood

int main() {
  using namespace megflood;
  bench::print_header(
      "E3 / Appendix A (generalized edge-MEG)",
      "Claim: for edge-MEGs driven by an arbitrary hidden chain M and\n"
      "existence map chi, beta = 1 and flooding is\n"
      "O(T_mix (1/(n*alpha) + 1)^2 log^2 n), alpha = pi_M(chi = 1).");
  run_chain("bursty (off->warming->on)", make_bursty_link(0.05, 0.3, 0.4));
  run_chain("duty-cycle (8 states, 2 on)", make_duty_cycle_link(8, 2, 0.7));
  return 0;
}
