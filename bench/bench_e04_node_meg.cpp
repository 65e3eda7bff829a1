// Experiment E4 — Theorem 3 on node-MEGs with explicit chains.
//
// Model: every node runs a lazy random walk on a K-cycle of states;
// nodes are connected iff their states are within cycle-distance 1 (a 1-D
// geometric proximity connection).  P_NM, P_NM2 and eta are exact
// (Fact 2), T_mix is exact, so the Theorem-3 bound is fully computable.
// Sweep 1: n grows at fixed chain.  Sweep 2: state space K grows at fixed
// n (sparsifies the connection graph: P_NM = 3/K).

#include <iostream>
#include <memory>

#include "analysis/bounds.hpp"
#include "bench_util.hpp"
#include "core/scenario.hpp"
#include "core/trial.hpp"
#include "graph/builders.hpp"
#include "markov/mixing.hpp"
#include "meg/node_meg.hpp"
#include "util/table.hpp"

namespace megflood {
namespace {

void sweep_n(std::size_t k) {
  const DenseChain chain = lazy_random_walk_chain(cycle_graph(k));
  const ConnectionMap conn = cycle_proximity_connection(k, 1);
  const auto inv = node_meg_invariants(chain.stationary(), conn);
  const auto t_mix = static_cast<double>(mixing_time(chain));
  std::cout << "\n-- sweep n at K = " << k << " states (P_NM = "
            << Table::num(inv.p_nm, 4) << ", eta = " << Table::num(inv.eta, 3)
            << ", T_mix = " << t_mix << ") --\n";
  Table table({"n", "flood p50", "flood p90", "bound(raw)",
               "bound(calibrated)", "dominated"});
  bench::BoundCalibrator cal;
  for (std::size_t n : {32, 64, 128, 256}) {
    TrialConfig cfg;
    cfg.trials = 24;
    cfg.seed = 400 + n;
    cfg.max_rounds = 1'000'000;
    cfg.threads = 0;  // trial runner: one worker per hardware thread
    const auto m = measure(
        [&](std::uint64_t seed) {
          return std::make_unique<ExplicitNodeMEG>(n, chain, conn, seed);
        },
        make_process_factory("flooding"), cfg);
    const double raw = theorem3_bound(t_mix, n, inv.p_nm, inv.eta);
    const double calibrated = cal.record(m.rounds.p90, raw);
    table.add_row({Table::integer(static_cast<long long>(n)),
                   Table::num(m.rounds.median, 1), Table::num(m.rounds.p90, 1),
                   Table::num(raw, 1), Table::num(calibrated, 1),
                   bench::verdict(m.rounds.p90 <= 3.0 * calibrated)});
    if (m.incomplete > 0) {
      std::cout << "WARNING: " << m.incomplete << " incomplete at n=" << n
                << "\n";
    }
  }
  table.print(std::cout);
  bench::print_footer(cal, "flooding p90");
}

void sweep_states() {
  const std::size_t n = 96;
  std::cout << "\n-- sweep state-space size K at n = " << n
            << " (P_NM = 3/K shrinks, T_mix ~ K^2 grows) --\n";
  Table table({"K", "P_NM", "eta", "T_mix", "flood p50", "flood p90",
               "bound(raw)", "bound(calibrated)", "dominated"});
  bench::BoundCalibrator cal;
  for (std::size_t k : {8, 12, 16, 24}) {
    const DenseChain chain = lazy_random_walk_chain(cycle_graph(k));
    const ConnectionMap conn = cycle_proximity_connection(k, 1);
    const auto inv = node_meg_invariants(chain.stationary(), conn);
    const auto t_mix = static_cast<double>(mixing_time(chain));
    TrialConfig cfg;
    cfg.trials = 16;
    cfg.seed = 4400 + k;
    cfg.max_rounds = 1'000'000;
    cfg.threads = 0;  // trial runner: one worker per hardware thread
    const auto m = measure(
        [&](std::uint64_t seed) {
          return std::make_unique<ExplicitNodeMEG>(n, chain, conn, seed);
        },
        make_process_factory("flooding"), cfg);
    const double raw = theorem3_bound(t_mix, n, inv.p_nm, inv.eta);
    const double calibrated = cal.record(m.rounds.p90, raw);
    table.add_row({Table::integer(static_cast<long long>(k)),
                   Table::num(inv.p_nm, 4), Table::num(inv.eta, 3),
                   Table::num(t_mix, 0), Table::num(m.rounds.median, 1),
                   Table::num(m.rounds.p90, 1), Table::num(raw, 1),
                   Table::num(calibrated, 1),
                   bench::verdict(m.rounds.p90 <= 3.0 * calibrated)});
    if (m.incomplete > 0) {
      std::cout << "WARNING: " << m.incomplete << " incomplete at K=" << k
                << "\n";
    }
  }
  table.print(std::cout);
  bench::print_footer(cal, "flooding p90");
}

}  // namespace
}  // namespace megflood

int main() {
  using namespace megflood;
  bench::print_header(
      "E4 / Theorem 3 (node-MEGs)",
      "Claim: a node-MEG with P_NM >= 1/poly(n) and P_NM2 <= eta P_NM^2\n"
      "floods in O(T_mix (1/(n P_NM) + eta)^2 log^3 n) w.h.p.  All inputs\n"
      "exact via Fact 2 on an explicit cycle-walk chain.");
  sweep_n(12);
  sweep_states();
  return 0;
}
