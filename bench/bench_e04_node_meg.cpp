// Experiment E4 — Theorem 3 on node-MEGs with explicit chains.
//
// Model: every node runs a lazy random walk on a K-cycle of states;
// nodes are connected iff their states are within cycle-distance 1 (a 1-D
// geometric proximity connection).  P_NM, P_NM2 and eta are exact
// (Fact 2), T_mix is exact, so the Theorem-3 bound is fully computable.
// Sweep 1: n grows at fixed chain.  Sweep 2: state space K grows at fixed
// n (sparsifies the connection graph: P_NM = 3/K).

#include <iostream>

#include "analysis/bounds.hpp"
#include "bench_util.hpp"
#include "graph/builders.hpp"
#include "markov/mixing.hpp"
#include "meg/node_meg.hpp"
#include "util/table.hpp"

namespace megflood {
namespace {

void sweep_n(std::size_t k) {
  const DenseChain chain = lazy_random_walk_chain(cycle_graph(k));
  const auto inv = node_meg_invariants(chain.stationary(),
                                       cycle_proximity_connection(k, 1));
  const auto t_mix = static_cast<double>(mixing_time(chain));
  std::cout << "\n-- sweep n at K = " << k << " states (P_NM = "
            << Table::num(inv.p_nm, 4) << ", eta = " << Table::num(inv.eta, 3)
            << ", T_mix = " << t_mix << ") --\n";
  Table table({"n", "flood p50", "flood p90", "bound(raw)",
               "bound(calibrated)", "dominated"});
  bench::CalibratedSweep sweep("n");
  for (std::size_t n : {32, 64, 128, 256}) {
    const auto m = bench::run(
        {"--model=node_meg", "--n=" + std::to_string(n),
         "--states=" + std::to_string(k), "--connection=cycle",
         "--trials=24", "--seed=" + std::to_string(400 + n),
         "--max_rounds=1000000"});
    table.add_row(sweep.row({Table::integer(static_cast<long long>(n))},
                            static_cast<double>(n), m,
                            theorem3_bound(t_mix, n, inv.p_nm, inv.eta)));
  }
  table.print(std::cout);
  sweep.print_footer("flooding p90");
}

void sweep_states() {
  const std::size_t n = 96;
  std::cout << "\n-- sweep state-space size K at n = " << n
            << " (P_NM = 3/K shrinks, T_mix ~ K^2 grows) --\n";
  Table table({"K", "P_NM", "eta", "T_mix", "flood p50", "flood p90",
               "bound(raw)", "bound(calibrated)", "dominated"});
  bench::CalibratedSweep sweep("K");
  for (std::size_t k : {8, 12, 16, 24}) {
    const DenseChain chain = lazy_random_walk_chain(cycle_graph(k));
    const auto inv = node_meg_invariants(chain.stationary(),
                                         cycle_proximity_connection(k, 1));
    const auto t_mix = static_cast<double>(mixing_time(chain));
    const auto m = bench::run(
        {"--model=node_meg", "--n=" + std::to_string(n),
         "--states=" + std::to_string(k), "--connection=cycle",
         "--trials=16", "--seed=" + std::to_string(4400 + k),
         "--max_rounds=1000000"});
    table.add_row(sweep.row({Table::integer(static_cast<long long>(k)),
                             Table::num(inv.p_nm, 4), Table::num(inv.eta, 3),
                             Table::num(t_mix, 0)},
                            static_cast<double>(k), m,
                            theorem3_bound(t_mix, n, inv.p_nm, inv.eta)));
  }
  table.print(std::cout);
  sweep.print_footer("flooding p90");
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
