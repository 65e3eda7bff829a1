// Experiment E3 — Appendix A: *generalized* edge-MEGs (arbitrary hidden
// chain + chi map).  Edges are independent, so beta = 1 and Theorem 1
// gives O(T_mix (1/(n*alpha) + 1)^2 log^2 n) with alpha = pi(chi = 1) and
// T_mix the hidden chain's exact mixing time.  Two hidden chains are
// exercised: a 3-state bursty link and an 8-state duty-cycled link.

#include <iostream>
#include <string>
#include <vector>

#include "analysis/bounds.hpp"
#include "bench_util.hpp"
#include "markov/mixing.hpp"
#include "meg/general_edge_meg.hpp"
#include "util/table.hpp"

namespace megflood {
namespace {

// `link_args` selects the same hidden chain in the registry's
// general_edge_meg.
void run_chain(const std::string& name, const BurstyLink& link,
               const std::vector<std::string>& link_args) {
  GeneralEdgeMEG probe(8, link.chain, link.chi, 1);
  const double alpha = probe.stationary_edge_probability();
  const auto t_mix = static_cast<double>(mixing_time(link.chain));
  std::cout << "\n-- hidden chain: " << name << " (|S| = "
            << link.chain.num_states() << ", alpha = " << Table::num(alpha, 4)
            << ", T_mix = " << t_mix << ") --\n";

  Table table({"n", "flood p50", "flood p90", "bound(raw)",
               "bound(calibrated)", "dominated"});
  bench::CalibratedSweep sweep("n");
  for (std::size_t n : {48, 96, 192, 384}) {
    std::vector<std::string> args = {
        "--model=general_edge_meg", "--n=" + std::to_string(n),
        "--trials=16", "--seed=" + std::to_string(300 + n),
        "--max_rounds=1000000"};
    args.insert(args.end(), link_args.begin(), link_args.end());
    table.add_row(sweep.row({Table::integer(static_cast<long long>(n))},
                            static_cast<double>(n), bench::run(args),
                            general_edge_meg_bound(t_mix, n, alpha)));
  }
  table.print(std::cout);
  sweep.print_footer("flooding p90");
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
  run_chain("bursty (off->warming->on)", make_bursty_link(0.05, 0.3, 0.4),
            {"--link=bursty", "--wake=0.05", "--ready=0.3", "--drop=0.4"});
  run_chain("duty-cycle (8 states, 2 on)", make_duty_cycle_link(8, 2, 0.7),
            {"--link=duty_cycle", "--period=8", "--on_states=2",
             "--advance=0.7"});
  return 0;
}
