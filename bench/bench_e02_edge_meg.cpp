// Experiment E2 — Appendix A: two-state edge-MEG bound vs. the known
// almost-tight bound of [10] (Eq. 2), across the q/(n p) crossover.
//
// Paper claim: our bound O((1/(p+q)) ((p+q)/(np) + 1)^2 log^2 n) is almost
// tight (within polylog of Eq. 2's O(log n / log(1+np))) whenever q >= np,
// and degrades below that crossover.  We sweep q at fixed n, p and print
// measured flooding, both bound formulas, and their ratio.

#include <cmath>
#include <iostream>

#include "analysis/bounds.hpp"
#include "bench_util.hpp"
#include "util/table.hpp"

int main() {
  using namespace megflood;
  bench::print_header(
      "E2 / Appendix A (edge-MEG tightness crossover)",
      "Claim: the Theorem-1 derived bound for two-state edge-MEGs is within\n"
      "polylog(n) of the almost-tight Eq. 2 bound of [10] iff q >= n*p.");

  const std::size_t n = 256;
  const double p = 1.0 / (static_cast<double>(n) * 8.0);  // np = 0.125
  const double np = static_cast<double>(n) * p;
  const double polylog =
      std::pow(std::log(static_cast<double>(n)), 3.0);

  Table table({"q/(np)", "q", "flood p50", "flood p90", "ours(raw)",
               "eq2(raw)", "ours/eq2", "within polylog"});
  // q = ratio * np must stay a probability: with np = 0.125 the ratio can
  // sweep up to 8 (q = 1, instant link death).
  for (double ratio : {0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0}) {
    const double q = ratio * np;
    const auto seed = 7000 + static_cast<std::uint64_t>(ratio * 1000);
    const auto m = bench::run(
        {"--model=edge_meg", "--n=" + std::to_string(n),
         "--p=" + bench::num_arg(p), "--q=" + bench::num_arg(q),
         "--trials=24", "--seed=" + std::to_string(seed),
         "--max_rounds=4000000"});
    const double ours = edge_meg_bound(n, p, q);
    const double eq2 = edge_meg_tight_bound(n, p);
    const bool tight = ours <= polylog * eq2;
    table.add_row({Table::num(ratio, 3), Table::num(q, 5),
                   bench::fmt_rounds(m, m.rounds.median),
                   bench::fmt_rounds(m, m.rounds.p90),
                   Table::num(ours, 1), Table::num(eq2, 1),
                   Table::num(ours / eq2, 2), bench::verdict(tight)});
    bench::warn_incomplete(m, "q/(np)=" + std::to_string(ratio));
  }
  table.print(std::cout);
  std::cout << "\npolylog(n) threshold used: log^3 n = "
            << Table::num(polylog, 1)
            << "\nExpected shape: the ours/eq2 ratio stays within polylog "
               "across this regime\n(q can reach np here), and is best near "
               "the q ~ np crossover.\n";

  // Regime B: np >> 1, so q <= 1 < np for every q — the paper's bound is
  // NOT almost-tight here (it pays 1/(p+q) where Eq. 2 pays only
  // log n / log(1+np)); the ratio must exceed polylog for small q.
  const double p2 = 16.0 / static_cast<double>(n);  // np = 16
  std::cout << "\n-- regime B: np = 16 (q < np always; paper predicts the "
               "bound is loose here) --\n";
  Table table2({"q", "flood p50", "ours(raw)", "eq2(raw)", "ours/eq2",
                "within polylog"});
  for (double q : {0.001, 0.01, 0.1, 1.0}) {
    const auto seed = 8800 + static_cast<std::uint64_t>(q * 10000);
    const auto m = bench::run(
        {"--model=edge_meg", "--n=" + std::to_string(n),
         "--p=" + bench::num_arg(p2), "--q=" + bench::num_arg(q),
         "--trials=16", "--seed=" + std::to_string(seed),
         "--max_rounds=100000"});
    const double ours = edge_meg_bound(n, p2, q);
    const double eq2 = edge_meg_tight_bound(n, p2);
    table2.add_row({Table::num(q, 4), bench::fmt_rounds(m, m.rounds.median),
                    Table::num(ours, 1), Table::num(eq2, 1),
                    Table::num(ours / eq2, 1),
                    bench::verdict(ours <= polylog * eq2)});
  }
  table2.print(std::cout);
  std::cout << "Expected shape: 'within polylog' is NO at small q and "
               "recovers only as q -> 1\n(still below np = 16, so the gap "
               "persists, exactly as the paper admits).\n";
  return 0;
}
