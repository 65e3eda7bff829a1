// Quickstart: build a dynamic graph, run flooding, compare against the
// paper's bound.
//
//   $ ./quickstart [n] [seed]
//
// Walks through the core API layers:
//   1. construct a model (here: the classic two-state edge-MEG),
//   2. run the flooding process and read the |I_t| trajectory,
//   3. evaluate the paper's closed-form bound for the same parameters,
//   4. measure many trials at once with the (threaded) trial runner.

#include <cstdlib>
#include <iostream>
#include <memory>

#include "analysis/bounds.hpp"
#include "core/flooding.hpp"
#include "core/scenario.hpp"
#include "core/trial.hpp"
#include "meg/edge_meg.hpp"

int main(int argc, char** argv) {
  using namespace megflood;

  const std::size_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 256;
  const std::uint64_t seed =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 42;

  // A sparse dynamic network: each potential edge is born with probability
  // p per round and dies with probability q, independently (an edge-MEG).
  // Expected stationary degree here is ~2, so snapshots are disconnected
  // almost surely — information can still spread because the graph heals.
  const double p = 1.0 / static_cast<double>(n);
  const double q = 0.5;
  TwoStateEdgeMEG network(n, {p, q}, seed);

  std::cout << "two-state edge-MEG: n = " << n << ", p = " << p
            << ", q = " << q << "\n";
  std::cout << "stationary edge probability alpha = "
            << network.chain().stationary_on() << "\n";
  std::cout << "chain mixing time T_mix = " << network.chain().mixing_time()
            << " steps\n\n";

  // Flood from node 0.  Round t applies I_{t+1} = I_t ∪ N_{E_t}(I_t);
  // flood() steps the model between rounds, never after the last one.
  const FloodResult result = flood(network, /*source=*/0,
                                   /*max_rounds=*/1'000'000);
  if (!result.completed) {
    std::cout << "flooding did not complete within the budget\n";
    return 1;
  }
  std::cout << "flooding completed in " << result.rounds << " rounds\n";
  std::cout << "informed-set growth |I_t|:";
  for (std::size_t t = 0; t < result.informed_counts.size(); ++t) {
    if (t % std::max<std::size_t>(1, result.informed_counts.size() / 12) == 0 ||
        t + 1 == result.informed_counts.size()) {
      std::cout << " " << result.informed_counts[t];
    }
  }
  std::cout << "\n\n";

  // The paper's Appendix-A bound for this exact model family.
  std::cout << "paper bound O((1/(p+q)) ((p+q)/(np) + 1)^2 log^2 n) = "
            << edge_meg_bound(n, p, q) << " (constant-free)\n";
  std::cout << "known tight bound (Eq. 2) O(log n / log(1+np)) = "
            << edge_meg_tight_bound(n, p) << "\n";

  // 4. One realization is noisy; the paper's bounds are "with high
  // probability" statements.  The trial runner measures many independent
  // realizations (in parallel across hardware threads) and reports the
  // upper quantiles that the bounds actually constrain.
  TrialConfig cfg;
  cfg.trials = 16;
  cfg.seed = seed;
  cfg.threads = 0;  // one worker per hardware thread
  const Measurement m = measure(
      [&](std::uint64_t trial_seed) {
        return std::make_unique<TwoStateEdgeMEG>(n, TwoStateParams{p, q},
                                                 trial_seed);
      },
      make_process_factory("flooding"), cfg);
  if (m.all_incomplete()) {
    std::cout << "\nno trial completed within the budget\n";
    return 1;
  }
  std::cout << "\nover " << cfg.trials
            << " independent realizations: median = " << m.rounds.median
            << " rounds, p90 = " << m.rounds.p90 << ", max = " << m.rounds.max
            << "\n";
  return 0;
}
