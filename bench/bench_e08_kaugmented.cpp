// Experiment E8 — Corollary 6 vs. the meeting-time bound of Dimitriou,
// Nikoletseas, Spirakis [15] on k-augmented grids.
//
// Paper claim (end of Section 4.1): for random walks on the k-augmented
// grid, the meeting time T* stays Omega(s log s) (so [15]'s O(T* log n)
// bound does not improve much with k) while the mixing time drops ~ k^2,
// so the Corollary-6 bound O(T_mix (delta^2 |V|/n + delta^7)^2 log^3 n)
// beats [15] by a factor ~ k^2.
//
// We use the k-augmented *torus* so that delta = 1 exactly (every point
// has degree 2k(k+1)): on the bounded grid the corner/center degree ratio
// delta varies with k and its delta^7 entry in the bound masks the k^2
// effect at bench-size s (documented in EXPERIMENTS.md).  We measure
// T_mix (exact, distribution evolution), T* (simulated), and the actual
// flooding time for k = 1..4.

#include <iostream>
#include <memory>

#include "analysis/bounds.hpp"
#include "analysis/meeting_time.hpp"
#include "bench_util.hpp"
#include "core/scenario.hpp"
#include "core/trial.hpp"
#include "graph/algorithms.hpp"
#include "graph/builders.hpp"
#include "markov/chain.hpp"
#include "markov/mixing.hpp"
#include "mobility/random_walk.hpp"
#include "util/table.hpp"

int main() {
  using namespace megflood;
  bench::print_header(
      "E8 / Corollary 6 on k-augmented grids (vs. [15])",
      "Claim: augmenting the grid with hop-<=k edges drops the mixing time\n"
      "~k^2 while the meeting time T* barely moves, so the T_mix-based\n"
      "Corollary-6 bound beats the T*-based bound O(T* log n) of [15] by\n"
      "~k^2.  Torus variant: delta = 1 exactly.");

  const std::size_t side = 15;  // side > 2k+1 for k <= 4
  const std::size_t points = side * side;
  const std::size_t n = 2 * points;

  Table table({"k", "degree", "T_mix", "T* (mean)", "flood p50", "flood p90",
               "ours(raw)", "[15](raw)", "[15]/ours"});
  std::vector<double> ks, tmixes, ratios, floods;
  double base_ratio = 0.0;
  for (std::size_t k : {1, 2, 3, 4}) {
    const auto graph =
        std::make_shared<const Graph>(k_augmented_torus(side, k));
    const DegreeStats ds = degree_stats(*graph);

    // Exact mixing time of the move chain (uniform over ball + self); on
    // the torus every start is equivalent, so one start suffices.
    std::vector<std::vector<double>> rows(points,
                                          std::vector<double>(points, 0.0));
    const auto balls = all_balls(*graph, 1);
    for (VertexId v = 0; v < points; ++v) {
      const double w = 1.0 / static_cast<double>(balls[v].size() + 1);
      rows[v][v] = w;
      for (VertexId u : balls[v]) rows[v][u] = w;
    }
    const auto t_mix = static_cast<double>(
        mixing_time_from_starts(DenseChain(std::move(rows)), {0}));

    const auto meeting =
        measure_meeting_time(*graph, {}, 300, 10'000'000, 800 + k);

    // The registry's random_walk moves on a plain grid, so the walk on the
    // k-augmented torus keeps its own factory.
    TrialConfig cfg;
    cfg.trials = 12;
    cfg.seed = 850 + k;
    cfg.max_rounds = 2'000'000;
    cfg.threads = 0;  // trial runner: one worker per hardware thread
    const auto m = measure(
        [&](std::uint64_t seed) {
          return std::make_unique<RandomWalkModel>(graph, n,
                                                   RandomWalkParams{}, seed);
        },
        make_process_factory("flooding"), cfg);

    const double ours =
        corollary6_bound(t_mix, n, points, ds.regularity_delta);
    const double theirs = meeting_time_bound(meeting.steps.mean, n);
    const double ratio = theirs / ours;
    if (k == 1) base_ratio = ratio;
    table.add_row({Table::integer(static_cast<long long>(k)),
                   Table::integer(static_cast<long long>(ds.max)),
                   Table::num(t_mix, 0), Table::num(meeting.steps.mean, 1),
                   Table::num(m.rounds.median, 1), Table::num(m.rounds.p90, 1),
                   Table::num(ours, 1), Table::num(theirs, 1),
                   Table::num(ratio, 4)});
    ks.push_back(static_cast<double>(k));
    tmixes.push_back(t_mix);
    ratios.push_back(ratio);
    floods.push_back(m.rounds.p90);
    bench::warn_incomplete(m, "k=" + std::to_string(k));
  }
  table.print(std::cout);
  bench::print_slope("T_mix vs k (expect ~-2)", ks, tmixes);
  bench::print_slope("measured flooding vs k (drops with k)", ks, floods);
  bench::print_slope("([15]/ours) advantage vs k (expect ~+2: ours improves "
                     "k^2 faster)",
                     ks, ratios);
  std::cout << "relative advantage at k=4 vs k=1: "
            << Table::num(ratios.back() / base_ratio, 2)
            << "x (paper predicts ~k^2 = 16)\n";
  return 0;
}
