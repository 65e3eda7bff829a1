// Experiment E12 — methodology check: F(G) = max_s F(G, s).
//
// The paper's flooding time maximizes over the source.  The sweep
// experiments estimate it with rotating sources across trials; this bench
// validates that estimator by computing the *exact* per-realization
// maximum over all n sources (flood_all_sources) and comparing the
// max/median/min source spread on both symmetric (edge-MEG) and
// geometry-bound (random waypoint) models.  Node-exchangeable models
// should show a narrow spread (any source is as good as any other, which
// is why rotating sources suffices); the waypoint's spread reflects the
// source's distance to the dense center.

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/flooding.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace megflood {
namespace {

void run_model(const std::string& name, const ScenarioModel& model) {
  constexpr std::size_t kRealizations = 8;
  // flood_all_sources() measures F(G) = max_s F(G, s) on one shared
  // realization — per-source results, not a Measurement — so it drives
  // the engine directly; realization seeds come from derive_seeds like
  // every measure() trial.  threads = 0 uses every hardware thread over
  // the word-column blocks; the result is bit-identical to a serial run.
  const auto seeds = derive_seeds(/*master=*/11, kRealizations);
  std::vector<double> maxima, medians, minima, spreads;
  for (std::uint64_t trial = 0; trial < kRealizations; ++trial) {
    const auto graph = bench::warmed_graph(model, seeds[trial]);
    const AllSourcesResult all =
        flood_all_sources(*graph, 1'000'000, /*threads=*/0);
    if (!all.all_completed) {
      std::cout << "WARNING: some sources incomplete in realization "
                << trial << "\n";
      continue;
    }
    std::vector<double> per_source;
    per_source.reserve(all.per_source.size());
    for (const auto& r : all.per_source) {
      per_source.push_back(static_cast<double>(r.rounds));
    }
    const Summary s = summarize(std::move(per_source));
    maxima.push_back(static_cast<double>(all.max_rounds));
    medians.push_back(s.median);
    minima.push_back(static_cast<double>(all.min_rounds));
    spreads.push_back(static_cast<double>(all.max_rounds) /
                      std::max(1.0, static_cast<double>(all.min_rounds)));
  }
  const Summary mx = summarize(maxima);
  const Summary md = summarize(medians);
  const Summary mn = summarize(minima);
  const Summary sp = summarize(spreads);
  Table table({"per-realization stat", "mean over realizations"});
  table.add_row({"F(G) = max_s F(G,s)", Table::num(mx.mean, 1)});
  table.add_row({"median_s F(G,s)", Table::num(md.mean, 1)});
  table.add_row({"min_s F(G,s)", Table::num(mn.mean, 1)});
  table.add_row({"max/min source spread", Table::num(sp.mean, 2)});
  std::cout << "\n-- " << name << " --\n";
  table.print(std::cout);
}

}  // namespace
}  // namespace megflood

int main() {
  using namespace megflood;
  bench::print_header(
      "E12 / Source maximization methodology (F(G) = max_s F(G, s))",
      "Exact all-sources flooding per realization, quantifying how much\n"
      "the source choice matters for each model family.");

  run_model("two-state edge-MEG (node-exchangeable)",
            bench::model({"--model=edge_meg", "--n=96",
                          "--p=" + bench::num_arg(1.0 / 192.0), "--q=0.3"}));
  // The waypoint runs from its suggested warmup (4 L / v_max).
  run_model("random waypoint",
            bench::model({"--model=random_waypoint", "--n=96", "--side=10",
                          "--v_min=0.5", "--v_max=1", "--radius=1",
                          "--resolution=40"}));

  std::cout << "\nExpected shape: small max/min spreads (a few x) on both\n"
               "models — the rotating-source estimator used by E1-E11 is\n"
               "a faithful proxy for the max-over-sources definition.\n";
  return 0;
}
