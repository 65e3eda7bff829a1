// Experiment E9 — the proof machinery of Theorem 1 (Lemmas 11-14).
//
// Lemma 11/13 (spreading phase): while |I_t| < n/2 the informed set
// doubles every T = O((1/(n alpha) + beta)^2 log n) epochs, so the
// spreading phase takes O(log n) doubling intervals.
// Lemma 12/14 (saturation phase): from n/2 to n takes only
// O((1/(n alpha) + beta) log n) epochs — one (1/(n alpha) + beta) * log n
// factor cheaper than spreading.
//
// We instrument full |I_t| trajectories on a sparse edge-MEG and on the
// random waypoint and report: rounds to reach each doubling milestone,
// the max doubling interval, and the spreading/saturation split.

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/flooding.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace megflood {
namespace {

// Rounds at which |I_t| first reaches 2, 4, 8, ..., n/2, n.
std::vector<std::uint64_t> milestones(const FloodResult& r, std::size_t n) {
  std::vector<std::uint64_t> times;
  std::size_t target = 2;
  for (std::size_t t = 0; t < r.informed_counts.size(); ++t) {
    while (r.informed_counts[t] >= target && target <= n) {
      times.push_back(t);
      target *= 2;
    }
  }
  return times;
}

void run_model(const std::string& name, const ScenarioModel& model) {
  const std::size_t n = model.num_nodes;
  std::cout << "\n-- model: " << name << " (n = " << n << ") --\n";
  constexpr std::size_t kTrials = 12;
  // This harness needs the full |I_t| trajectory of every trial (the
  // doubling milestones), which Measurement does not carry, so it drives
  // flood() directly — but trial seeds come from the same derive_seeds
  // expansion the measure() harness uses.
  const auto seeds = derive_seeds(/*master=*/13, kTrials);
  std::vector<double> spreading, saturation, max_doubling;
  std::vector<std::vector<double>> milestone_samples;
  for (std::uint64_t trial = 0; trial < kTrials; ++trial) {
    const auto graph = bench::warmed_graph(model, seeds[trial]);
    const FloodResult r = flood(*graph, 0, 4'000'000);
    if (!r.completed) {
      std::cout << "WARNING: incomplete trial " << trial << "\n";
      continue;
    }
    const PhaseSplit split = split_phases(r, n);
    spreading.push_back(static_cast<double>(split.spreading_rounds));
    saturation.push_back(static_cast<double>(split.saturation_rounds));
    const auto times = milestones(r, n);
    if (milestone_samples.size() < times.size()) {
      milestone_samples.resize(times.size());
    }
    double worst_gap = 0.0;
    for (std::size_t i = 0; i < times.size(); ++i) {
      milestone_samples[i].push_back(static_cast<double>(times[i]));
      const double gap = static_cast<double>(
          times[i] - (i == 0 ? 0 : times[i - 1]));
      // Only count doubling gaps inside the spreading phase.
      if ((2ULL << i) <= n) worst_gap = std::max(worst_gap, gap);
    }
    max_doubling.push_back(worst_gap);
  }

  Table table({"milestone |I_t| >=", "rounds mean", "rounds p90"});
  std::size_t target = 2;
  for (const auto& samples : milestone_samples) {
    const Summary s = summarize(samples);
    table.add_row({Table::integer(static_cast<long long>(std::min(target, n))),
                   Table::num(s.mean, 1), Table::num(s.p90, 1)});
    target *= 2;
  }
  table.print(std::cout);

  const Summary sp = summarize(spreading);
  const Summary sa = summarize(saturation);
  const Summary dbl = summarize(max_doubling);
  std::cout << "spreading rounds (to n/2): mean " << Table::num(sp.mean, 1)
            << ", p90 " << Table::num(sp.p90, 1) << "\n";
  std::cout << "saturation rounds (n/2 to n): mean " << Table::num(sa.mean, 1)
            << ", p90 " << Table::num(sa.p90, 1) << "\n";
  std::cout << "max doubling interval: mean " << Table::num(dbl.mean, 1)
            << " (Lemma 11: bounded by T per doubling)\n";
  std::cout << "saturation/spreading ratio: "
            << Table::num(sa.mean / std::max(1.0, sp.mean), 2)
            << " (Lemma 14: saturation is the cheaper phase, up to the "
               "log-factor gap)\n";
}

}  // namespace
}  // namespace megflood

int main() {
  using namespace megflood;
  bench::print_header(
      "E9 / Phase structure of flooding (Lemmas 11-14)",
      "Claims: the informed set doubles every O((1/(n a)+b)^2 log n)\n"
      "epochs until n/2 (spreading), then saturates in the cheaper\n"
      "O((1/(n a)+b) log n) epochs.");

  // Sparse: p = 1.5 / (4 n) against q = 0.4, so n * alpha ~ 0.9.
  run_model("sparse two-state edge-MEG",
            bench::model({"--model=edge_meg", "--n=256",
                          "--p=" + bench::num_arg(1.5 / 256.0 / 4.0),
                          "--q=0.4"}));
  // The waypoint runs from its suggested warmup (4 L / v_max).
  run_model("random waypoint (sparse)",
            bench::model({"--model=random_waypoint", "--n=96", "--side=10",
                          "--v_min=0.5", "--v_max=1", "--radius=1",
                          "--resolution=40"}));
  return 0;
}
