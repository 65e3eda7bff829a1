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
#include <memory>

#include "bench_util.hpp"
#include "core/flooding.hpp"
#include "core/trial.hpp"
#include "meg/edge_meg.hpp"
#include "mobility/random_trip.hpp"
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

template <typename Factory>
void run_model(const std::string& name, std::size_t n, Factory&& factory,
               std::uint64_t warmup) {
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
    auto model = factory(seeds[trial]);
    for (std::uint64_t w = 0; w < warmup; ++w) model->step();
    const FloodResult r = flood(*model, 0, 4'000'000);
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

  const std::size_t n = 256;
  const double p = 1.5 / static_cast<double>(n);  // sparse: n*alpha ~ 1.5/(1+q/p)...
  run_model(
      "sparse two-state edge-MEG", n,
      [&](std::uint64_t seed) {
        return std::make_unique<TwoStateEdgeMEG>(
            n, TwoStateParams{p / 4.0, 0.4}, seed);
      },
      0);

  WaypointParams wp;
  wp.side_length = 10.0;
  wp.v_min = 0.5;
  wp.v_max = 1.0;
  wp.radius = 1.0;
  wp.resolution = 40;
  const std::size_t wn = 96;
  const auto warm = make_random_waypoint(wn, wp, 0);
  run_model(
      "random waypoint (sparse)", wn,
      [&](std::uint64_t seed) {
        return make_random_waypoint(wn, wp, seed);
      },
      warm->suggested_warmup());
  return 0;
}
