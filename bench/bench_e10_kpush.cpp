// Experiment E10 — the randomized protocol of Section 5 (Conclusions).
//
// Paper remark: a protocol where each informed node transmits to a random
// subset of its neighbors reduces to flooding on a "virtual" dynamic
// graph with a subset of edges removed.  We compare, on the same models:
//   (i)  plain flooding,
//   (ii) the direct k-push protocol,
//   (iii) flooding on the RandomSubsetOverlay (the paper's reduction),
// sweeping the fan-out k.  Expectations: (ii) and (iii) behave alike,
// converge to (i) as k grows, and stay within the flooding-bound regime
// (a constant-factor slowdown for constant k on sparse models).
//
// All three run through the generic measure() harness: the direct
// protocol is KPushProcess, the reduction is plain FloodingProcess on an
// overlay-wrapped graph factory.  One root seed, derive_seeds per trial,
// no hand-rolled loops.

#include <algorithm>
#include <iostream>
#include <memory>

#include "bench_util.hpp"
#include "core/process.hpp"
#include "core/scenario.hpp"
#include "core/trial.hpp"
#include "meg/edge_meg.hpp"
#include "mobility/random_trip.hpp"
#include "protocols/k_push.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace megflood {
namespace {

void run_model(const std::string& name, std::size_t n,
               const GraphFactory& factory, std::uint64_t warmup) {
  std::cout << "\n-- model: " << name << " (n = " << n << ") --\n";
  TrialConfig cfg;
  cfg.trials = 12;
  cfg.seed = 7;
  cfg.max_rounds = 2'000'000;
  cfg.rotate_sources = false;
  cfg.warmup_steps = warmup;
  cfg.threads = 0;

  const Measurement flooding_baseline =
      measure(factory, make_process_factory("flooding"), cfg);
  bench::warn_incomplete(flooding_baseline, "flooding on " + name);
  const double baseline_median = std::max(1.0, flooding_baseline.rounds.median);

  Table table({"protocol", "k", "rounds p50", "rounds p90",
               "slowdown vs flooding"});
  table.add_row({"flooding", "-",
                 bench::fmt_rounds(flooding_baseline,
                                   flooding_baseline.rounds.median),
                 bench::fmt_rounds(flooding_baseline,
                                   flooding_baseline.rounds.p90),
                 "1.00"});

  for (std::size_t k : {1, 2, 4, 8}) {
    const Measurement push = measure(
        factory, [k] { return std::make_unique<KPushProcess>(k); }, cfg);
    bench::warn_incomplete(push, "k-push k=" + std::to_string(k));
    // The reduction: flooding on the virtual graph that keeps at most k
    // selected incident edges per node.  The overlay owns its inner model
    // and derives its selection seed from the trial seed, so the whole
    // trial is still a pure function of one derive_seeds entry.
    const GraphFactory overlay_factory =
        [&factory, k](std::uint64_t seed) -> std::unique_ptr<DynamicGraph> {
      return std::make_unique<RandomSubsetOverlay>(factory(seed), k,
                                                   seed ^ 0x517cc1b727220a95ULL);
    };
    const Measurement over =
        measure(overlay_factory, make_process_factory("flooding"), cfg);
    bench::warn_incomplete(over, "overlay-flood k=" + std::to_string(k));
    table.add_row({"k-push", Table::integer(static_cast<long long>(k)),
                   bench::fmt_rounds(push, push.rounds.median),
                   bench::fmt_rounds(push, push.rounds.p90),
                   push.all_incomplete()
                       ? "-"
                       : Table::num(push.rounds.median / baseline_median, 2)});
    table.add_row({"overlay-flood", Table::integer(static_cast<long long>(k)),
                   bench::fmt_rounds(over, over.rounds.median),
                   bench::fmt_rounds(over, over.rounds.p90),
                   over.all_incomplete()
                       ? "-"
                       : Table::num(over.rounds.median / baseline_median, 2)});
  }
  table.print(std::cout);
  std::cout << "Expected shape: k-push and overlay-flood track each other\n"
               "and approach plain flooding as k grows; on sparse models\n"
               "even k = 1 is within a small constant factor (snapshot\n"
               "degrees are mostly <= 1 there).\n";
}

}  // namespace
}  // namespace megflood

int main() {
  using namespace megflood;
  bench::print_header(
      "E10 / Randomized subset-push protocol (Section 5)",
      "Claim: the random-subset transmission protocol reduces to flooding\n"
      "on a virtual dynamic graph with some edges removed.");

  const std::size_t n = 128;
  run_model(
      "sparse two-state edge-MEG", n,
      [&](std::uint64_t seed) -> std::unique_ptr<DynamicGraph> {
        return std::make_unique<TwoStateEdgeMEG>(
            n, TwoStateParams{1.0 / static_cast<double>(n * 2), 0.3}, seed);
      },
      0);

  WaypointParams wp;
  wp.side_length = 8.0;
  wp.v_min = 0.5;
  wp.v_max = 1.0;
  wp.radius = 1.0;
  wp.resolution = 32;
  const std::size_t wn = 64;
  const auto warm = make_random_waypoint(wn, wp, 0);
  run_model(
      "random waypoint", wn,
      [&](std::uint64_t seed) -> std::unique_ptr<DynamicGraph> {
        return make_random_waypoint(wn, wp, seed);
      },
      warm->suggested_warmup());
  return 0;
}
