// Ablation A5 — refined communication protocols on dynamic graphs
// (Section 5's closing remark, beyond the k-push reduction of E10).
//
// Compares flooding against push, pull and push-pull gossip (one contact
// per node per round) on a sparse edge-MEG and on the random waypoint.
// On sparse dynamic graphs snapshot degrees are mostly <= 1, so a single
// contact already exhausts the neighborhood: all protocols should land
// within a small factor of flooding — the "virtual dynamic graph"
// reduction costs little exactly where the paper's bound is interesting.
//
// Every protocol runs through the generic measure() harness (one root
// seed, derive_seeds per trial, thread pool, incomplete accounting) —
// there are no per-protocol trial loops or ad-hoc seed arithmetic here.

#include <algorithm>
#include <iostream>
#include <memory>

#include "bench_util.hpp"
#include "core/process.hpp"
#include "core/trial.hpp"
#include "meg/edge_meg.hpp"
#include "mobility/random_trip.hpp"
#include "protocols/gossip.hpp"
#include "protocols/radio_broadcast.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace megflood {
namespace {

void run_model(const std::string& name, const GraphFactory& factory,
               std::uint64_t warmup) {
  std::cout << "\n-- model: " << name << " --\n";
  TrialConfig cfg;
  cfg.trials = 14;
  cfg.seed = 3;
  cfg.max_rounds = 4'000'000;
  cfg.rotate_sources = false;
  cfg.warmup_steps = warmup;
  cfg.threads = 0;  // one worker per hardware thread; merge is bit-identical

  struct Row {
    std::string label;
    ProcessFactory process;
    std::string contacts_metric;  // "" = not applicable
  };
  const std::vector<Row> rows = {
      {"flooding", [] { return std::make_unique<FloodingProcess>(); }, ""},
      {"push",
       [] { return std::make_unique<GossipProcess>(GossipMode::kPush); },
       "contacts"},
      {"pull",
       [] { return std::make_unique<GossipProcess>(GossipMode::kPull); },
       "contacts"},
      {"push-pull",
       [] { return std::make_unique<GossipProcess>(GossipMode::kPushPull); },
       "contacts"},
      // Radio broadcast with collisions (reference [9]'s model), tau = 1
      // and ALOHA tau = 0.5.
      {"radio (tau=1.0)",
       [] { return std::make_unique<RadioBroadcastProcess>(1.0); },
       "transmissions"},
      {"radio (tau=0.5)",
       [] { return std::make_unique<RadioBroadcastProcess>(0.5); },
       "transmissions"},
  };

  Table table({"protocol", "rounds p50", "rounds p90", "contacts p50"});
  double flooding_median = 1.0;
  for (const Row& row : rows) {
    const Measurement m = measure(factory, row.process, cfg);
    if (row.contacts_metric.empty()) {
      flooding_median = std::max(1.0, m.rounds.median);
    }
    std::string contacts = "-";
    if (!row.contacts_metric.empty() && !m.all_incomplete()) {
      contacts = Table::num(m.metrics.at(row.contacts_metric).median, 0);
    }
    table.add_row({row.label, bench::fmt_rounds(m, m.rounds.median),
                   bench::fmt_rounds(m, m.rounds.p90), contacts});
    bench::warn_incomplete(m, row.label + " on " + name);
  }
  table.print(std::cout);
  std::cout << "flooding median for reference: "
            << Table::num(flooding_median, 1) << "\n";
}

}  // namespace
}  // namespace megflood

int main() {
  using namespace megflood;
  bench::print_header(
      "A5 / Gossip protocols vs flooding on dynamic graphs",
      "One random contact per node per round (push / pull / push-pull)\n"
      "versus full flooding, on sparse dynamic networks.");

  const std::size_t n = 128;
  run_model(
      "sparse two-state edge-MEG (n = 128)",
      [&](std::uint64_t seed) -> std::unique_ptr<DynamicGraph> {
        return std::make_unique<TwoStateEdgeMEG>(
            n, TwoStateParams{1.0 / static_cast<double>(n * 2), 0.3}, seed);
      },
      0);

  WaypointParams wp;
  wp.side_length = 10.0;
  wp.v_min = 0.5;
  wp.v_max = 1.0;
  wp.radius = 1.0;
  wp.resolution = 40;
  const auto warm = make_random_waypoint(96, wp, 0);
  run_model(
      "random waypoint (n = 96, sparse)",
      [&](std::uint64_t seed) -> std::unique_ptr<DynamicGraph> {
        return make_random_waypoint(96, wp, seed);
      },
      warm->suggested_warmup());
  return 0;
}
