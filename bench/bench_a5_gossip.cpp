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
// Every protocol runs as a registry scenario (one root seed, derive_seeds
// per trial, thread pool, incomplete accounting): a row differs from the
// next only in its --process= spec.

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "util/table.hpp"

namespace megflood {
namespace {

// `model_args` select the model (and its warmup); every protocol row runs
// it with the same trials, seed and fixed source.
void run_model(const std::string& name,
               const std::vector<std::string>& model_args) {
  std::cout << "\n-- model: " << name << " --\n";
  struct Row {
    std::string label;
    std::string process;
    std::string contacts_metric;  // "" = not applicable
  };
  const std::vector<Row> rows = {
      {"flooding", "flooding", ""},
      {"push", "gossip:push", "contacts"},
      {"pull", "gossip:pull", "contacts"},
      {"push-pull", "gossip:pushpull", "contacts"},
      // Radio broadcast with collisions (reference [9]'s model), tau = 1
      // and ALOHA tau = 0.5.
      {"radio (tau=1.0)", "radio:1", "transmissions"},
      {"radio (tau=0.5)", "radio:0.5", "transmissions"},
  };

  Table table({"protocol", "rounds p50", "rounds p90", "contacts p50"});
  double flooding_median = 1.0;
  for (const Row& row : rows) {
    std::vector<std::string> args = model_args;
    args.insert(args.end(),
                {"--process=" + row.process, "--trials=14", "--seed=3",
                 "--max_rounds=4000000", "--rotate_sources=0"});
    const Measurement m = bench::run(args);
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

  run_model("sparse two-state edge-MEG (n = 128)",
            {"--model=edge_meg", "--n=128",
             "--p=" + bench::num_arg(1.0 / 256.0), "--q=0.3"});
  run_model("random waypoint (n = 96, sparse)",
            {"--model=random_waypoint", "--n=96", "--side=10", "--v_min=0.5",
             "--v_max=1", "--radius=1", "--resolution=40", "--warmup=auto"});
  return 0;
}
