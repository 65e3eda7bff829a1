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
// All three run through the generic measure() harness: flooding and the
// direct protocol (--process=kpush:<k>) as registry scenarios, the
// reduction as plain flooding on an overlay-wrapped registry factory.
// One root seed, derive_seeds per trial, no hand-rolled loops.

#include <algorithm>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "protocols/k_push.hpp"
#include "util/table.hpp"

namespace megflood {
namespace {

// `model_args` select the registry model (and its warmup); every row
// runs it with the same trials, seed and fixed source.
void run_model(const std::string& name,
               std::vector<std::string> model_args) {
  model_args.insert(model_args.end(), {"--trials=12", "--seed=7",
                                       "--max_rounds=2000000",
                                       "--rotate_sources=0"});
  const auto run = [&model_args](const std::string& process) {
    std::vector<std::string> args = model_args;
    args.push_back("--process=" + process);
    return bench::run(args);
  };
  // The overlay is no registry model: it wraps the registry's factory and
  // measures with the same trial configuration.
  const ScenarioSpec spec = parse_scenario_args(model_args);
  const ScenarioModel model = make_model_factory(spec);
  TrialConfig cfg = spec.trial;
  cfg.threads = 0;
  if (spec.warmup_auto) cfg.warmup_steps = *model.suggested_warmup;
  std::cout << "\n-- model: " << name << " (n = " << model.num_nodes
            << ") --\n";

  const Measurement flooding_baseline = run("flooding");
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
    const Measurement push = run("kpush:" + std::to_string(k));
    bench::warn_incomplete(push, "k-push k=" + std::to_string(k));
    // The reduction: flooding on the virtual graph that keeps at most k
    // selected incident edges per node.  The overlay owns its inner model
    // and derives its selection seed from the trial seed, so the whole
    // trial is still a pure function of one derive_seeds entry.
    const GraphFactory overlay_factory =
        [&model, k](std::uint64_t seed) -> std::unique_ptr<DynamicGraph> {
      return std::make_unique<RandomSubsetOverlay>(
          model.factory(seed), k, seed ^ 0x517cc1b727220a95ULL);
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

  run_model("sparse two-state edge-MEG",
            {"--model=edge_meg", "--n=128",
             "--p=" + bench::num_arg(1.0 / 256.0), "--q=0.3"});
  run_model("random waypoint",
            {"--model=random_waypoint", "--n=64", "--side=8", "--v_min=0.5",
             "--v_max=1", "--radius=1", "--resolution=32", "--warmup=auto"});
  return 0;
}
