#pragma once

// The scenario layer: named, parameterized experiment specifications that
// a driver (tools/megflood_run.cpp) can list, validate and execute
// without recompiling a bespoke main.  A scenario is a registered model
// name plus key=value parameters, a spreading-process spec, and a
// TrialConfig; running it yields the generic Measurement of core/trial.
//
// Model registry.  Every model the repo implements is registered with its
// full parameter schema (name, default, one-line doc); unknown model
// names and unknown parameter keys are hard errors, so a typo can never
// silently fall back to a default.  Registered models:
//   edge_meg          two-state edge-Markovian evolving graph
//   general_edge_meg  hidden-chain edge-MEG (bursty / duty-cycle /
//                     four-state links)
//   het_edge_meg      heterogeneous per-edge (p, q) edge-MEG
//   node_meg          explicit node-MEG (lazy cycle walk + connection map)
//   clique_flicker    beta-independence ablation model
//   random_walk       graph mobility: random walk on a grid
//   random_waypoint   geometric mobility over the square
//   random_trip       Le Boudec-Vojnovic random trip class
//   grid_paths        L-shaped shortest paths on a grid (random paths)
//   fixed             fixed-topology baseline (E_t = E for all t)
//   k_augmented_grid  static k-augmented grid/torus (Corollary 6)
//
// Process spec grammar (one token, optional ':'-argument):
//   flooding | gossip[:push|pull|pushpull] | kpush[:<k>] |
//   radio[:<tau>] | ttl[:<ttl>]

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/trial.hpp"

namespace megflood {

struct ScenarioSpec {
  std::string model;
  std::map<std::string, std::string> params;  // model key=value overrides
  std::string process = "flooding";
  TrialConfig trial;
  // --warmup=auto: resolve trial.warmup_steps from the model's suggested
  // warmup at run time.  Models that declare none (everything except the
  // geometric mobility models) make run_scenario fail hard — a silent
  // zero warmup would quietly measure the non-stationary start.
  bool warmup_auto = false;
};

// One declared model parameter: name, default (as the string the CLI
// would pass), one-line description.
struct ScenarioParam {
  std::string name;
  std::string default_value;
  std::string description;
};

struct ScenarioModelInfo {
  std::string name;
  std::string summary;
  std::vector<ScenarioParam> params;
};

// All registered models, in registration order (stable for --list).
const std::vector<ScenarioModelInfo>& scenario_models();

// A built model: the per-trial graph factory plus the node count the
// parameters resolved to (every registered model has an `n`), plus the
// model's suggested warmup (Theta(L / v_max) for the geometric mobility
// models; empty for models whose stationary start needs none — see
// --warmup=auto).
struct ScenarioModel {
  ScenarioModel() = default;
  ScenarioModel(GraphFactory f, std::size_t n,
                std::optional<std::uint64_t> warmup = std::nullopt)
      : factory(std::move(f)), num_nodes(n), suggested_warmup(warmup) {}

  GraphFactory factory;
  std::size_t num_nodes = 0;
  std::optional<std::uint64_t> suggested_warmup;
  // Operator-facing advisories from parameter resolution (e.g. what a
  // storage=auto request resolved to, or an explicit dense engine whose
  // footprint crosses the auto threshold).  Warnings never change results
  // — they surface the decisions graceful degradation made.  No commas in
  // the text: warnings travel inside one CSV cell.
  std::vector<std::string> warnings;
};

// Builds the trial graph factory for spec.model / spec.params.  Throws
// std::invalid_argument on an unknown model, an unknown parameter key, or
// a malformed/out-of-range value.
ScenarioModel make_model_factory(const ScenarioSpec& spec);

// Parses a process spec string (grammar above) into a factory of fresh
// process instances.  Throws std::invalid_argument on unknown process
// names or bad arguments.
ProcessFactory make_process_factory(const std::string& process_spec);

struct ScenarioResult {
  Measurement measurement;
  std::size_t num_nodes = 0;
  // Model-building advisories (ScenarioModel::warnings), passed through
  // for the driver's warning channel.
  std::vector<std::string> warnings;
};

// Validates and runs the scenario end to end: build model factory, build
// process factory, measure().  `hooks` threads checkpointing,
// cancellation and fault-injection callbacks into measure() (see
// MeasureHooks); the default is an uninstrumented run.
ScenarioResult run_scenario(const ScenarioSpec& spec,
                            const MeasureHooks& hooks = {});

// ---------------------------------------------------------------------------
// CLI round-trip
// ---------------------------------------------------------------------------

// Serializes a spec to driver arguments:
//   --model=<name> [--<key>=<value> ...] --process=<spec> --trials=..
//   --seed=.. --max_rounds=.. --warmup=.. --threads=.. --rotate_sources=0|1
// Model params are emitted in sorted key order, so the output is
// deterministic and parse_scenario_args(scenario_to_args(s)) == s for
// every *canonical* spec.  --warmup accepts a step count or the literal
// `auto` (spec.warmup_auto); since the flag carries one value, a spec
// with warmup_auto set serializes as `auto` and parses back with
// warmup_steps = 0 — warmup_auto = true canonicalizes warmup_steps to 0
// (run_scenario ignores the field in auto mode either way).
std::vector<std::string> scenario_to_args(const ScenarioSpec& spec);
std::string scenario_to_cli(const ScenarioSpec& spec);  // args joined by ' '

// Parses driver arguments back into a spec.  Recognized driver flags are
// listed above; any other --key=value is treated as a model parameter
// (validated against the registry by make_model_factory).  Throws
// std::invalid_argument on malformed arguments.
ScenarioSpec parse_scenario_args(const std::vector<std::string>& args);
ScenarioSpec parse_scenario_cli(const std::string& cli);  // split on spaces

}  // namespace megflood
