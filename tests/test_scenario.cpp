// Tests for the scenario layer: registry round-trips for every
// registered model, hard rejection of unknown models / parameters /
// process specs, and the ScenarioSpec -> CLI string -> ScenarioSpec
// parse round-trip.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "graph/builders.hpp"
#include "markov/chain.hpp"
#include "meg/clique_flicker.hpp"
#include "meg/edge_meg.hpp"
#include "meg/general_edge_meg.hpp"
#include "meg/node_meg.hpp"
#include "mobility/random_paths.hpp"
#include "mobility/random_trip.hpp"
#include "mobility/random_walk.hpp"

namespace megflood {
namespace {

TEST(ScenarioRegistry, ListsTheExpectedFamilies) {
  const auto& models = scenario_models();
  ASSERT_GE(models.size(), 11u);
  std::set<std::string> names;
  for (const ScenarioModelInfo& info : models) names.insert(info.name);
  EXPECT_EQ(names.size(), models.size()) << "duplicate model name";
  for (const char* name :
       {"edge_meg", "general_edge_meg", "het_edge_meg", "node_meg",
        "clique_flicker", "random_walk", "random_waypoint", "random_trip",
        "grid_paths", "fixed", "k_augmented_grid"}) {
    EXPECT_EQ(names.count(name), 1u) << name;
  }
}

TEST(ScenarioRegistry, EveryRegisteredModelBuildsAndRuns) {
  // Registry round-trip: for every registered name, default params
  // (shrunk to a tiny n) must build a factory whose graphs run an end-to-
  // end flooding measurement.  Completion is not required (some defaults
  // are sparse); accounting must be consistent either way.
  for (const ScenarioModelInfo& info : scenario_models()) {
    ScenarioSpec spec;
    spec.model = info.name;
    spec.params["n"] = "16";
    spec.trial.trials = 2;
    spec.trial.seed = 3;
    spec.trial.max_rounds = 5'000;
    spec.trial.threads = 1;
    const ScenarioResult result = run_scenario(spec);
    EXPECT_EQ(result.num_nodes, 16u) << info.name;
    EXPECT_EQ(result.measurement.rounds.count + result.measurement.incomplete,
              spec.trial.trials)
        << info.name;
  }
}

TEST(ScenarioRegistry, ScenarioIsBitIdenticalAcrossThreadCounts) {
  ScenarioSpec spec;
  spec.model = "edge_meg";
  spec.params["n"] = "48";
  spec.params["alpha"] = "0.05";
  spec.process = "gossip:pushpull";
  spec.trial.trials = 8;
  spec.trial.seed = 11;
  spec.trial.threads = 1;
  const ScenarioResult sequential = run_scenario(spec);
  spec.trial.threads = 0;
  const ScenarioResult threaded = run_scenario(spec);
  EXPECT_EQ(sequential.measurement.incomplete,
            threaded.measurement.incomplete);
  EXPECT_DOUBLE_EQ(sequential.measurement.rounds.mean,
                   threaded.measurement.rounds.mean);
  EXPECT_DOUBLE_EQ(sequential.measurement.rounds.max,
                   threaded.measurement.rounds.max);
  EXPECT_DOUBLE_EQ(sequential.measurement.metrics.at("contacts").mean,
                   threaded.measurement.metrics.at("contacts").mean);
}

TEST(ScenarioRegistry, FixedTopologiesBuildAndValidate) {
  ScenarioSpec spec;
  spec.model = "fixed";
  spec.params["topology"] = "torus";
  spec.params["n"] = "25";
  EXPECT_NO_THROW((void)make_model_factory(spec));
  // grid/torus demand a perfect-square n.
  spec.params["n"] = "24";
  EXPECT_THROW((void)make_model_factory(spec), std::invalid_argument);
  spec.params["topology"] = "moebius";
  spec.params["n"] = "25";
  EXPECT_THROW((void)make_model_factory(spec), std::invalid_argument);
  // path/cycle/complete/star take any n >= 1.
  spec.params.clear();
  spec.params["topology"] = "star";
  spec.params["n"] = "17";
  const ScenarioModel star = make_model_factory(spec);
  EXPECT_EQ(star.num_nodes, 17u);
  // A fixed topology is seed-invariant: flooding a 17-star from the hub
  // completes in 1 round on every trial.
  const auto graph = star.factory(123);
  EXPECT_EQ(graph->num_nodes(), 17u);
  EXPECT_EQ(graph->snapshot().num_edges(), 16u);
}

TEST(ScenarioRegistry, KAugmentedGridValidates) {
  ScenarioSpec spec;
  spec.model = "k_augmented_grid";
  spec.params["n"] = "49";
  spec.params["k"] = "2";
  const ScenarioModel model = make_model_factory(spec);
  EXPECT_EQ(model.num_nodes, 49u);
  spec.params["k"] = "0";
  EXPECT_THROW((void)make_model_factory(spec), std::invalid_argument);
  spec.params["k"] = "3";
  spec.params["torus"] = "1";  // needs side > 2k + 1 = 7, side is 7
  EXPECT_THROW((void)make_model_factory(spec), std::invalid_argument);
  spec.params["n"] = "81";  // side 9 > 7: fine
  EXPECT_NO_THROW((void)make_model_factory(spec));
  spec.params["torus"] = "2";
  EXPECT_THROW((void)make_model_factory(spec), std::invalid_argument);
}

TEST(ScenarioWarmup, AutoResolvesForMobilityModels) {
  ScenarioSpec spec;
  spec.model = "random_waypoint";
  spec.params["n"] = "16";
  spec.warmup_auto = true;
  spec.trial.trials = 2;
  spec.trial.seed = 3;
  spec.trial.max_rounds = 5'000;
  const ScenarioResult result = run_scenario(spec);
  EXPECT_EQ(result.measurement.rounds.count + result.measurement.incomplete,
            2u);
  // The model builder exposes the suggested warmup it resolved to:
  // Theta(side / v_max) with the documented c = 4.
  const ScenarioModel model = make_model_factory(spec);
  ASSERT_TRUE(model.suggested_warmup.has_value());
  EXPECT_EQ(*model.suggested_warmup, 32u);  // ceil(4 * 8.0 / 1.0)
  spec.model = "random_trip";
  const ScenarioModel trip = make_model_factory(spec);
  ASSERT_TRUE(trip.suggested_warmup.has_value());
  EXPECT_GT(*trip.suggested_warmup, 0u);
}

TEST(ScenarioWarmup, AutoIsAHardErrorForModelsWithoutOne) {
  ScenarioSpec spec;
  spec.model = "edge_meg";
  spec.params["n"] = "16";
  spec.warmup_auto = true;
  spec.trial.trials = 1;
  EXPECT_THROW((void)run_scenario(spec), std::invalid_argument);
}

TEST(ScenarioValidation, UnknownModelIsRejected) {
  ScenarioSpec spec;
  spec.model = "warp_drive";
  EXPECT_THROW((void)make_model_factory(spec), std::invalid_argument);
  spec.model = "";
  EXPECT_THROW((void)make_model_factory(spec), std::invalid_argument);
}

TEST(ScenarioValidation, UnknownParameterIsRejected) {
  ScenarioSpec spec;
  spec.model = "edge_meg";
  spec.params["typo_rate"] = "0.5";
  EXPECT_THROW((void)make_model_factory(spec), std::invalid_argument);
}

TEST(ScenarioValidation, MalformedValuesAreRejected) {
  ScenarioSpec spec;
  spec.model = "edge_meg";
  spec.params["n"] = "many";
  EXPECT_THROW((void)make_model_factory(spec), std::invalid_argument);
  spec.params.clear();
  spec.params["q"] = "0.3extra";
  EXPECT_THROW((void)make_model_factory(spec), std::invalid_argument);
  spec.params.clear();
  spec.params["init"] = "sideways";
  EXPECT_THROW((void)make_model_factory(spec), std::invalid_argument);
  // Non-finite values must fail fast: NaN slips through every range
  // check (all comparisons are false), so parse_double rejects it.
  spec.params.clear();
  spec.params["alpha"] = "nan";
  EXPECT_THROW((void)make_model_factory(spec), std::invalid_argument);
  spec.params.clear();
  spec.params["q"] = "inf";
  EXPECT_THROW((void)make_model_factory(spec), std::invalid_argument);
  EXPECT_THROW((void)make_process_factory("radio:nan"),
               std::invalid_argument);
  // An out-of-range explicit p is an error, not a silent fallback to the
  // alpha derivation (only the sentinel p=0 means "derive from alpha").
  spec.params.clear();
  spec.params["p"] = "-0.5";
  EXPECT_THROW((void)make_model_factory(spec), std::invalid_argument);
}

TEST(ScenarioValidation, VariantInapplicableOverridesAreRejected) {
  // An explicitly passed parameter the selected variant never reads is a
  // hard error — the user believes they varied something that the run
  // would silently ignore.
  ScenarioSpec spec;
  spec.model = "het_edge_meg";
  spec.params["sampler"] = "uniform_alpha";
  spec.params["p"] = "0.5";  // two_speed-only key
  EXPECT_THROW((void)make_model_factory(spec), std::invalid_argument);

  spec.params.clear();
  spec.model = "general_edge_meg";
  spec.params["link"] = "four_state";
  spec.params["drop"] = "0.9";  // bursty-only key
  EXPECT_THROW((void)make_model_factory(spec), std::invalid_argument);

  spec.params.clear();
  spec.model = "random_trip";
  spec.params["policy"] = "square";
  spec.params["leg_lo"] = "2.0";  // direction-only key
  EXPECT_THROW((void)make_model_factory(spec), std::invalid_argument);

  spec.params.clear();
  spec.model = "edge_meg";
  spec.params["p"] = "0.1";
  spec.params["alpha"] = "0.05";  // unused once p is explicit
  EXPECT_THROW((void)make_model_factory(spec), std::invalid_argument);

  // The same keys are fine when the matching variant is selected.
  spec.params.clear();
  spec.model = "het_edge_meg";
  spec.params["sampler"] = "two_speed";
  spec.params["p"] = "0.05";
  EXPECT_NO_THROW((void)make_model_factory(spec));
}

TEST(ScenarioValidation, StorageParameterSelectsAndRejects) {
  // storage=sparse|dense|auto on the edge-MEG family; bogus values and
  // sparse on a non-qualifying chain are build-time hard errors.
  ScenarioSpec spec;
  spec.model = "general_edge_meg";
  spec.params["n"] = "24";
  spec.params["storage"] = "sideways";
  EXPECT_THROW((void)make_model_factory(spec), std::invalid_argument);
  // The default bursty link has a quiescent off majority: sparse builds
  // and runs end to end even at tiny n.
  spec.params["storage"] = "sparse";
  spec.trial.trials = 2;
  spec.trial.seed = 3;
  spec.trial.max_rounds = 5'000;
  const ScenarioResult sparse_run = run_scenario(spec);
  EXPECT_EQ(sparse_run.num_nodes, 24u);
  // The duty-cycle link's stationary law is uniform: explicit sparse is
  // rejected at factory-build time, before any trial runs.
  spec.params["link"] = "duty_cycle";
  EXPECT_THROW((void)make_model_factory(spec), std::invalid_argument);
  spec.params["storage"] = "auto";  // auto falls back to dense instead
  EXPECT_NO_THROW((void)make_model_factory(spec));

  ScenarioSpec het;
  het.model = "het_edge_meg";
  het.params["n"] = "24";
  het.params["storage"] = "sparse";
  het.trial.trials = 2;
  het.trial.seed = 3;
  het.trial.max_rounds = 5'000;
  EXPECT_EQ(run_scenario(het).num_nodes, 24u);
  het.params["storage"] = "bogus";
  EXPECT_THROW((void)make_model_factory(het), std::invalid_argument);
}

TEST(ScenarioValidation, ProcessSpecsParseAndReject) {
  for (const char* good :
       {"flooding", "gossip", "gossip:push", "gossip:pull", "gossip:pushpull",
        "kpush", "kpush:3", "radio", "radio:0.5", "ttl", "ttl:4"}) {
    EXPECT_NO_THROW((void)make_process_factory(good)) << good;
  }
  for (const char* bad : {"warp", "gossip:sideways", "kpush:0", "kpush:x",
                          "radio:0", "radio:1.5", "ttl:0", "flooding:1"}) {
    EXPECT_THROW((void)make_process_factory(bad), std::invalid_argument)
        << bad;
  }
  // The factory produces instances whose name() is the canonical spec.
  EXPECT_EQ(make_process_factory("gossip")()->name(), "gossip:pushpull");
  EXPECT_EQ(make_process_factory("kpush:3")()->name(), "kpush:3");
  EXPECT_EQ(make_process_factory("flooding")()->name(), "flooding");
}

void expect_specs_equal(const ScenarioSpec& a, const ScenarioSpec& b) {
  EXPECT_EQ(a.model, b.model);
  EXPECT_EQ(a.params, b.params);
  EXPECT_EQ(a.process, b.process);
  EXPECT_EQ(a.trial.trials, b.trial.trials);
  EXPECT_EQ(a.trial.seed, b.trial.seed);
  EXPECT_EQ(a.trial.max_rounds, b.trial.max_rounds);
  EXPECT_EQ(a.trial.warmup_steps, b.trial.warmup_steps);
  EXPECT_EQ(a.warmup_auto, b.warmup_auto);
  EXPECT_EQ(a.trial.threads, b.trial.threads);
  EXPECT_EQ(a.trial.rotate_sources, b.trial.rotate_sources);
}

TEST(ScenarioCli, SpecToCliToSpecRoundTrips) {
  ScenarioSpec spec;
  spec.model = "edge_meg";
  spec.params["n"] = "4096";
  spec.params["alpha"] = "0.002";
  spec.process = "gossip:pushpull";
  spec.trial.trials = 64;
  spec.trial.seed = 42;
  spec.trial.max_rounds = 2'000'000;
  spec.trial.warmup_steps = 10;
  spec.trial.threads = 0;
  spec.trial.rotate_sources = false;
  const std::string cli = scenario_to_cli(spec);
  const ScenarioSpec parsed = parse_scenario_cli(cli);
  expect_specs_equal(spec, parsed);
  // And serialization is a fixed point: spec -> cli -> spec -> cli.
  EXPECT_EQ(cli, scenario_to_cli(parsed));
}

TEST(ScenarioCli, DefaultsRoundTripToo) {
  ScenarioSpec spec;
  spec.model = "random_waypoint";
  expect_specs_equal(spec, parse_scenario_cli(scenario_to_cli(spec)));
}

TEST(ScenarioCli, WarmupAutoRoundTrips) {
  ScenarioSpec spec;
  spec.model = "random_trip";
  spec.warmup_auto = true;
  const std::string cli = scenario_to_cli(spec);
  EXPECT_NE(cli.find("--warmup=auto"), std::string::npos);
  const ScenarioSpec parsed = parse_scenario_cli(cli);
  expect_specs_equal(spec, parsed);
  EXPECT_EQ(cli, scenario_to_cli(parsed));
  // A numeric warmup after an auto parses back to non-auto.
  const ScenarioSpec numeric =
      parse_scenario_cli("--model=random_trip --warmup=auto --warmup=12");
  EXPECT_FALSE(numeric.warmup_auto);
  EXPECT_EQ(numeric.trial.warmup_steps, 12u);
  // Anything else is still rejected.
  EXPECT_THROW((void)parse_scenario_cli("--model=edge_meg --warmup=soon"),
               std::invalid_argument);
}

TEST(ScenarioCli, ParseMatchesIssueExample) {
  const ScenarioSpec spec = parse_scenario_cli(
      "--model=edge_meg --n=4096 --alpha=0.002 --process=gossip:pushpull "
      "--trials=64 --threads=0");
  EXPECT_EQ(spec.model, "edge_meg");
  EXPECT_EQ(spec.params.at("n"), "4096");
  EXPECT_EQ(spec.params.at("alpha"), "0.002");
  EXPECT_EQ(spec.process, "gossip:pushpull");
  EXPECT_EQ(spec.trial.trials, 64u);
  EXPECT_EQ(spec.trial.threads, 0u);
}

TEST(ScenarioCli, MalformedArgumentsAreRejected) {
  EXPECT_THROW((void)parse_scenario_cli("model=edge_meg"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_scenario_cli("--trials"), std::invalid_argument);
  EXPECT_THROW((void)parse_scenario_cli("--trials=sixty"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_scenario_cli("--rotate_sources=maybe"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_scenario_cli("--=3"), std::invalid_argument);
}

// A grid finer than 65536 points a side would give two grid points the
// same 32-bit cell id; both grid mobility models reject it at validation.
TEST(ScenarioValidation, RejectsGridsPastTheCellIdRange) {
  for (const char* model : {"random_waypoint", "random_trip"}) {
    ScenarioSpec spec;
    spec.model = model;
    spec.params["n"] = "16";
    spec.params["resolution"] = "70000";
    EXPECT_THROW((void)make_model_factory(spec), std::invalid_argument)
        << model;
    spec.params["resolution"] = "65536";
    EXPECT_NO_THROW((void)make_model_factory(spec)) << model;
  }
}

std::string format_double(const char* format, double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, format, value);
  return buf;
}

void expect_same_summary(const Summary& a, const Summary& b,
                         const std::string& what) {
  EXPECT_EQ(a.count, b.count) << what;
  for (const auto field : {&Summary::mean, &Summary::stddev, &Summary::min,
                           &Summary::p25, &Summary::median, &Summary::p75,
                           &Summary::p90, &Summary::p99, &Summary::max}) {
    EXPECT_EQ(a.*field, b.*field) << what;
  }
}

// Runs `args` (a model, its parameters and perhaps --warmup=auto) through
// run_scenario with cfg's trials, seed and max_rounds, and measure() over
// the hand-built `factory` with cfg itself; the two must agree bit for bit.
void expect_registry_matches(std::vector<std::string> args,
                             const GraphFactory& factory,
                             const TrialConfig& cfg) {
  const std::string what = args.front();
  args.insert(args.end(), {"--trials=" + std::to_string(cfg.trials),
                           "--seed=" + std::to_string(cfg.seed),
                           "--max_rounds=" + std::to_string(cfg.max_rounds)});
  const Measurement registry =
      run_scenario(parse_scenario_args(args)).measurement;
  const Measurement direct =
      measure(factory, make_process_factory("flooding"), cfg);
  ASSERT_GT(direct.rounds.count, 0u) << what << ": nothing to compare";
  EXPECT_EQ(registry.incomplete, direct.incomplete) << what;
  expect_same_summary(registry.rounds, direct.rounds, what + " rounds");
  expect_same_summary(registry.spreading_rounds, direct.spreading_rounds,
                      what + " spreading");
  expect_same_summary(registry.saturation_rounds, direct.saturation_rounds,
                      what + " saturation");
  ASSERT_EQ(registry.metrics.size(), direct.metrics.size()) << what;
  for (const auto& [name, summary] : direct.metrics) {
    ASSERT_EQ(registry.metrics.count(name), 1u) << what << " " << name;
    expect_same_summary(registry.metrics.at(name), summary, what + " " + name);
  }
}

// The experiment harnesses measure through the registry instead of
// constructing their models by hand; each registry model they use must
// draw exactly what the direct constructor draws.
TEST(ScenarioRegistry, HarnessModelsMatchHandBuiltFactories) {
  TrialConfig cfg;
  cfg.trials = 6;
  cfg.seed = 17;
  cfg.max_rounds = 200'000;

  // A p that %.10g would round: only 17 digits carry it exactly.  A
  // draw rarely moves with the last bits of p, so the built chain's p is
  // compared too.
  const double alpha = 2.0 / 64.0;
  const double p = alpha * 0.25 / (1.0 - alpha);
  ASSERT_NE(std::stod(format_double("%.10g", p)), p);
  const std::vector<std::string> edge_args = {
      "--model=edge_meg", "--n=64", "--p=" + format_double("%.17g", p),
      "--q=0.25"};
  const auto edge = make_model_factory(parse_scenario_args(edge_args))
                        .factory(1);
  EXPECT_EQ(dynamic_cast<const TwoStateEdgeMEG&>(*edge).chain().birth_rate(),
            p);
  expect_registry_matches(
      edge_args,
      [p](std::uint64_t seed) {
        return std::make_unique<TwoStateEdgeMEG>(64, TwoStateParams{p, 0.25},
                                                 seed);
      },
      cfg);

  const DenseChain chain = lazy_random_walk_chain(cycle_graph(12));
  const ConnectionMap connection = cycle_proximity_connection(12, 1);
  expect_registry_matches(
      {"--model=node_meg", "--n=48", "--states=12", "--connection=cycle"},
      [&](std::uint64_t seed) {
        return std::make_unique<ExplicitNodeMEG>(48, chain, connection, seed);
      },
      cfg);

  expect_registry_matches(
      {"--model=grid_paths", "--n=72", "--side=6", "--connect_radius=1"},
      [](std::uint64_t seed) {
        return std::make_unique<GridLPathsModel>(6, 72, 1, seed);
      },
      cfg);

  const BurstyLink bursty = make_bursty_link(0.05, 0.3, 0.4);
  expect_registry_matches(
      {"--model=general_edge_meg", "--n=48", "--link=bursty", "--wake=0.05",
       "--ready=0.3", "--drop=0.4"},
      [&](std::uint64_t seed) {
        return std::make_unique<GeneralEdgeMEG>(48, bursty.chain, bursty.chi,
                                                seed);
      },
      cfg);
  const BurstyLink duty = make_duty_cycle_link(8, 2, 0.7);
  expect_registry_matches(
      {"--model=general_edge_meg", "--n=48", "--link=duty_cycle",
       "--period=8", "--on_states=2", "--advance=0.7"},
      [&](std::uint64_t seed) {
        return std::make_unique<GeneralEdgeMEG>(48, duty.chain, duty.chi,
                                                seed);
      },
      cfg);

  // --warmup=auto resolves to the warmup a built model suggests.
  WaypointParams wp;
  wp.side_length = std::sqrt(32.0);
  wp.v_min = 0.75;
  wp.v_max = 1.5;
  wp.radius = 1.0;
  wp.resolution = 32;
  TrialConfig warmed = cfg;
  warmed.warmup_steps = make_random_waypoint(32, wp, 0)->suggested_warmup();
  expect_registry_matches(
      {"--model=random_waypoint", "--n=32",
       "--side=" + format_double("%.17g", wp.side_length), "--v_min=0.75",
       "--v_max=1.5", "--radius=1", "--resolution=32", "--warmup=auto"},
      [&wp](std::uint64_t seed) { return make_random_waypoint(32, wp, seed); },
      warmed);

  const auto paused =
      std::make_shared<const SquareWaypointPolicy>(10.0, 0.5, 1.0, 4, 4);
  warmed.warmup_steps = RandomTripModel::suggested_warmup(*paused);
  expect_registry_matches(
      {"--model=random_trip", "--n=48", "--policy=square", "--side=10",
       "--v_min=0.5", "--v_max=1", "--pause_lo=4", "--pause_hi=4",
       "--radius=1", "--resolution=48", "--warmup=auto"},
      [&paused](std::uint64_t seed) {
        return std::make_unique<RandomTripModel>(48, paused, 1.0, 48, seed);
      },
      warmed);

  expect_registry_matches(
      {"--model=clique_flicker", "--n=48", "--clique=6", "--rho=0.5",
       "--resample=0.25"},
      [](std::uint64_t seed) {
        return std::make_unique<CliqueFlickerGraph>(48, 6, 0.5, seed, 0.25);
      },
      cfg);

  const auto grid = std::make_shared<const Graph>(grid_2d(8));
  RandomWalkParams walk;
  walk.mobile_fraction = 0.5;
  walk.connect_radius = 1;
  expect_registry_matches(
      {"--model=random_walk", "--n=40", "--side=8", "--mobile_fraction=0.5",
       "--connect_radius=1"},
      [&](std::uint64_t seed) {
        return std::make_unique<RandomWalkModel>(grid, 40, walk, seed);
      },
      cfg);
}

}  // namespace
}  // namespace megflood
