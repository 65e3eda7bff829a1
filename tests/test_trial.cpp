// Tests for the multi-trial flooding measurement harness.

#include <gtest/gtest.h>

#include <memory>

#include "core/fixed_graphs.hpp"
#include "core/scenario.hpp"
#include "core/trial.hpp"
#include "graph/builders.hpp"
#include "meg/edge_meg.hpp"

namespace megflood {
namespace {

TEST(MeasureFlooding, FixedGraphDeterministic) {
  TrialConfig cfg;
  cfg.trials = 8;
  cfg.rotate_sources = false;
  const auto m = measure(
      [](std::uint64_t) {
        return std::make_unique<FixedDynamicGraph>(path_graph(5));
      },
      make_process_factory("flooding"), cfg);
  EXPECT_EQ(m.incomplete, 0u);
  EXPECT_EQ(m.rounds.count, 8u);
  // From source 0, a 5-path floods in exactly 4 rounds every time.
  EXPECT_DOUBLE_EQ(m.rounds.min, 4.0);
  EXPECT_DOUBLE_EQ(m.rounds.max, 4.0);
}

TEST(MeasureFlooding, RotatingSourcesVaries) {
  TrialConfig cfg;
  cfg.trials = 5;
  cfg.rotate_sources = true;
  const auto m = measure(
      [](std::uint64_t) {
        return std::make_unique<FixedDynamicGraph>(path_graph(5));
      },
      make_process_factory("flooding"), cfg);
  // Sources 0..4 on a path have eccentricities 4,3,2,3,4.
  EXPECT_DOUBLE_EQ(m.rounds.min, 2.0);
  EXPECT_DOUBLE_EQ(m.rounds.max, 4.0);
}

TEST(MeasureFlooding, CountsIncomplete) {
  Graph g(4);
  g.add_edge(0, 1);  // nodes 2, 3 unreachable
  TrialConfig cfg;
  cfg.trials = 3;
  cfg.max_rounds = 20;
  cfg.rotate_sources = false;
  const auto m = measure(
      [&](std::uint64_t) { return std::make_unique<FixedDynamicGraph>(g); },
      make_process_factory("flooding"), cfg);
  EXPECT_EQ(m.incomplete, 3u);
  EXPECT_EQ(m.rounds.count, 0u);
}

TEST(MeasureFlooding, AllIncompleteIsDistinguished) {
  // max_rounds = 0: no trial can complete (n > 1), and the measurement
  // must say so explicitly instead of summarizing zero samples as
  // "flooding takes 0 rounds".
  TrialConfig cfg;
  cfg.trials = 4;
  cfg.max_rounds = 0;
  const auto m = measure(
      [](std::uint64_t) {
        return std::make_unique<FixedDynamicGraph>(path_graph(5));
      },
      make_process_factory("flooding"), cfg);
  EXPECT_TRUE(m.all_incomplete());
  EXPECT_EQ(m.incomplete, 4u);
  EXPECT_EQ(m.rounds.count, 0u);
  EXPECT_EQ(m.spreading_rounds.count, 0u);

  // ... and a run with at least one completion is not all-incomplete.
  cfg.max_rounds = 100;
  const auto ok = measure(
      [](std::uint64_t) {
        return std::make_unique<FixedDynamicGraph>(path_graph(5));
      },
      make_process_factory("flooding"), cfg);
  EXPECT_FALSE(ok.all_incomplete());
}

void expect_identical_measurements(const Measurement& a, const Measurement& b) {
  EXPECT_EQ(a.incomplete, b.incomplete);
  const auto expect_same_summary = [](const Summary& x, const Summary& y) {
    EXPECT_EQ(x.count, y.count);
    EXPECT_DOUBLE_EQ(x.mean, y.mean);
    EXPECT_DOUBLE_EQ(x.stddev, y.stddev);
    EXPECT_DOUBLE_EQ(x.min, y.min);
    EXPECT_DOUBLE_EQ(x.p25, y.p25);
    EXPECT_DOUBLE_EQ(x.median, y.median);
    EXPECT_DOUBLE_EQ(x.p75, y.p75);
    EXPECT_DOUBLE_EQ(x.p90, y.p90);
    EXPECT_DOUBLE_EQ(x.p99, y.p99);
    EXPECT_DOUBLE_EQ(x.max, y.max);
  };
  expect_same_summary(a.rounds, b.rounds);
  expect_same_summary(a.spreading_rounds, b.spreading_rounds);
  expect_same_summary(a.saturation_rounds, b.saturation_rounds);
}

TEST(MeasureFlooding, ThreadCountDoesNotChangeResults) {
  // The threaded runner must produce a bit-identical measurement for any
  // thread count: trials are pure functions of their derived seed and
  // index, and the merge folds outcomes in trial order.
  auto factory = [](std::uint64_t seed) {
    return std::make_unique<TwoStateEdgeMEG>(40, TwoStateParams{0.08, 0.25},
                                             seed);
  };
  TrialConfig cfg;
  cfg.trials = 12;
  cfg.seed = 7;
  cfg.warmup_steps = 3;
  cfg.threads = 1;
  const ProcessFactory flooding = make_process_factory("flooding");
  const auto sequential = measure(factory, flooding, cfg);
  cfg.threads = 4;
  const auto threaded = measure(factory, flooding, cfg);
  expect_identical_measurements(sequential, threaded);
  cfg.threads = 0;  // auto: one worker per hardware thread
  const auto auto_threaded = measure(factory, flooding, cfg);
  expect_identical_measurements(sequential, auto_threaded);
}

TEST(MeasureFlooding, ThreadedPropagatesFactoryExceptions) {
  TrialConfig cfg;
  cfg.trials = 8;
  cfg.threads = 4;
  EXPECT_THROW(
      (void)measure(
          [](std::uint64_t) -> std::unique_ptr<DynamicGraph> {
            throw std::runtime_error("boom");
          },
          make_process_factory("flooding"), cfg),
      std::runtime_error);
}

TEST(MeasureFlooding, ZeroTrialsThrows) {
  TrialConfig cfg;
  cfg.trials = 0;
  EXPECT_THROW(
      (void)measure(
          [](std::uint64_t) {
            return std::make_unique<FixedDynamicGraph>(path_graph(3));
          },
          make_process_factory("flooding"), cfg),
      std::invalid_argument);
}

TEST(MeasureFlooding, SeededRunsReproduce) {
  TrialConfig cfg;
  cfg.trials = 6;
  cfg.seed = 42;
  auto factory = [](std::uint64_t seed) {
    return std::make_unique<TwoStateEdgeMEG>(
        32, TwoStateParams{0.05, 0.2}, seed);
  };
  const ProcessFactory flooding = make_process_factory("flooding");
  const auto a = measure(factory, flooding, cfg);
  const auto b = measure(factory, flooding, cfg);
  EXPECT_DOUBLE_EQ(a.rounds.mean, b.rounds.mean);
  EXPECT_DOUBLE_EQ(a.rounds.max, b.rounds.max);
}

TEST(MeasureFlooding, WarmupStepsApplied) {
  // A script whose first snapshots are empty: without warmup flooding
  // takes > 2 rounds; with warmup past the gap it completes in 1.
  auto make_script = [] {
    std::vector<Snapshot> script;
    script.emplace_back(2);
    script.emplace_back(2);
    Snapshot s(2);
    s.add_edge(0, 1);
    script.push_back(std::move(s));
    return script;
  };
  TrialConfig cfg;
  cfg.trials = 1;
  cfg.rotate_sources = false;
  cfg.warmup_steps = 2;
  const auto warm = measure(
      [&](std::uint64_t) {
        return std::make_unique<ScriptedDynamicGraph>(make_script());
      },
      make_process_factory("flooding"), cfg);
  EXPECT_DOUBLE_EQ(warm.rounds.mean, 1.0);
  cfg.warmup_steps = 0;
  const auto cold = measure(
      [&](std::uint64_t) {
        return std::make_unique<ScriptedDynamicGraph>(make_script());
      },
      make_process_factory("flooding"), cfg);
  EXPECT_DOUBLE_EQ(cold.rounds.mean, 3.0);
}

TEST(MeasureFlooding, PhaseSplitsSumToTotal) {
  TrialConfig cfg;
  cfg.trials = 10;
  const auto m = measure(
      [](std::uint64_t seed) {
        return std::make_unique<TwoStateEdgeMEG>(
            48, TwoStateParams{0.05, 0.3}, seed);
      },
      make_process_factory("flooding"), cfg);
  ASSERT_EQ(m.incomplete, 0u);
  EXPECT_NEAR(m.spreading_rounds.mean + m.saturation_rounds.mean,
              m.rounds.mean, 1e-9);
}

}  // namespace
}  // namespace megflood
