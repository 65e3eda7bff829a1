// Tests for the unified SpreadingProcess API: equivalence of
// FloodingProcess with the word-parallel flood(), process metrics, TTL
// die-out semantics, and — the harness guarantee the trial runner makes
// for *every* protocol, not just flooding — measurements that are
// bit-identical for any thread count.

#include <gtest/gtest.h>

#include <initializer_list>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/fixed_graphs.hpp"
#include "core/process.hpp"
#include "core/scenario.hpp"
#include "core/trial.hpp"
#include "graph/builders.hpp"
#include "meg/edge_meg.hpp"
#include "protocols/gossip.hpp"
#include "protocols/k_push.hpp"
#include "protocols/radio_broadcast.hpp"
#include "protocols/ttl_flooding.hpp"

namespace megflood {
namespace {

TEST(RunProcess, FloodingProcessMatchesWordEngineFlood) {
  // FloodingProcess::run substitutes the word-parallel flood() kernel;
  // the generic per-round engine it overrides (invoked here via the
  // qualified base call) must produce an identical trajectory AND
  // identical metrics on the same model realization.
  TwoStateEdgeMEG a(48, {0.05, 0.25}, 99);
  TwoStateEdgeMEG b(48, {0.05, 0.25}, 99);
  FloodingProcess process;
  const ProcessResult generic =
      process.SpreadingProcess::run(a, 3, 10'000, 1234);
  const ProcessResult word = run_process(b, process, 3, 10'000, 1234);
  ASSERT_TRUE(generic.flood.completed);
  ASSERT_TRUE(word.flood.completed);
  EXPECT_EQ(generic.flood.rounds, word.flood.rounds);
  EXPECT_EQ(generic.flood.informed_counts, word.flood.informed_counts);
  // Every informed node transmits every executed round — identical
  // accounting in both engines.
  EXPECT_GT(word.metrics.at("transmissions"), 0.0);
  EXPECT_EQ(generic.metrics.at("transmissions"),
            word.metrics.at("transmissions"));
}

TEST(RunProcess, BadSourceThrows) {
  FixedDynamicGraph g(path_graph(4));
  FloodingProcess process;
  EXPECT_THROW((void)run_process(g, process, 9, 10, 1), std::out_of_range);
}

TEST(RunProcess, TtlDiesOutEarlyAndReportsIncomplete) {
  // 3 nodes; only the first snapshot has an edge.  With ttl = 1 the
  // relay budget expires after the first rounds and node 2 is never
  // reached: the driver must stop early (exhausted()), not burn the full
  // round budget.
  std::vector<Snapshot> script;
  Snapshot first(3);
  first.add_edge(0, 1);
  script.push_back(std::move(first));
  script.emplace_back(3);  // empty forever after
  ScriptedDynamicGraph graph(std::move(script));
  TtlFloodingProcess process(1);
  const ProcessResult r = run_process(graph, process, 0, 1'000'000, 0);
  EXPECT_FALSE(r.flood.completed);
  EXPECT_TRUE(process.exhausted());
  // Early exit, not 1e6 steps — and no step after the exhausting round:
  // R executed rounds (one informed_counts entry each) step R - 1 times.
  ASSERT_GE(r.flood.informed_counts.size(), 2u);
  EXPECT_EQ(graph.time(), r.flood.informed_counts.size() - 2);
  EXPECT_EQ(r.metrics.at("transmissions"), 2.0);  // node 0 then node 1
}

TEST(RunProcess, GenericEngineStepsOnlyBetweenRounds) {
  // flood()'s clocking in the generic round engine: 0-1 at t = 0, 1-2 at
  // t = 1, 2-3 from t = 2 on, so flooding from 0 completes in 3 rounds.
  const auto staircase = [] {
    std::vector<Snapshot> script;
    for (NodeId e = 0; e < 3; ++e) {
      Snapshot s(4);
      s.add_edge(e, e + 1);
      script.push_back(std::move(s));
    }
    return ScriptedDynamicGraph(std::move(script));
  };
  FloodingProcess process;
  {
    ScriptedDynamicGraph graph = staircase();
    const ProcessResult r = process.SpreadingProcess::run(graph, 0, 10, 1);
    ASSERT_TRUE(r.flood.completed);
    EXPECT_EQ(r.flood.rounds, 3u);
    EXPECT_EQ(graph.time(), 2u);
  }
  for (const std::uint64_t budget : {0u, 1u, 2u}) {
    ScriptedDynamicGraph graph = staircase();
    const ProcessResult r = process.SpreadingProcess::run(graph, 0, budget, 1);
    EXPECT_FALSE(r.flood.completed);
    EXPECT_EQ(graph.time(), budget == 0 ? 0u : budget - 1)
        << "budget " << budget;
  }
}

// A graph on `n` nodes whose snapshot has n + delta nodes: a cycle over
// all of them, so with delta = +1 the source 0 is adjacent to id n, one
// past the process's per-node state.
class MisSizedGraph final : public DynamicGraph {
 public:
  MisSizedGraph(std::size_t n, int delta)
      : n_(n),
        snapshot_(static_cast<std::size_t>(static_cast<int>(n) + delta)) {
    for (NodeId v = 0; v + 1 < snapshot_.num_nodes(); ++v) {
      snapshot_.add_edge(v, v + 1);
    }
    snapshot_.add_edge(0, static_cast<NodeId>(snapshot_.num_nodes() - 1));
  }
  std::size_t num_nodes() const override { return n_; }
  const Snapshot& snapshot() const override { return snapshot_; }
  void step() override { advance_clock(); }
  void reset(std::uint64_t) override { reset_clock(); }

 private:
  std::size_t n_;
  Snapshot snapshot_;
};

// A snapshot one node short would make the round engines read past the
// CSR offsets; one node long would let a neighbour id index the informed
// set out of bounds.  Both are rejected before the first round.
TEST(RunProcess, SnapshotOfTheWrongSizeIsRejected) {
  for (const int delta : {-1, +1}) {
    SCOPED_TRACE(delta);
    FloodingProcess flooding;
    GossipProcess gossip(GossipMode::kPushPull);
    KPushProcess kpush(2);
    for (SpreadingProcess* process :
         std::initializer_list<SpreadingProcess*>{&flooding, &gossip,
                                                   &kpush}) {
      SCOPED_TRACE(process->name());
      MisSizedGraph graph(6, delta);
      EXPECT_THROW(run_process(graph, *process, 0, 10, 1),
                   std::invalid_argument);
      EXPECT_THROW(process->SpreadingProcess::run(graph, 0, 10, 1),
                   std::invalid_argument);
    }
    MisSizedGraph graph(6, delta);
    std::vector<char> informed(6, 0);
    informed[0] = 1;
    std::vector<NodeId> newly;
    EXPECT_THROW(flood_round(graph.snapshot(), informed, newly),
                 std::invalid_argument);
    Rng rng(1);
    EXPECT_THROW(gossip.round(graph.snapshot(), informed, newly, rng),
                 std::invalid_argument);
    EXPECT_THROW(flood_all_sources(graph, 10), std::invalid_argument);
  }
}

TEST(RunProcess, RadioExportsCollisionMetrics) {
  // On a 4-cycle 0-1-2-3 with tau = 1, round 1 informs nodes 1 and 3
  // (each hears exactly the source); from round 2 on they both transmit
  // into node 2, which is jammed deterministically forever.
  FixedDynamicGraph g(cycle_graph(4));
  RadioBroadcastProcess process(1.0);
  const ProcessResult r = run_process(g, process, 0, 100, 9);
  EXPECT_FALSE(r.flood.completed);  // node 2 is jammed forever
  EXPECT_GT(r.metrics.at("collisions"), 0.0);
  EXPECT_GT(r.metrics.at("transmissions"), 0.0);
}

TEST(Measure, LargeKPushMatchesFlooding) {
  // k >= n-1 pushes to every neighbor: identical round counts to
  // flooding, trial for trial (both deterministic given the graph).
  const GraphFactory factory = [](std::uint64_t seed) {
    return std::make_unique<TwoStateEdgeMEG>(24, TwoStateParams{0.15, 0.2},
                                             seed);
  };
  TrialConfig cfg;
  cfg.trials = 6;
  cfg.seed = 5;
  const Measurement fl =
      measure(factory, make_process_factory("flooding"), cfg);
  const Measurement kp = measure(
      factory, [] { return std::make_unique<KPushProcess>(64); }, cfg);
  EXPECT_EQ(fl.incomplete, kp.incomplete);
  EXPECT_DOUBLE_EQ(fl.rounds.mean, kp.rounds.mean);
  EXPECT_DOUBLE_EQ(fl.rounds.max, kp.rounds.max);
}

void expect_identical(const Measurement& a, const Measurement& b) {
  EXPECT_EQ(a.incomplete, b.incomplete);
  const auto same_summary = [](const Summary& x, const Summary& y) {
    EXPECT_EQ(x.count, y.count);
    EXPECT_DOUBLE_EQ(x.mean, y.mean);
    EXPECT_DOUBLE_EQ(x.stddev, y.stddev);
    EXPECT_DOUBLE_EQ(x.min, y.min);
    EXPECT_DOUBLE_EQ(x.median, y.median);
    EXPECT_DOUBLE_EQ(x.p90, y.p90);
    EXPECT_DOUBLE_EQ(x.p99, y.p99);
    EXPECT_DOUBLE_EQ(x.max, y.max);
  };
  same_summary(a.rounds, b.rounds);
  same_summary(a.spreading_rounds, b.spreading_rounds);
  same_summary(a.saturation_rounds, b.saturation_rounds);
  ASSERT_EQ(a.metrics.size(), b.metrics.size());
  for (const auto& [name, summary] : a.metrics) {
    ASSERT_TRUE(b.metrics.count(name)) << name;
    same_summary(summary, b.metrics.at(name));
  }
}

// The PR 2 guarantee, extended beyond flooding: every protocol
// measurement is a pure function of (config, trial index), merged in
// trial order — so threads = 1, 2 and 0 (auto) are bit-identical.
void check_thread_invariance(const ProcessFactory& process) {
  const GraphFactory factory = [](std::uint64_t seed) {
    return std::make_unique<TwoStateEdgeMEG>(40, TwoStateParams{0.08, 0.25},
                                             seed);
  };
  TrialConfig cfg;
  cfg.trials = 12;
  cfg.seed = 7;
  cfg.warmup_steps = 3;
  cfg.threads = 1;
  const Measurement sequential = measure(factory, process, cfg);
  cfg.threads = 2;
  const Measurement two = measure(factory, process, cfg);
  expect_identical(sequential, two);
  cfg.threads = 0;  // auto: one worker per hardware thread
  const Measurement auto_threaded = measure(factory, process, cfg);
  expect_identical(sequential, auto_threaded);
}

TEST(Measure, GossipThreadCountDoesNotChangeResults) {
  check_thread_invariance(
      [] { return std::make_unique<GossipProcess>(GossipMode::kPushPull); });
}

TEST(Measure, KPushThreadCountDoesNotChangeResults) {
  check_thread_invariance([] { return std::make_unique<KPushProcess>(2); });
}

TEST(Measure, RadioThreadCountDoesNotChangeResults) {
  check_thread_invariance(
      [] { return std::make_unique<RadioBroadcastProcess>(0.5); });
}

TEST(Measure, TtlThreadCountDoesNotChangeResults) {
  check_thread_invariance(
      [] { return std::make_unique<TtlFloodingProcess>(4); });
}

TEST(Measure, OverlayFloodThreadCountDoesNotChangeResults) {
  // The k-push reduction path: flooding over the owning
  // RandomSubsetOverlay, whose selection RNG is derived from the trial
  // seed (determinism audit of RandomSubsetOverlay::reset/construction).
  const GraphFactory factory = [](std::uint64_t seed) {
    return std::make_unique<RandomSubsetOverlay>(
        std::make_unique<TwoStateEdgeMEG>(40, TwoStateParams{0.1, 0.25},
                                          seed),
        2, seed ^ 0x517cc1b727220a95ULL);
  };
  TrialConfig cfg;
  cfg.trials = 10;
  cfg.seed = 13;
  cfg.threads = 1;
  const ProcessFactory flooding = make_process_factory("flooding");
  const Measurement sequential = measure(factory, flooding, cfg);
  cfg.threads = 0;
  const Measurement threaded = measure(factory, flooding, cfg);
  expect_identical(sequential, threaded);
}

}  // namespace
}  // namespace megflood
