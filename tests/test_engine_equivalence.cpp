// Same-seed equivalence suite: the CSR/bitset engine must produce
// bit-for-bit identical model states and flood trajectories to the
// retained reference implementation (tests/reference_engine.hpp), which
// is a faithful copy of the historical vector<vector> / byte-array /
// unordered_set data path.  Any divergence is an engine bug, not noise:
// every layer below the RNG is deterministic.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/bitwords.hpp"
#include "core/fixed_graphs.hpp"
#include "core/flooding.hpp"
#include "core/trace.hpp"
#include "graph/builders.hpp"
#include "markov/chain.hpp"
#include "meg/edge_meg.hpp"
#include "meg/node_meg.hpp"
#include "mobility/random_walk.hpp"
#include "reference_engine.hpp"
#include "util/rng.hpp"

namespace megflood {
namespace {

constexpr std::uint64_t kSeeds[] = {1, 2, 3, 7, 11};
constexpr std::size_t kSteps = 64;

std::vector<reference::RefSnapshot> to_reference(
    const std::vector<Snapshot>& trace) {
  std::vector<reference::RefSnapshot> ref;
  ref.reserve(trace.size());
  for (const Snapshot& snap : trace) {
    ref.push_back(reference::RefSnapshot::from(snap));
  }
  return ref;
}

// Records a trace from the production model and checks the production
// flood() and flood_all_sources() trajectories against the reference
// scalar engine replaying the exact same snapshots.
void expect_flood_equivalence(DynamicGraph& model, std::uint64_t seed) {
  model.reset(seed);
  const std::vector<Snapshot> trace = record_trace(model, kSteps);
  const auto ref_trace = to_reference(trace);
  const std::size_t n = model.num_nodes();

  ScriptedDynamicGraph scripted(trace);
  for (NodeId source : {NodeId{0}, static_cast<NodeId>(n / 2)}) {
    scripted.reset(0);
    const FloodResult got = flood(scripted, source, kSteps);
    const auto want = reference::ref_flood_counts(ref_trace, source, n, kSteps);
    EXPECT_EQ(got.informed_counts, want)
        << "seed " << seed << " source " << source;
  }

  scripted.reset(0);
  const AllSourcesResult all = flood_all_sources(scripted, kSteps);
  const auto want_all = reference::ref_all_sources_counts(ref_trace, n, kSteps);
  ASSERT_EQ(all.per_source.size(), want_all.size());
  for (NodeId s = 0; s < n; ++s) {
    EXPECT_EQ(all.per_source[s].informed_counts, want_all[s])
        << "seed " << seed << " source " << s;
  }
}

TEST(EngineEquivalence, EdgeMegSparseStateAndStreams) {
  // The incremental sorted on-set must consume the RNG identically to the
  // historical unordered_set + re-sort step, so the *states* match
  // edge-for-edge at every step — not just statistically.
  constexpr std::size_t n = 64;
  const TwoStateParams params{2.0 / (n * n), 0.25};
  for (std::uint64_t seed : kSeeds) {
    TwoStateEdgeMEG meg(n, params, seed);
    reference::RefTwoStateEdgeMEG ref(n, params, seed);
    for (std::size_t t = 0; t < kSteps; ++t) {
      ASSERT_EQ(meg.snapshot().edges(), ref.edges())
          << "seed " << seed << " step " << t;
      meg.step();
      ref.step();
    }
  }
}

TEST(EngineEquivalence, EdgeMegDenseStateAndStreams) {
  constexpr std::size_t n = 48;
  const TwoStateParams params{0.2, 0.2};
  for (std::uint64_t seed : kSeeds) {
    TwoStateEdgeMEG meg(n, params, seed);
    reference::RefTwoStateEdgeMEG ref(n, params, seed);
    for (std::size_t t = 0; t < kSteps; ++t) {
      ASSERT_EQ(meg.snapshot().edges(), ref.edges())
          << "seed " << seed << " step " << t;
      meg.step();
      ref.step();
    }
  }
}

TEST(EngineEquivalence, EdgeMegSparseFloodTrajectories) {
  constexpr std::size_t n = 64;
  TwoStateEdgeMEG meg(n, {3.0 / n, 0.3}, 1);
  for (std::uint64_t seed : kSeeds) expect_flood_equivalence(meg, seed);
}

TEST(EngineEquivalence, EdgeMegDenseFloodTrajectories) {
  constexpr std::size_t n = 48;
  TwoStateEdgeMEG meg(n, {0.2, 0.2}, 1);
  for (std::uint64_t seed : kSeeds) expect_flood_equivalence(meg, seed);
}

TEST(EngineEquivalence, NodeMegFloodTrajectories) {
  ExplicitNodeMEG meg(64, lazy_random_walk_chain(cycle_graph(12)),
                      cycle_proximity_connection(12, 1), 1);
  for (std::uint64_t seed : kSeeds) expect_flood_equivalence(meg, seed);
}

TEST(EngineEquivalence, RandomWalkFloodTrajectories) {
  const auto g = std::make_shared<const Graph>(grid_2d(8));
  RandomWalkModel model(g, 64, {}, 1);
  for (std::uint64_t seed : kSeeds) expect_flood_equivalence(model, seed);
}

TEST(EngineEquivalence, WordRoundMatchesByteRound) {
  // flood_round_words (edge-centric, over the raw edge buffer) against the
  // byte-array flood_round (CSR scan) on random snapshots: n straddles the
  // word boundaries, edges are added in both orientations, and informed
  // sets range from empty to full.
  Rng rng(5);
  for (const std::size_t n : {1u, 63u, 64u, 65u, 130u}) {
    for (int trial = 0; trial < 20; ++trial) {
      Snapshot snap(n);
      const std::uint64_t edge_permille = rng.uniform_int(100);
      for (NodeId u = 0; u < n; ++u) {
        for (NodeId v = u + 1; v < n; ++v) {
          if (rng.uniform_int(1000) >= edge_permille) continue;
          if (rng.bernoulli(0.5)) {
            snap.add_edge(u, v);
          } else {
            snap.add_edge(v, u);
          }
        }
      }
      const double informed_p = static_cast<double>(trial) / 19.0;
      std::vector<char> informed(n, 0);
      std::vector<std::uint64_t> cur(bit_words(n), 0);
      for (NodeId u = 0; u < n; ++u) {
        if (rng.bernoulli(informed_p)) {
          informed[u] = 1;
          set_bit(cur.data(), u);
        }
      }
      std::vector<std::uint64_t> next = cur;
      std::vector<NodeId> scratch;
      const std::size_t newly_bytes = flood_round(snap, informed, scratch);
      const std::size_t newly_words =
          flood_round_words(snap, cur.data(), next.data(), n);
      EXPECT_EQ(newly_words, newly_bytes) << "n=" << n << " trial " << trial;
      for (NodeId v = 0; v < n; ++v) {
        ASSERT_EQ(test_bit(next.data(), v), informed[v] != 0)
            << "n=" << n << " trial " << trial << " node " << v;
      }
    }
  }
}

}  // namespace
}  // namespace megflood
