// Unit tests for snapshots and the fixed/scripted dynamic graphs.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/fixed_graphs.hpp"
#include "core/snapshot.hpp"
#include "core/trace.hpp"
#include "graph/builders.hpp"
#include "markov/chain.hpp"
#include "meg/clique_flicker.hpp"
#include "meg/edge_meg.hpp"
#include "meg/general_edge_meg.hpp"
#include "meg/heterogeneous_edge_meg.hpp"
#include "meg/node_meg.hpp"
#include "mobility/random_trip.hpp"
#include "mobility/random_walk.hpp"
#include "step_hash.hpp"
#include "util/rng.hpp"

namespace megflood {
namespace {

TEST(Snapshot, StartsEmpty) {
  Snapshot s(4);
  EXPECT_EQ(s.num_nodes(), 4u);
  EXPECT_EQ(s.num_edges(), 0u);
  EXPECT_FALSE(s.has_edge(0, 1));
}

TEST(Snapshot, AddEdgeBothDirections) {
  Snapshot s(3);
  s.add_edge(0, 2);
  EXPECT_TRUE(s.has_edge(0, 2));
  EXPECT_TRUE(s.has_edge(2, 0));
  EXPECT_EQ(s.degree(0), 1u);
  EXPECT_EQ(s.degree(2), 1u);
  EXPECT_EQ(s.num_edges(), 1u);
}

TEST(Snapshot, ClearKeepsNodeCount) {
  Snapshot s(3);
  s.add_edge(0, 1);
  s.clear();
  EXPECT_EQ(s.num_nodes(), 3u);
  EXPECT_EQ(s.num_edges(), 0u);
  EXPECT_FALSE(s.has_edge(0, 1));
}

TEST(Snapshot, ResetChangesNodeCount) {
  Snapshot s(2);
  s.add_edge(0, 1);
  s.reset(5);
  EXPECT_EQ(s.num_nodes(), 5u);
  EXPECT_EQ(s.num_edges(), 0u);
}

TEST(Snapshot, EdgesCanonical) {
  Snapshot s(4);
  s.add_edge(3, 1);
  s.add_edge(0, 2);
  const auto edges = s.edges();
  EXPECT_EQ(edges.size(), 2u);
  for (const auto& [u, v] : edges) EXPECT_LT(u, v);
}

TEST(Snapshot, ProducerCsrReadsLikeTheLazyBuild) {
  // Cliques {0, 1, 2} and {3, 4}, agent 5 alone: the pairs in clique
  // order and the CSR the lazy build makes from them.
  const std::vector<std::pair<NodeId, NodeId>> pairs = {
      {0, 1}, {0, 2}, {1, 2}, {3, 4}};
  Snapshot lazy(6);
  for (const auto& [u, v] : pairs) lazy.add_edge(u, v);
  Snapshot handed(6);
  handed.add_edge(5, 4);  // replaced, CSR built once below
  EXPECT_EQ(handed.degree(5), 1u);
  std::vector<std::uint64_t>& keys = handed.key_buffer();
  // The producer gets the previous keys as its scratch.
  EXPECT_EQ(keys, std::vector<std::uint64_t>{pack_pair(5, 4)});
  keys.clear();
  for (const auto& [u, v] : pairs) keys.push_back(pack_pair(u, v));
  std::vector<std::uint32_t> offsets = {0, 2, 4, 6, 7, 8, 8};
  std::vector<NodeId> neighbors = {1, 2, 0, 2, 0, 1, 4, 3};
  handed.adopt_csr(offsets, neighbors);
  // The previous CSR buffers come back for reuse.
  EXPECT_EQ(offsets.size(), 7u);
  EXPECT_EQ(neighbors.size(), 2u);

  EXPECT_EQ(handed.num_edges(), lazy.num_edges());
  EXPECT_EQ(decoded_edges(handed), decoded_edges(lazy));
  EXPECT_EQ(handed.edges(), lazy.edges());
  for (NodeId u = 0; u < 6; ++u) {
    const auto got = handed.neighbors(u);
    const auto want = lazy.neighbors(u);
    EXPECT_EQ(std::vector<NodeId>(got.begin(), got.end()),
              std::vector<NodeId>(want.begin(), want.end()))
        << "node " << u;
    EXPECT_EQ(handed.degree(u), lazy.degree(u)) << "node " << u;
    for (NodeId v = 0; v < 6; ++v) {
      EXPECT_EQ(handed.has_edge(u, v), lazy.has_edge(u, v))
          << u << "-" << v;
    }
  }
  const Snapshot::CsrView view = handed.csr();
  EXPECT_EQ(std::vector<std::uint32_t>(view.offsets, view.offsets + 7),
            (std::vector<std::uint32_t>{0, 2, 4, 6, 7, 8, 8}));
}

TEST(Snapshot, KeysKeepTheOrientationAsAdded) {
  Snapshot s(4);
  s.add_edge(3, 1);
  s.add_edge(0, 2);
  EXPECT_EQ(std::vector<std::uint64_t>(s.keys().begin(), s.keys().end()),
            (std::vector<std::uint64_t>{pack_pair(3, 1), pack_pair(0, 2)}));
  EXPECT_EQ(decoded_edges(s), (EdgeList{{3, 1}, {0, 2}}));
  EXPECT_EQ(s.key_states(), nullptr);
}

// A borrowed set with states 0..2 and on = {0, 1, 1}: keys in state 0
// are no edges, so every reader skips them.
TEST(Snapshot, BorrowedStatesReadOnlyTheOnKeys) {
  const std::vector<std::uint64_t> keys = {pack_pair(0, 1), pack_pair(0, 3),
                                           pack_pair(1, 2), pack_pair(2, 3),
                                           pack_pair(3, 4)};
  const std::vector<std::uint8_t> states = {1, 0, 2, 0, 1};
  const StateMask on = {0, 1, 1};
  Snapshot s(5);
  s.add_edge(4, 0);
  s.borrow(keys, states, on, 3);
  EXPECT_EQ(s.keys().data(), keys.data());
  EXPECT_EQ(s.keys().size(), keys.size());
  EXPECT_EQ(s.key_states(), states.data());
  EXPECT_EQ(s.num_edges(), 3u);
  EXPECT_EQ(decoded_edges(s), (EdgeList{{0, 1}, {1, 2}, {3, 4}}));

  Snapshot plain(5);
  for (const auto& [u, v] : decoded_edges(s)) plain.add_edge(u, v);
  EXPECT_EQ(s.edges(), plain.edges());
  for (NodeId u = 0; u < 5; ++u) {
    const auto got = s.neighbors(u);
    const auto want = plain.neighbors(u);
    EXPECT_EQ(std::vector<NodeId>(got.begin(), got.end()),
              std::vector<NodeId>(want.begin(), want.end()))
        << "node " << u;
  }
  EXPECT_FALSE(s.has_edge(0, 3));
  EXPECT_FALSE(s.has_edge(2, 3));

  // A copy owns the edges alone; add_edge on the borrow copies them too.
  const Snapshot copy = s;
  EXPECT_NE(copy.keys().data(), keys.data());
  EXPECT_EQ(copy.key_states(), nullptr);
  EXPECT_EQ(copy.num_edges(), 3u);
  EXPECT_EQ(decoded_edges(copy), decoded_edges(s));
  EXPECT_EQ(copy.edges(), plain.edges());
  s.add_edge(4, 2);
  EXPECT_EQ(s.key_states(), nullptr);
  EXPECT_EQ(decoded_edges(s), (EdgeList{{0, 1}, {1, 2}, {3, 4}, {4, 2}}));
  EXPECT_EQ(keys.size(), 5u);  // the borrowed set is never written

  // clear() drops the borrow.
  s.borrow(keys, states, on, 3);
  s.clear();
  EXPECT_EQ(s.num_edges(), 0u);
  EXPECT_TRUE(s.keys().empty());
  EXPECT_EQ(s.degree(1), 0u);
}

TEST(Snapshot, ProducerCsrIsReadAsHandedAndMutationsRebuild) {
  // Row 0 handed in descending order, which the lazy build would never
  // make: reading it back shows the handed CSR is used, not rebuilt.
  Snapshot s(3);
  const auto hand_over = [&s](std::vector<std::uint64_t> keys,
                              std::vector<std::uint32_t> offsets,
                              std::vector<NodeId> neighbors) {
    s.key_buffer() = std::move(keys);
    s.adopt_csr(offsets, neighbors);
  };
  hand_over({pack_pair(0, 1), pack_pair(0, 2)}, {0, 2, 3, 4}, {2, 1, 0, 0});
  auto row = s.neighbors(0);
  EXPECT_EQ(std::vector<NodeId>(row.begin(), row.end()),
            (std::vector<NodeId>{2, 1}));

  // add_edge falls back to the lazy build over the keys.
  s.add_edge(1, 2);
  row = s.neighbors(0);
  EXPECT_EQ(std::vector<NodeId>(row.begin(), row.end()),
            (std::vector<NodeId>{1, 2}));
  EXPECT_TRUE(s.has_edge(1, 2));
  EXPECT_EQ(s.degree(2), 2u);

  // So do clear and reset.
  hand_over({pack_pair(0, 1)}, {0, 1, 2, 2}, {1, 0});
  s.clear();
  EXPECT_EQ(s.num_edges(), 0u);
  EXPECT_EQ(s.degree(0), 0u);
  EXPECT_FALSE(s.has_edge(0, 1));
  hand_over({pack_pair(0, 1)}, {0, 1, 2, 2}, {1, 0});
  s.reset(5);
  EXPECT_EQ(s.num_nodes(), 5u);
  EXPECT_EQ(s.degree(4), 0u);
  EXPECT_TRUE(s.edges().empty());
  s.add_edge(3, 4);
  EXPECT_EQ(s.degree(4), 1u);
  EXPECT_TRUE(s.has_edge(4, 3));
}

// Every edge-MEG engine mode lends the snapshot its own key set: the
// snapshot's key array is the engine's array itself, the same pointer and
// size, after construction, every step and reset().  A snapshot holding a
// copied edge list fails this.
TEST(SnapshotKeys, EngineModesLendTheirOwnKeyArray) {
  const BurstyLink link = make_bursty_link(0.01, 0.3, 0.4);
  const TwoStateParams base{0.02, 0.3};
  const auto expect_lent = [](auto& meg, const char* what, bool with_states) {
    SCOPED_TRACE(what);
    for (int t = 0; t <= 6; ++t) {
      if (t == 4) meg.reset(99);
      if (t > 0 && t != 4) meg.step();
      const Snapshot& snapshot = meg.snapshot();
      ASSERT_EQ(snapshot.keys().data(), meg.set_keys().data()) << "t=" << t;
      ASSERT_EQ(snapshot.keys().size(), meg.set_keys().size()) << "t=" << t;
      ASSERT_EQ(snapshot.key_states() != nullptr, with_states) << "t=" << t;
      ASSERT_EQ(decoded_edges(snapshot).size(), snapshot.num_edges());
      ASSERT_GT(snapshot.num_edges(), 0u) << "t=" << t;
    }
  };
  TwoStateEdgeMEG two_state(60, base, 1);
  expect_lent(two_state, "two-state", false);
  GeneralEdgeMEG general_dense(60, link.chain, link.chi, 2, MegStorage::kDense);
  expect_lent(general_dense, "general, dense", false);
  HeterogeneousEdgeMEG hetero_dense(60, two_speed_rates(base, 0.3, 0.2), 3,
                                    MegStorage::kDense,
                                    two_speed_bounds(base, 0.3, 0.2));
  expect_lent(hetero_dense, "heterogeneous, dense", false);
  HeterogeneousEdgeMEG hetero_sparse(60, two_speed_rates(base, 0.3, 0.2), 4,
                                     MegStorage::kSparse,
                                     two_speed_bounds(base, 0.3, 0.2));
  expect_lent(hetero_sparse, "heterogeneous, sparse", false);
  GeneralEdgeMEG general_sparse(60, link.chain, link.chi, 5,
                                MegStorage::kSparse);
  expect_lent(general_sparse, "general, sparse", true);
  EXPECT_EQ(general_sparse.snapshot().key_states(),
            general_sparse.minority_states().data());
  EXPECT_GT(general_sparse.set_keys().size(),
            general_sparse.snapshot().num_edges());
}

// G(n, p) by geometric skipping over the row-major upper triangle of
// pairs: the fixed graph the "fixed graph" hash below was recorded with.
Graph skip_sampled_graph(std::size_t n, double p, Rng& rng) {
  Graph g(n);
  geometric_select(rng, n * (n - 1) / 2, p, [&](std::uint64_t rem) {
    std::size_t i = 0;
    for (std::size_t row = n - 1; rem >= row; --row, ++i) rem -= row;
    g.add_edge(static_cast<VertexId>(i), static_cast<VertexId>(i + 1 + rem));
  });
  return g;
}

// The owning producers write keys into the snapshot's own array.  Their
// edges, decoded from the keys, must be exactly the (u, v) pair lists the
// snapshot held when it stored pairs: each hash folds those lists over
// 21 snapshots and was recorded from the pair-list snapshot.  Covers the
// node-MEG, all three mobility snapshot builds (one-point with the grid
// scan, one-point with the occupied-point ranking, multi-point), fixed
// graphs, the add_edge mobility and flicker models, and trace replay of a
// plain and a state-carrying borrowed snapshot.
TEST(SnapshotKeys, OwningProducersDecodeToTheRecordedPairs) {
  struct Producer {
    const char* name;
    std::function<std::unique_ptr<DynamicGraph>()> make;
    std::uint64_t hash;
  };
  const auto waypoint = [](std::size_t n, double v_min, double v_max,
                           double radius, std::size_t m, std::uint64_t seed) {
    WaypointParams p;
    p.side_length = 8.0;
    p.v_min = v_min;
    p.v_max = v_max;
    p.radius = radius;
    p.resolution = m;
    return make_random_waypoint(n, p, seed);
  };
  const std::vector<Producer> producers = {
      {"node-MEG",
       [] {
         DenseChain chain(
             {{0.7, 0.2, 0.1}, {0.1, 0.8, 0.1}, {0.2, 0.2, 0.6}});
         return std::make_unique<ExplicitNodeMEG>(
             40, chain, same_state_connection(3), 5);
       },
       0x8fcb6555e12dc27dULL},
      {"waypoint one-point",
       [&] { return waypoint(64, 0.2, 0.5, 1.0, 8, 7); },
       0xcd49baeb45f7bb83ULL},
      {"waypoint one-point fine grid",
       [&] { return waypoint(300, 0.05, 0.1, 0.16, 48, 8); },
       0xeb56cb532514142bULL},
      {"waypoint multi-point",
       [&] { return waypoint(64, 0.2, 0.5, 1.0, 48, 9); },
       0x625bdd2e7c76578aULL},
      {"fixed graph",
       [] {
         Rng rng(11);
         return std::make_unique<FixedDynamicGraph>(
             skip_sampled_graph(50, 0.1, rng));
       },
       0x4c9adf9ce7f64432ULL},
      {"random walk",
       [] {
         return std::make_unique<RandomWalkModel>(
             std::make_shared<const Graph>(torus_2d(6)), 40,
             RandomWalkParams{}, 12);
       },
       0x8e6d0968cfd470b1ULL},
      {"clique flicker",
       [] { return std::make_unique<CliqueFlickerGraph>(40, 8, 0.7, 13, 0.5); },
       0x0d9922af9ae17da1ULL},
      {"trace replay, two-state",
       [] {
         TwoStateEdgeMEG meg(40, {0.02, 0.3}, 14);
         return std::make_unique<ScriptedDynamicGraph>(record_trace(meg, 20));
       },
       0x3c1600aad9e0ea9cULL},
      {"trace replay, sparse general",
       [] {
         const BurstyLink link = make_bursty_link(0.01, 0.3, 0.4);
         GeneralEdgeMEG meg(60, link.chain, link.chi, 15, MegStorage::kSparse);
         return std::make_unique<ScriptedDynamicGraph>(record_trace(meg, 20));
       },
       0x586c25093d99cc7bULL},
  };
  for (const Producer& producer : producers) {
    SCOPED_TRACE(producer.name);
    const std::unique_ptr<DynamicGraph> graph = producer.make();
    std::uint64_t h = kFnvOffset;
    for (int t = 0; t <= 20; ++t) {
      if (t > 0) graph->step();
      const Snapshot& snapshot = graph->snapshot();
      EXPECT_EQ(snapshot.key_states(), nullptr) << "t=" << t;
      h = fnv_mix_bytes(h, decoded_edges(snapshot));
    }
    EXPECT_EQ(h, producer.hash);
  }
}

TEST(FixedDynamicGraph, MirrorsGraph) {
  const Graph g = cycle_graph(5);
  FixedDynamicGraph d(g);
  EXPECT_EQ(d.num_nodes(), 5u);
  EXPECT_EQ(d.snapshot().num_edges(), 5u);
  EXPECT_TRUE(d.snapshot().has_edge(0, 4));
}

TEST(FixedDynamicGraph, StepKeepsTopologyAdvancesClock) {
  FixedDynamicGraph d(path_graph(4));
  const std::size_t before = d.snapshot().num_edges();
  d.step();
  d.step();
  EXPECT_EQ(d.snapshot().num_edges(), before);
  EXPECT_EQ(d.time(), 2u);
  d.reset(0);
  EXPECT_EQ(d.time(), 0u);
}

Snapshot single_edge_snapshot(std::size_t n, NodeId u, NodeId v) {
  Snapshot s(n);
  s.add_edge(u, v);
  return s;
}

TEST(ScriptedDynamicGraph, PlaysSequenceAndHolds) {
  std::vector<Snapshot> script;
  script.push_back(single_edge_snapshot(3, 0, 1));
  script.push_back(single_edge_snapshot(3, 1, 2));
  ScriptedDynamicGraph d(std::move(script));
  EXPECT_TRUE(d.snapshot().has_edge(0, 1));
  d.step();
  EXPECT_TRUE(d.snapshot().has_edge(1, 2));
  d.step();  // holds final snapshot
  EXPECT_TRUE(d.snapshot().has_edge(1, 2));
}

TEST(ScriptedDynamicGraph, CyclesWhenRequested) {
  std::vector<Snapshot> script;
  script.push_back(single_edge_snapshot(3, 0, 1));
  script.push_back(single_edge_snapshot(3, 1, 2));
  ScriptedDynamicGraph d(std::move(script), /*cycle=*/true);
  d.step();
  d.step();
  EXPECT_TRUE(d.snapshot().has_edge(0, 1));
}

TEST(ScriptedDynamicGraph, ResetRewinds) {
  std::vector<Snapshot> script;
  script.push_back(single_edge_snapshot(2, 0, 1));
  script.push_back(Snapshot(2));
  ScriptedDynamicGraph d(std::move(script));
  d.step();
  EXPECT_EQ(d.snapshot().num_edges(), 0u);
  d.reset(0);
  EXPECT_EQ(d.snapshot().num_edges(), 1u);
}

TEST(ScriptedDynamicGraph, RejectsBadScripts) {
  EXPECT_THROW(ScriptedDynamicGraph({}), std::invalid_argument);
  std::vector<Snapshot> bad;
  bad.emplace_back(2);
  bad.emplace_back(3);
  EXPECT_THROW(ScriptedDynamicGraph(std::move(bad)), std::invalid_argument);
}

}  // namespace
}  // namespace megflood
